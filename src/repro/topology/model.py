"""Hierarchical fleet topology: edge nodes -> gateways -> one cloud.

The paper's protocol assumes every node talks straight to the Cloud.
Production IoT fleets interpose *gateways*: a site-local box that
aggregates its children's uploads into amortized WAN transfers, can host
a mid-size second-opinion model, and is the natural unit of regional
canary rollout.  This module is the pure data model for that shape —
who is under which gateway, which link each hop rides, and how the
gateway batches uploads.  What executes it lives in
:mod:`repro.topology.event`, the gateway tier of the event engine —
hierarchical fleets run only there (``barrier=True`` is the lockstep
reference).  A flat fleet is the absence of a topology: the event engine
then runs its direct tier, nodes talking straight to the Cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.link import FIBER, LAN, NetworkLink

__all__ = ["AggregationPolicy", "GatewayProfile", "Topology"]


@dataclass(frozen=True)
class AggregationPolicy:
    """When a gateway flushes its buffered uploads as one WAN transfer.

    ``max_age_stages`` is denominated in rounds (``barrier=True``) /
    epochs (async), not virtual seconds, so a flush decision depends on
    the schedule alone, never on link speeds.  ``flush_images=1`` flushes
    every non-empty buffer at once: no aggregation.
    """

    flush_images: int = 32  # flush when the buffer reaches this many
    max_age_stages: int = 2  # ... or when the oldest entry is this old

    def __post_init__(self) -> None:
        if self.flush_images < 1:
            raise ValueError("flush_images must be >= 1")
        if self.max_age_stages < 1:
            raise ValueError("max_age_stages must be >= 1")


@dataclass(frozen=True)
class GatewayProfile:
    """One gateway and its children.

    Every gateway is a powered site box: its children reach it over
    :data:`~repro.comm.link.LAN` and it reaches the Cloud over
    :data:`~repro.comm.link.FIBER`.
    """

    gateway_id: int
    child_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.child_ids:
            raise ValueError(f"gateway {self.gateway_id} has no children")
        if len(set(self.child_ids)) != len(self.child_ids):
            raise ValueError(
                f"gateway {self.gateway_id} lists a child twice"
            )

    @property
    def local_link(self) -> NetworkLink:
        """The edge->gateway link."""
        return LAN

    @property
    def wan_link(self) -> NetworkLink:
        """The gateway->cloud link."""
        return FIBER


@dataclass(frozen=True)
class Topology:
    """A two-tier fleet shape: gateways partition the node id space.

    The first gateway's children canary every candidate model (regional
    canary; regression rolls back regionally before any fleet-wide
    push).  ``per_transfer_overhead_bytes`` is the fixed
    per-WAN-transfer framing cost aggregation amortizes away.
    """

    gateways: tuple[GatewayProfile, ...]
    aggregation: AggregationPolicy = field(default_factory=AggregationPolicy)
    second_opinion_fraction: float = 0.0
    per_transfer_overhead_bytes: int = 2_000

    def __post_init__(self) -> None:
        if not self.gateways:
            raise ValueError("topology needs at least one gateway")
        gw_ids = [g.gateway_id for g in self.gateways]
        if len(set(gw_ids)) != len(gw_ids):
            raise ValueError("duplicate gateway ids")
        children: list[int] = []
        for g in self.gateways:
            children.extend(g.child_ids)
        if len(set(children)) != len(children):
            raise ValueError("a node is claimed by more than one gateway")
        if not 0.0 <= self.second_opinion_fraction <= 1.0:
            raise ValueError("second_opinion_fraction must be in [0, 1]")
        if self.per_transfer_overhead_bytes < 0:
            raise ValueError("per_transfer_overhead_bytes must be >= 0")

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(
            sorted(n for g in self.gateways for n in g.child_ids)
        )

    def gateway_of(self, node_id: int) -> GatewayProfile:
        for g in self.gateways:
            if node_id in g.child_ids:
                return g
        raise KeyError(f"node {node_id} is not in the topology")

    @property
    def canary_gateway(self) -> GatewayProfile:
        """The gateway whose children canary candidate models first."""
        return self.gateways[0]

    @property
    def canary_node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.canary_gateway.child_ids))

    def validate_for(self, profiles) -> None:
        """Check the topology covers exactly the fleet's node ids."""
        fleet_ids = tuple(sorted(p.node_id for p in profiles))
        if self.node_ids != fleet_ids:
            raise ValueError(
                f"topology covers nodes {self.node_ids}, "
                f"fleet has {fleet_ids}"
            )

    def event_tier(self, config, assets):
        """The event tier ``run_fleet_event``'s engine drives for this shape."""
        # Imported here: repro.topology.event imports this package.
        from repro.topology.event import GatewayEventTier

        return GatewayEventTier(self, config, assets)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def fan_out(
        cls,
        num_nodes: int,
        fan_out: int,
        *,
        aggregation: AggregationPolicy | None = None,
        second_opinion_fraction: float = 0.0,
        per_transfer_overhead_bytes: int = 2_000,
    ) -> "Topology":
        """Group consecutive node-id blocks of size ``fan_out`` per gateway."""
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if fan_out < 1:
            raise ValueError("fan_out must be >= 1")
        gateways = tuple(
            GatewayProfile(
                gateway_id=g,
                child_ids=tuple(
                    range(g * fan_out, min((g + 1) * fan_out, num_nodes))
                ),
            )
            for g in range((num_nodes + fan_out - 1) // fan_out)
        )
        return cls(
            gateways=gateways,
            aggregation=(
                aggregation if aggregation is not None else AggregationPolicy()
            ),
            second_opinion_fraction=second_opinion_fraction,
            per_transfer_overhead_bytes=per_transfer_overhead_bytes,
        )
