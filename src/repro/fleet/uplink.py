"""Shared-uplink contention model for fleet simulation.

``comm.link.NetworkLink`` models one node alone on its radio.  A fleet
shares backhaul: when many nodes upload flagged data in the same stage the
aggregate capacity is split between them, and every transfer stretches.

Both views of that contention run on the same engine — the dynamic
max-min fluid flows of :class:`repro.events.FlowLink`:

* :meth:`SharedUplink.transfer_times` is the **lockstep** view: every
  stage's transfers start at virtual time zero on a throwaway kernel and
  the per-flow completion times come back as plain floats (the steady-
  state behavior of per-flow fair queuing at the bottleneck).
* :meth:`SharedUplink.open` is the **dynamic** view: it binds the same
  capacity to a live simulator so flows join and leave mid-transfer as
  the asynchronous fleet produces them, rates recomputed at every
  arrival/completion event.

Energy stays per-byte at each node's radio (the existing
:class:`~repro.comm.link.NetworkLink` model): contention stretches *time*,
not bytes.

:class:`DirectTier` is the lockstep stage loop's view of this backhaul:
"node upload -> Cloud arrival" and "Cloud push -> node" as two calls.
The loop is flat-only; gateways between the nodes and the backhaul are
an event-engine tier (``repro.topology.event``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.link import JPEG_IMAGE_BYTES, NetworkLink
from repro.events import FlowLink, Simulator
from repro.fleet.scheduler import PendingUpload

__all__ = [
    "DirectTier",
    "SharedUplink",
    "StageUplink",
    "Transfer",
    "model_state_bytes",
]


def model_state_bytes(state: dict[str, np.ndarray]) -> int:
    """Wire size of a model state dict (raw parameter bytes)."""
    return int(sum(v.nbytes for v in state.values()))


@dataclass(frozen=True)
class Transfer:
    """One node's transfer demand through the shared link."""

    node_id: int
    link: NetworkLink
    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")


class SharedUplink:
    """Aggregate link capacity shared by concurrent transfers.

    Parameters
    ----------
    capacity_bps:
        Bottleneck bandwidth in bits/s, shared by every concurrent flow.
        Individual flows are additionally capped by their own access
        link's bandwidth.
    """

    def __init__(self, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bps = capacity_bps

    def open(
        self, sim: Simulator, *, downlink: bool = False, metrics=None
    ) -> FlowLink:
        """Bind a dynamic-flow view of this backhaul to an event kernel.

        The asynchronous fleet opens one :class:`FlowLink` per direction
        (the backhaul is modeled symmetric, each direction at full
        capacity); per-flow caps come from each node's access link —
        ``bandwidth_bps`` upstream, ``downlink_bps`` for model pushes.
        ``metrics`` threads an optional registry into the link so flow
        counts, queue depth, and throughput are recorded per direction.
        """
        return FlowLink(
            sim,
            self.capacity_bps,
            metrics=metrics,
            name="downlink" if downlink else "uplink",
        )

    def transfer_times(self, transfers: list[Transfer]) -> list[float]:
        """Per-transfer completion times for concurrent flows.

        All transfers start at virtual time zero; each flow's finish time
        includes its own access-link latency.  Zero-byte transfers finish
        instantly and consume no capacity.  An empty transfer list is a
        legal no-op.
        """
        if not transfers:
            return []
        sim = Simulator()
        link = self.open(sim)
        events = [
            link.transfer(
                t.num_bytes,
                t.link.bandwidth_bps,
                latency_s=t.link.latency_s,
                tag=t.node_id,
            )
            for t in transfers
        ]
        sim.run()
        return [ev.value.done_s for ev in events]

    def stage_upload_times(
        self, transfers: list[Transfer]
    ) -> tuple[list[float], float]:
        """(per-node upload time, stage makespan) for one stage's uploads."""
        times = self.transfer_times(transfers)
        return times, max(times, default=0.0)

    def solo_time(self, transfer: Transfer) -> float:
        """Completion time if the transfer had the backhaul to itself."""
        if transfer.num_bytes == 0:
            return 0.0
        rate = min(transfer.link.bandwidth_bps, self.capacity_bps)
        return transfer.link.latency_s + transfer.num_bytes * 8.0 / rate

    def push_times(
        self, links: list[NetworkLink], model_bytes: int
    ) -> list[float]:
        """Concurrent model push-down to many nodes over the same backhaul.

        The downlink shares the same bottleneck capacity (symmetric
        backhaul), so a fleet-wide rollout is itself a contended event.
        """
        transfers = [
            Transfer(node_id=i, link=link, num_bytes=model_bytes)
            for i, link in enumerate(links)
        ]
        return self.transfer_times(transfers)


@dataclass
class StageUplink:
    """What :meth:`DirectTier.upload` did with one stage's node uploads.

    Per-node values are keyed by node *index*.  ``entries`` is what
    reached the Cloud this stage, in scheduler offer order.
    """

    times: dict[int, float]  # under contention
    solo_times: dict[int, float]  # same bytes, backhaul to itself
    makespan_s: float  # slowest transfer on the shared backhaul
    arrival_s: float  # virtual time the last byte reaches the Cloud
    entries: list[PendingUpload]


class DirectTier:
    """Every node talks straight to the Cloud over the shared backhaul."""

    def __init__(self, config, assets, backhaul: SharedUplink) -> None:
        self.system_id = config.system_id
        self.profiles = assets.profiles
        self.backhaul = backhaul

    def upload(self, s, nodes, uploads, counts, t0, *, tracer):
        """Ship each node's upload; all flows start at ``t0``."""
        transfers = [
            Transfer(
                node_id=self.profiles[i].node_id,
                link=self.profiles[i].link,
                num_bytes=counts[i] * JPEG_IMAGE_BYTES,
            )
            for i in nodes
        ]
        times, makespan = self.backhaul.stage_upload_times(transfers)
        for i, time_s, transfer in zip(nodes, times, transfers):
            if counts[i]:
                tracer.span(
                    "net",
                    "upload",
                    t0,
                    t0 + time_s,
                    node=transfer.node_id,
                    stage=s,
                    system=self.system_id,
                    bytes=transfer.num_bytes,
                )
        return StageUplink(
            times=dict(zip(nodes, times)),
            solo_times={
                i: self.backhaul.solo_time(t) for i, t in zip(nodes, transfers)
            },
            makespan_s=makespan,
            arrival_s=t0 + makespan,
            entries=[
                PendingUpload(s, self.profiles[i].node_id, uploads[i])
                for i in nodes
            ],
        )

    def push(self, s, nodes, push_bytes, t0, *, tracer) -> float:
        """Push each node's model bytes down; returns the slowest push."""
        tail = 0.0
        for i in nodes:
            profile = self.profiles[i]
            down = push_bytes[profile.node_id]
            push_s = profile.link.model_push_time_s(down)
            tail = max(tail, push_s)
            if down:
                tracer.span(
                    "net",
                    "push",
                    t0,
                    t0 + push_s,
                    node=profile.node_id,
                    stage=s,
                    system=self.system_id,
                    bytes=down,
                )
        return tail
