"""Gateway-side machinery: upload aggregation and the second-opinion model.

Everything here decides; nothing moves bytes through time.  The event
gateway tier (:mod:`repro.topology.event`) drives these
:class:`GatewayBuffer` and :class:`SecondOpinion` objects through one
:class:`GatewayPolicy`, in its barrier and its async mode alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.link import JPEG_IMAGE_BYTES, NetworkLink
from repro.data.datasets import Dataset
from repro.hw.specs import TX1
from repro.models.layer_specs import alexnet_spec
from repro.topology.model import AggregationPolicy

__all__ = [
    "BufferedUpload",
    "GatewayBuffer",
    "GatewayPolicy",
    "SecondOpinion",
    "SecondOpinionResult",
]


@dataclass(frozen=True)
class BufferedUpload:
    """One node's (possibly second-opinion-filtered) upload, parked at
    its gateway awaiting the next WAN flush."""

    stage_index: int
    node_id: int
    data: Dataset


@dataclass
class GatewayBuffer:
    """Holds children's uploads until the aggregation policy flushes them.

    Flush order is fixed at ``(stage_index, node_id)`` so the Cloud
    scheduler is offered the pool in the flat fleet's node order.
    """

    policy: AggregationPolicy
    entries: list[BufferedUpload] = field(default_factory=list)

    def offer(self, stage_index: int, node_id: int, data: Dataset) -> None:
        """Park one child's upload; empty uploads are dropped."""
        if len(data):
            self.entries.append(BufferedUpload(stage_index, node_id, data))

    @property
    def buffered_images(self) -> int:
        return sum(len(e.data) for e in self.entries)

    @property
    def oldest_stage(self) -> int | None:
        if not self.entries:
            return None
        return min(e.stage_index for e in self.entries)

    def should_flush(self, current_stage: int) -> bool:
        """Does the policy fire at this stage boundary?

        With aggregation disabled every non-empty buffer flushes
        immediately (one WAN transfer per upload — the unamortized
        baseline).  The size threshold fires at *exactly*
        ``flush_images``, not only above it.
        """
        if not self.entries:
            return False
        if not self.policy.enabled:
            return True
        if self.buffered_images >= self.policy.flush_images:
            return True
        return (
            current_stage - self.oldest_stage >= self.policy.max_age_stages
        )

    def flush(self) -> list[BufferedUpload]:
        """Pop everything, ordered by ``(stage_index, node_id)``.

        Flushing an empty buffer (the horizon force-flush on an idle
        gateway) is a no-op returning ``[]`` — no WAN transfer happens.
        """
        entries = sorted(
            self.entries, key=lambda e: (e.stage_index, e.node_id)
        )
        self.entries.clear()
        return entries


@dataclass(frozen=True)
class SecondOpinionResult:
    """Outcome of one gateway second-opinion pass over one upload."""

    escalated: Dataset  # what still travels to the Cloud
    resolved_images: int  # handled locally at the gateway
    time_s: float  # modeled gateway inference time
    energy_j: float  # modeled gateway energy


class SecondOpinion:
    """Mid-size classifier at the gateway that settles some flagged inputs.

    A configurable fraction of each flagged upload is resolved locally
    (the gateway's model is confident enough to answer without the
    Cloud); only the remainder escalates upstream.  Which images resolve
    is a pure function of ``(gateway, node, stage)``, so the
    escalated subset never depends on when the upload arrived.

    Cost is modeled, not executed: the gateway pays one forward pass per
    *offered* image on its own board (a full-clock TX1), exactly like
    node-side inference.
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.spec = alexnet_spec()

    def resolve(
        self, gateway_id: int, node_id: int, stage_index: int, data: Dataset
    ) -> SecondOpinionResult:
        n = len(data)
        if n == 0 or self.fraction == 0.0:
            return SecondOpinionResult(data, 0, 0.0, 0.0)
        time_s = n * self.spec.total_ops / TX1.max_ops
        energy_j = time_s * TX1.peak_power_w
        k = int(self.fraction * n)
        if k == 0:
            return SecondOpinionResult(data, 0, time_s, energy_j)
        rng = np.random.default_rng(
            np.random.SeedSequence((0, gateway_id, node_id, stage_index))
        )
        resolved = rng.choice(n, size=k, replace=False)
        keep = np.setdiff1d(np.arange(n), resolved)
        return SecondOpinionResult(
            escalated=data.subset(keep),
            resolved_images=k,
            time_s=time_s,
            energy_j=energy_j,
        )


class GatewayPolicy:
    """Every decision the gateway tier makes.

    The event tier only moves bytes through time (timeouts and flows);
    who sits under which gateway, when the second opinion runs, when a
    buffer leaves for the Cloud and what the WAN frame weighs are
    decided here, once.
    """

    def __init__(self, topology, config, assets) -> None:
        self.topology = topology
        self.uploads_everything = config.uploads_everything
        self.profiles = assets.profiles
        #: rollouts canary regionally, on the canary gateway's children
        self.canary_ids = topology.canary_node_ids
        self.gateways = topology.gateways
        self.gateway_of = {
            p.node_id: topology.gateway_of(p.node_id) for p in self.profiles
        }
        self.buffers = {
            g.gateway_id: GatewayBuffer(policy=topology.aggregation)
            for g in self.gateways
        }
        self.opinions = {
            g.gateway_id: SecondOpinion(topology.second_opinion_fraction)
            for g in self.gateways
        }

    def node_link(self, i: int) -> NetworkLink:
        """The local hop node ``i``'s radio pays for."""
        return self.gateway_of[self.profiles[i].node_id].local_link

    def second_opinion(
        self, gateway_id: int, node_id: int, stage: int, data: Dataset
    ) -> SecondOpinionResult:
        """Run the gateway model over one upload, when it applies.

        Stage 0 is the initialization upload and systems that upload
        everything have no flagged subset to settle.  Seeded per
        ``(gateway, node, stage)``, so barrier and async runs escalate
        the same images.
        """
        if (
            stage == 0
            or self.uploads_everything
            or self.topology.second_opinion_fraction == 0.0
            or not len(data)
        ):
            return SecondOpinionResult(data, 0, 0.0, 0.0)
        return self.opinions[gateway_id].resolve(
            gateway_id, node_id, stage, data
        )

    def flush(
        self, gateway_id: int, stage: int, *, final: bool
    ) -> list[BufferedUpload]:
        """What leaves this gateway for the Cloud at ``stage``, if anything.

        Stage 0 forces a flush, so the Cloud always initializes from the
        full stage-0 pool; so does the ``final`` stage of a run with a
        known end, so no data is stranded.  Otherwise the aggregation
        policy decides.  ``[]`` means nothing crosses the WAN.
        """
        buffer = self.buffers[gateway_id]
        if stage == 0 or final or buffer.should_flush(stage):
            return buffer.flush()
        return []

    def wan_payload(self, entries: list[BufferedUpload]) -> tuple[int, int]:
        """``(images, framed bytes)`` of one flushed buffer on the WAN."""
        images = sum(len(e.data) for e in entries)
        return (
            images,
            images * JPEG_IMAGE_BYTES
            + self.topology.per_transfer_overhead_bytes,
        )
