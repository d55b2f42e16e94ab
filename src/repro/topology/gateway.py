"""Gateway-side machinery: upload aggregation and the second-opinion model.

Both pieces are engine-agnostic: the lockstep gateway tier and the event
kernel drive the same :class:`GatewayBuffer` and :class:`SecondOpinion`
objects, which is what keeps the two modes trajectory-equivalent under
``barrier=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import Dataset
from repro.hw.specs import GPUSpec
from repro.models.layer_specs import alexnet_spec
from repro.topology.model import AggregationPolicy

__all__ = [
    "BufferedUpload",
    "GatewayBuffer",
    "GatewayStageRecord",
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

    Flush order is fixed at ``(stage_index, node_id)`` so both engines
    offer the same pool to the Cloud scheduler in the same order.
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
    is a pure function of ``(seed, gateway, node, stage)``, so lockstep,
    event, and any worker count agree on the escalated subset.

    Cost is modeled, not executed: the gateway pays one forward pass per
    *offered* image on its own board, exactly like node-side inference.
    """

    def __init__(
        self, fraction: float, seed: int, device: GPUSpec
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.seed = seed
        self.device = device
        self.spec = alexnet_spec()

    def resolve(
        self, gateway_id: int, node_id: int, stage_index: int, data: Dataset
    ) -> SecondOpinionResult:
        n = len(data)
        if n == 0 or self.fraction == 0.0:
            return SecondOpinionResult(data, 0, 0.0, 0.0)
        time_s = n * self.spec.total_ops / self.device.max_ops
        energy_j = time_s * self.device.peak_power_w
        k = int(self.fraction * n)
        if k == 0:
            return SecondOpinionResult(data, 0, time_s, energy_j)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (self.seed, gateway_id, node_id, stage_index)
            )
        )
        resolved = rng.choice(n, size=k, replace=False)
        keep = np.setdiff1d(np.arange(n), resolved)
        return SecondOpinionResult(
            escalated=data.subset(keep),
            resolved_images=k,
            time_s=time_s,
            energy_j=energy_j,
        )


@dataclass(frozen=True)
class GatewayStageRecord:
    """One gateway's view of one stage (lockstep) or round (event)."""

    stage_index: int
    gateway_id: int
    offered_images: int  # arrived from children this stage
    resolved_images: int  # settled by the second-opinion model
    flushed_images: int  # left for the Cloud this stage
    flushed_bytes: int  # image payload + framing overhead
    overhead_bytes: int
    buffered_images: int  # still parked after this stage
    flushed: bool
    wan_time_s: float = 0.0
    wan_energy_j: float = 0.0
    second_opinion_time_s: float = 0.0
    second_opinion_energy_j: float = 0.0
