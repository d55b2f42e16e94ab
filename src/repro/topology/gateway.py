"""Gateway-side pieces: upload aggregation and the second-opinion model.

Nothing here moves bytes through time.  The event gateway tier
(:class:`repro.topology.event.GatewayEventTier`) holds one
:class:`GatewayBuffer` per gateway and one :class:`SecondOpinion`, and
decides when each runs, in its barrier and its async mode alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import Dataset
from repro.hw.specs import TX1
from repro.models.layer_specs import alexnet_spec
from repro.topology.model import AggregationPolicy

__all__ = [
    "BufferedUpload",
    "GatewayBuffer",
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

        The size threshold fires at *exactly* ``flush_images``, not only
        above it, so ``flush_images=1`` flushes every non-empty buffer
        immediately (one WAN transfer per upload — the unamortized
        baseline).
        """
        if not self.entries:
            return False
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
