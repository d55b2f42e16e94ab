"""Cloud training time and energy from op counts.

The paper's end-to-end claims (Fig. 25, Table II) charge the Cloud for its
training energy in Titan X device-seconds; node compute is costed in
:mod:`repro.core.costing` and transfer energy in :mod:`repro.comm`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.specs import GPUSpec

__all__ = ["TrainingCostModel"]

#: sustained fraction of the training GPU's peak (training kernels on
#: Maxwell-class hardware typically reach ~50%)
TRAINING_EFFICIENCY = 0.5


@dataclass(frozen=True)
class TrainingCostModel:
    """Cloud training time and energy from op counts.

    Training one image for one epoch costs roughly 3x the inference ops
    (forward + input-gradient + weight-gradient passes); layers below a
    frozen prefix cost only the forward pass, and with feature caching the
    prefix runs once per image instead of once per epoch.

    The workload sustains :data:`TRAINING_EFFICIENCY` of the training
    GPU's peak.
    """

    device: GPUSpec

    @property
    def sustained_ops(self) -> float:
        return self.device.max_ops * TRAINING_EFFICIENCY

    def training_time_s(
        self,
        *,
        images: int,
        epochs: int,
        forward_ops: float,
        trainable_forward_ops: float | None = None,
    ) -> float:
        """Seconds to fine-tune on ``images`` for ``epochs``.

        ``forward_ops`` is the full network's per-image forward op count;
        ``trainable_forward_ops`` the portion belonging to trainable layers
        (defaults to the whole network).  Frozen-prefix features are
        computed once per image, trainable layers run 3x per epoch.
        """
        if images < 0 or epochs < 0:
            raise ValueError("images and epochs must be >= 0")
        if forward_ops < 0:
            raise ValueError("forward_ops must be >= 0")
        trainable = (
            forward_ops if trainable_forward_ops is None else trainable_forward_ops
        )
        if trainable > forward_ops:
            raise ValueError("trainable ops cannot exceed total forward ops")
        frozen = forward_ops - trainable
        total_ops = images * (frozen + 3.0 * trainable * epochs)
        return total_ops / self.sustained_ops

    def training_energy_j(self, training_time_s: float) -> float:
        if training_time_s < 0:
            raise ValueError("training time must be >= 0")
        return self.device.power(TRAINING_EFFICIENCY) * training_time_s
