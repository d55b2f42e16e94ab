"""Cloud training time and energy from op counts.

The paper's end-to-end claims (Fig. 25, Table II) charge the Cloud for its
training energy in Titan X device-seconds; node compute is costed in
:mod:`repro.core.costing` and transfer energy in :mod:`repro.comm`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.specs import GPUSpec

__all__ = ["TrainingCostModel"]


@dataclass(frozen=True)
class TrainingCostModel:
    """Cloud training time and energy from op counts.

    Training one image for one epoch costs roughly 3x the inference ops
    (forward + input-gradient + weight-gradient passes); layers below a
    frozen prefix cost only the forward pass, and with feature caching the
    prefix runs once per image instead of once per epoch.

    ``efficiency`` is the sustained fraction of the training GPU's peak the
    workload achieves (training kernels on Maxwell-class hardware typically
    reach ~50%).
    """

    device: GPUSpec
    efficiency: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def sustained_ops(self) -> float:
        return self.device.max_ops * self.efficiency

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
        return self.device.power(self.efficiency) * training_time_s
