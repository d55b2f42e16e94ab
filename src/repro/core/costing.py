"""Node cost model for Single-running mode.

The :class:`~repro.core.node.InSituNode` separates *decisions* (made by the
trainable IoT-scale networks) from *costs* (time and energy of running the
full-size networks on the node device).  :class:`GPUSingleRunningCost` maps
image counts to modeled (seconds, joules) pairs for each task on the TX1 in
Single-running mode: tasks time-share the device at their planner-chosen
batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.gpu import NUM_PATCHES, network_time
from repro.hw.specs import GPUSpec
from repro.models.layer_specs import NetworkSpec

__all__ = ["TaskCost", "GPUSingleRunningCost"]


@dataclass(frozen=True)
class TaskCost:
    """Modeled cost of running one task over some images."""

    seconds: float
    joules: float


class GPUSingleRunningCost:
    """Single-running mode costing on a mobile GPU."""

    def __init__(
        self,
        inference_spec: NetworkSpec,
        diagnosis_spec: NetworkSpec,
        gpu: GPUSpec,
        *,
        inference_batch: int = 4,
        diagnosis_batch: int = 32,
    ) -> None:
        self.inference_spec = inference_spec
        self.diagnosis_spec = diagnosis_spec
        self.gpu = gpu
        self.inference_batch = inference_batch
        self.diagnosis_batch = diagnosis_batch

    def inference_cost(self, images: int) -> TaskCost:
        if images < 0:
            raise ValueError("images must be >= 0")
        timing = network_time(self.inference_spec, self.gpu, self.inference_batch)
        batches = -(-images // self.inference_batch) if images else 0
        busy = batches * timing.total_s
        return TaskCost(busy, busy * self.gpu.power(timing.mean_utilization))

    def diagnosis_cost(self, images: int) -> TaskCost:
        if images < 0:
            raise ValueError("images must be >= 0")
        if images == 0:
            return TaskCost(0.0, 0.0)
        timing = network_time(self.diagnosis_spec, self.gpu, self.diagnosis_batch)
        per_image = (
            timing.conv_s * NUM_PATCHES + timing.fc_s
        ) / self.diagnosis_batch
        busy = per_image * images
        return TaskCost(busy, busy * self.gpu.power(timing.mean_utilization))
