"""GPU co-running interference model (Fig. 16).

When inference and diagnosis kernels share one GPU, the hardware
time-multiplexes them: there is no spatial partitioning, so each task's
kernels wait behind the other's.  With fair scheduling over a window, a
task's effective latency scales with the total demand on the device:

    slowdown(inference) = (demand_inf + demand_diag) / demand_inf

where demand is device-seconds of work submitted per unit time.  The
diagnosis task's 9 quarter-load patches put roughly 2.25x the inference
conv work on the device, which is what drives the paper's "up to 3X"
inference slowdown.  The FPGA avoids this entirely by giving each task
dedicated engines (the co-running architectures of :mod:`repro.hw.archs`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.gpu import NUM_PATCHES, network_time
from repro.hw.specs import GPUSpec
from repro.models.layer_specs import NetworkSpec

__all__ = ["CoRunResult", "co_running_latency"]


@dataclass(frozen=True)
class CoRunResult:
    """Latencies of the co-running tasks on a shared GPU."""

    inference_solo_s: float
    inference_corun_s: float
    diagnosis_solo_s: float
    diagnosis_corun_s: float

    @property
    def inference_slowdown(self) -> float:
        return self.inference_corun_s / self.inference_solo_s


def co_running_latency(
    inference: NetworkSpec,
    diagnosis: NetworkSpec,
    gpu: GPUSpec,
    *,
    diagnosis_duty: float = 1.0,
) -> CoRunResult:
    """Latency of each task when both run on one GPU.

    ``diagnosis_duty`` in [0, 1] scales how continuously the diagnosis task
    keeps the device busy (1 = always has work queued, the worst case shown
    in Fig. 16).  Both tasks run one image per batch.  Each diagnosis
    *image* costs :data:`~repro.hw.gpu.NUM_PATCHES` trunk
    passes plus one head pass.
    """
    if not 0.0 <= diagnosis_duty <= 1.0:
        raise ValueError("diagnosis_duty must be in [0, 1]")
    inf_solo = network_time(inference, gpu, 1).total_s
    diag_timing = network_time(diagnosis, gpu, 1)
    # Conv trunk runs once per patch; the FCN head once per image.
    diag_solo = diag_timing.conv_s * NUM_PATCHES + diag_timing.fc_s

    inf_demand = inf_solo
    diag_demand = diagnosis_duty * diag_solo
    if inf_demand <= 0:
        raise ValueError("inference demand must be positive")
    inf_slow = (inf_demand + diag_demand) / inf_demand
    diag_slow = (
        (inf_demand + diag_demand) / diag_demand if diag_demand > 0 else 1.0
    )
    return CoRunResult(
        inference_solo_s=inf_solo,
        inference_corun_s=inf_solo * inf_slow,
        diagnosis_solo_s=diag_solo,
        diagnosis_corun_s=diag_solo * diag_slow,
    )
