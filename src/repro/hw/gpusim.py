"""Kernel-queue simulation of GPU co-running (validates Fig. 16's model).

The closed-form interference model in :mod:`repro.hw.interference` assumes
fair time-sharing over a window.  This simulator plays the mechanism out:
each task submits its layers as kernels into a queue, the device executes
kernels one at a time (GPUs do not preempt running kernels), and a
round-robin scheduler alternates between the tasks' queues.  Inference
latency is measured from submission of an image's first kernel to
completion of its last — including all the diagnosis kernels interleaved in
between.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.gpu import NUM_PATCHES, layer_time
from repro.hw.specs import GPUSpec
from repro.models.layer_specs import NetworkSpec

__all__ = ["CoRunSimResult", "simulate_corun"]

#: inference images whose latency a co-run averages
NUM_IMAGES = 20


@dataclass(frozen=True)
class CoRunSimResult:
    """Measured latencies from the kernel-interleaving simulation."""

    inference_solo_s: float
    inference_corun_s: float  # mean per-image latency while co-running
    diagnosis_image_s: float  # device time of one full diagnosis image

    @property
    def inference_slowdown(self) -> float:
        return self.inference_corun_s / self.inference_solo_s


def _kernel_times(
    network: NetworkSpec, gpu: GPUSpec, batch: int
) -> list[float]:
    return [layer_time(spec, gpu, batch) for spec in network.layers]


def simulate_corun(
    inference: NetworkSpec,
    diagnosis: NetworkSpec,
    gpu: GPUSpec,
    *,
    diagnosis_batch: int,
) -> CoRunSimResult:
    """Interleave inference and diagnosis kernels round-robin.

    Both tasks are backlogged (always have the next kernel ready), matching
    the diagnosis_duty=1 worst case of the analytical model.  Inference
    runs one image per batch.  Returns mean inference-image latency with
    and without the co-runner.
    """
    inf_kernels = _kernel_times(inference, gpu, 1)
    # One diagnosis image = conv trunk once per patch + the FCN head once.
    diag_kernels = [
        t
        for _ in range(NUM_PATCHES)
        for t in _kernel_times(
            NetworkSpec(diagnosis.name, diagnosis.conv_layers),
            gpu,
            diagnosis_batch,
        )
    ] + _kernel_times(
        NetworkSpec(diagnosis.name, diagnosis.fc_layers), gpu, diagnosis_batch
    )

    solo = sum(inf_kernels)

    clock = 0.0
    inf_idx = 0  # next inference kernel within the current image
    diag_idx = 0
    image_start = 0.0
    latencies: list[float] = []
    turn_inference = True
    while len(latencies) < NUM_IMAGES:
        if turn_inference:
            if inf_idx == 0:
                image_start = clock
            clock += inf_kernels[inf_idx]
            inf_idx += 1
            if inf_idx == len(inf_kernels):
                latencies.append(clock - image_start)
                inf_idx = 0
        else:
            clock += diag_kernels[diag_idx]
            diag_idx = (diag_idx + 1) % len(diag_kernels)
        turn_inference = not turn_inference

    return CoRunSimResult(
        inference_solo_s=solo,
        inference_corun_s=sum(latencies) / len(latencies),
        diagnosis_image_s=sum(diag_kernels) / diagnosis_batch,
    )
