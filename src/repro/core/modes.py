"""Working-mode planners (Section IV-B).

Two deployment modes for the In-situ AI node:

* **Single-running** (GPU, e.g. the camera only runs in daytime): inference
  and diagnosis time-share the TX1.  The planner picks the inference batch
  size with the analytical time model (max batch under the latency
  requirement, Eqs. 5-8 — maximizing energy efficiency) and the diagnosis
  batch size with the memory resource model (Eq. 9).
* **Co-running** (FPGA, 24/7 inference): both tasks run simultaneously on
  the VX690T using the WSS-NWS pipeline; the planner solves Eq. (13)/(14)
  for the throughput-maximal batch size and DSP split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.gpu import max_batch_under_memory, network_time, perf_per_watt
from repro.hw.pipeline import PipelineTiming, best_design
from repro.hw.specs import FPGASpec, GPUSpec
from repro.models.layer_specs import NetworkSpec

__all__ = [
    "SingleRunningConfig",
    "SingleRunningPlanner",
    "CoRunningPlanner",
    "select_mode",
]


def select_mode(inference_always_on: bool) -> str:
    """Pick the working mode from the deployment requirement.

    The characterization (Section IV-A2) concluded: GPU wins on energy
    efficiency when tasks can time-share (Single-running); FPGA wins when
    they must co-run, because GPU co-running interference inflates
    inference latency up to 3X.
    """
    return "co-running" if inference_always_on else "single-running"


@dataclass(frozen=True)
class SingleRunningConfig:
    """Planner output for the Single-running mode."""

    inference_batch: int
    inference_latency_s: float
    inference_perf_per_watt: float
    diagnosis_batch: int


class SingleRunningPlanner:
    """Analytical-model-guided configuration for the GPU node."""

    def __init__(self, gpu: GPUSpec) -> None:
        self.gpu = gpu

    def inference_batch(
        self,
        network: NetworkSpec,
        *,
        latency_requirement_s: float,
    ) -> int:
        """Largest batch whose modeled latency meets the requirement.

        Energy efficiency improves monotonically with batch size in the
        model (Fig. 11), so the optimum is the largest feasible batch, up
        to 256.
        """
        if latency_requirement_s <= 0:
            raise ValueError("latency requirement must be positive")
        best = 0
        for batch in range(1, 257):
            if network_time(network, self.gpu, batch).total_s > latency_requirement_s:
                break
            best = batch
        if best == 0:
            raise ValueError(
                f"{network.name} cannot meet "
                f"{latency_requirement_s * 1e3:.1f} ms on {self.gpu.name}"
            )
        return best

    def diagnosis_batch(self, network: NetworkSpec) -> int:
        """Largest diagnosis batch that fits in device memory (Eq. 9)."""
        return max_batch_under_memory(network, self.gpu)

    def plan(
        self,
        inference: NetworkSpec,
        diagnosis: NetworkSpec,
        *,
        latency_requirement_s: float,
    ) -> SingleRunningConfig:
        batch = self.inference_batch(
            inference, latency_requirement_s=latency_requirement_s
        )
        return SingleRunningConfig(
            inference_batch=batch,
            inference_latency_s=network_time(
                inference, self.gpu, batch
            ).total_s,
            inference_perf_per_watt=perf_per_watt(inference, self.gpu, batch),
            diagnosis_batch=self.diagnosis_batch(diagnosis),
        )


class CoRunningPlanner:
    """Analytical-model-guided configuration for the FPGA node."""

    #: the paper's co-running architecture (WSS conv, non-weight-shared FCN)
    ARCH_NAME = "WSS-NWS"

    def __init__(self, fpga: FPGASpec) -> None:
        self.fpga = fpga

    def plan(
        self,
        inference: NetworkSpec,
        diagnosis: NetworkSpec,
        *,
        latency_requirement_s: float,
    ) -> PipelineTiming:
        """Best pipeline design under the user latency requirement (Eq. 14)."""
        timing = best_design(
            self.ARCH_NAME,
            inference,
            diagnosis,
            self.fpga,
            latency_requirement_s=latency_requirement_s,
        )
        if timing is None:
            raise ValueError(
                f"{self.ARCH_NAME} cannot meet "
                f"{latency_requirement_s * 1e3:.1f} ms on {self.fpga.name}"
            )
        return timing
