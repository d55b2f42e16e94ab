"""WSS->NWS pipeline model (Fig. 19-20, Eqs. 10, 13, 14) and the
throughput-vs-latency search of Fig. 23.

The overall In-situ AI architecture is a two-stage pipeline: a conv stage
(WSS Group, or a baseline co-running architecture) and an FCN stage (a
Tm/Tn NWS unit, optionally with the Fig. 13 batch loop).  FCN batching only
pays off when the stage processes ``Bsize`` images at once, so the conv
stage runs ``Bsize`` images back-to-back per pipeline round and the total
latency is Eq. (13):

    T = 2 * max(T_conv_all * Bsize, T_fcn_all(Bsize))

Given an end-user latency requirement (Eq. 14), the planner searches the
DSP split between stages and the batch size for the maximum throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.archs import CoRunningArch, NWSArch, WSArch, WSSArch
from repro.hw.engines import TmTnEngine
from repro.hw.fpga import fc_layer_time
from repro.hw.specs import FPGASpec
from repro.models.layer_specs import NetworkSpec

__all__ = [
    "PipelineDesign",
    "PipelineTiming",
    "pipeline_timing",
    "best_design",
    "ARCH_FACTORIES",
]

#: fraction of the DSP budget tried for the conv stage during the search
_CONV_SPLITS = (0.5, 0.6, 0.7, 0.8, 0.9)

#: architecture name -> (conv-arch factory, FCN batch loop enabled)
ARCH_FACTORIES = {
    "NWS": (NWSArch, False),
    "NWS-batch": (NWSArch, True),
    "WS": (WSArch, True),
    "WSS-NWS": (WSSArch, True),
}


@dataclass(frozen=True)
class PipelineDesign:
    """A concrete two-stage design: conv architecture + FCN engine + batch.

    The diagnosis task is latency-insensitive (Section III-C2), so its
    head is scheduled into pipeline slack and only the inference FCN
    layers gate the latency/throughput of the design.
    """

    arch_name: str
    conv_arch: CoRunningArch
    fcn_engine: TmTnEngine
    batch_size: int
    fcn_batch_optimized: bool

    @property
    def dsp_used(self) -> int:
        """Eq. (10) left-hand side."""
        return self.conv_arch.pe_count + self.fcn_engine.pe_count


@dataclass(frozen=True)
class PipelineTiming:
    """Evaluated timing of one pipeline design."""

    design: PipelineDesign
    conv_stage_s: float  # conv time for Bsize images (T_All_CONV * Bsize)
    fcn_stage_s: float  # FCN time for the batch (T_All_FCN)

    @property
    def period_s(self) -> float:
        """Pipeline initiation interval for one batch."""
        return max(self.conv_stage_s, self.fcn_stage_s)

    @property
    def latency_s(self) -> float:
        """Eq. (13): two pipeline stages deep."""
        return 2.0 * self.period_s

    @property
    def throughput_ips(self) -> float:
        return self.design.batch_size / self.period_s

    def diagnosis_fcn_sustainable(
        self,
        diagnosis: NetworkSpec,
        fpga: FPGASpec,
    ) -> bool:
        """Whether the deferred diagnosis head fits in pipeline slack.

        The diagnosis FCN is kept off the critical path: it runs in
        the FCN stage's idle time (``period - fcn_stage``).  Returns True
        when one round's slack covers the batch's diagnosis-head work, so
        diagnosis keeps up with acquisition indefinitely.
        """
        slack = self.period_s - self.fcn_stage_s
        diag_fcn = sum(
            fc_layer_time(
                spec,
                self.design.fcn_engine,
                fpga,
                self.design.batch_size,
                batch_optimized=self.design.fcn_batch_optimized,
            )
            for spec in diagnosis.fc_layers
        )
        return diag_fcn <= slack + 1e-12


def pipeline_timing(
    design: PipelineDesign,
    inference: NetworkSpec,
    diagnosis: NetworkSpec,
    fpga: FPGASpec,
) -> PipelineTiming:
    """Evaluate Eq. (13) for a design.

    The conv stage processes both tasks' conv stacks per image; the FCN
    stage serves both tasks' FCN layers for the whole batch (the NWS unit
    of Fig. 19 chooses inputs from the inference and diagnosis buffers).
    """
    conv_rt = design.conv_arch.conv_runtime(inference, diagnosis, fpga)
    conv_stage = conv_rt.total_s * design.batch_size
    fcn_stage = 0.0
    for spec in inference.fc_layers:
        fcn_stage += fc_layer_time(
            spec,
            design.fcn_engine,
            fpga,
            design.batch_size,
            batch_optimized=design.fcn_batch_optimized,
        )
    return PipelineTiming(
        design=design, conv_stage_s=conv_stage, fcn_stage_s=fcn_stage
    )


def _designs_for(
    arch_name: str,
    inference: NetworkSpec,
    fpga: FPGASpec,
    batch_size: int,
):
    """Yield candidate designs across DSP splits for one architecture."""
    factory, batch_opt = ARCH_FACTORIES[arch_name]
    for split in _CONV_SPLITS:
        conv_budget = int(fpga.dsp_slices * split)
        fcn_budget = fpga.dsp_slices - conv_budget
        try:
            conv_arch = factory(conv_budget, shape_for=inference.conv_layers)
        except ValueError:
            continue
        fcn_engine = TmTnEngine.best_for(inference.fc_layers, fcn_budget)
        design = PipelineDesign(
            arch_name=arch_name,
            conv_arch=conv_arch,
            fcn_engine=fcn_engine,
            batch_size=batch_size,
            fcn_batch_optimized=batch_opt,
        )
        if design.dsp_used <= fpga.dsp_slices:
            yield design


def best_design(
    arch_name: str,
    inference: NetworkSpec,
    diagnosis: NetworkSpec,
    fpga: FPGASpec,
    *,
    latency_requirement_s: float,
    max_batch: int = 128,
) -> PipelineTiming | None:
    """Maximum-throughput design meeting Eq. (14), or None if impossible.

    Searches batch sizes 1..max_batch (powers of two plus neighbors) and
    the DSP split between stages.
    """
    if arch_name not in ARCH_FACTORIES:
        raise KeyError(
            f"unknown architecture {arch_name!r}; "
            f"available: {sorted(ARCH_FACTORIES)}"
        )
    if latency_requirement_s <= 0:
        raise ValueError("latency requirement must be positive")
    candidates = sorted(
        {
            b
            for b in [2**i for i in range(int(math.log2(max_batch)) + 1)]
            + [3, 6, 12, 24, 48, 96]
            if 1 <= b <= max_batch
        }
    )
    best: PipelineTiming | None = None
    for batch_size in candidates:
        for design in _designs_for(arch_name, inference, fpga, batch_size):
            timing = pipeline_timing(design, inference, diagnosis, fpga)
            if timing.latency_s > latency_requirement_s:
                continue
            if best is None or timing.throughput_ips > best.throughput_ips:
                best = timing
    return best
