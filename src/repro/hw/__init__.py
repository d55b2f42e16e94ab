"""Hardware substrate: analytical GPU/FPGA models and co-running
architectures for the In-situ AI node."""

from repro.hw.archs import (
    NUM_DIAGNOSIS_ENGINES,
    ConvRuntime,
    CoRunningArch,
    NWSArch,
    WSArch,
    WSSArch,
)
from repro.hw.energy import TrainingCostModel
from repro.hw.engines import PEArrayEngine, TmTnEngine, square_factors
from repro.hw.eventsim import ImageTrace, PipelineSimResult, simulate_pipeline
from repro.hw.gpusim import CoRunSimResult, simulate_corun
from repro.hw.interference import CoRunResult, co_running_latency
from repro.hw.pipeline import (
    ARCH_FACTORIES,
    PipelineDesign,
    PipelineTiming,
    best_design,
    pipeline_timing,
)
from repro.hw.sim import MeasuredGPU
from repro.hw.specs import TITAN_X, TX1, VX690T, FPGASpec, GPUSpec

__all__ = [
    "ARCH_FACTORIES",
    "CoRunResult",
    "CoRunSimResult",
    "CoRunningArch",
    "ConvRuntime",
    "FPGASpec",
    "GPUSpec",
    "ImageTrace",
    "MeasuredGPU",
    "PipelineSimResult",
    "NUM_DIAGNOSIS_ENGINES",
    "NWSArch",
    "PEArrayEngine",
    "PipelineDesign",
    "PipelineTiming",
    "TITAN_X",
    "TX1",
    "TmTnEngine",
    "TrainingCostModel",
    "VX690T",
    "WSArch",
    "WSSArch",
    "best_design",
    "co_running_latency",
    "pipeline_timing",
    "simulate_corun",
    "simulate_pipeline",
    "square_factors",
]
