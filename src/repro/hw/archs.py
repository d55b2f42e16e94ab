"""Co-running CONV architectures: NWS, WS, and the paper's two-level
weight-shared WSS (Section IV-B2, Figs. 17-18, evaluated in Fig. 22).

All three are modeled at the same total PE (DSP) budget and process the
inference task's conv stack together with the diagnosis task's 9 patch
stacks, layer by layer: weights for a layer are loaded from off-chip first,
then the layer computes (the protocol of the Fig. 22 experiment).

* **NWS** (no weight sharing): one large Tm/Tn engine time-multiplexes the
  two tasks; each task's pass fetches its own copy of the layer weights
  (even for layers whose weights are logically identical).
* **WS** (Fig. 17): ten uniform Tm/Tn engines — one for inference, one per
  diagnosis patch — running concurrently, each fed by a dedicated or shared
  weight source.  Uniform unrolling leaves the diagnosis engines idle ~75%
  of cycles, because the inference task carries ~4x the per-patch load.
* **WSS** (Fig. 18): output-neuron-unrolled PE-array engines sized
  proportionally to load — a ``Tr x Tc`` inference engine plus nine
  ``Tr/2 x Tc/2`` patch engines — replicated ``group_size`` times to
  generate multiple output maps in parallel.  Weight sharing happens at two
  levels: across engines (shared layers fetched once for both tasks) and
  inside each engine (one weight broadcast to every PE per cycle).

Weight-traffic model per layer:

=============  ======================  =====================
architecture   shared layer            unshared layer
=============  ======================  =====================
NWS            2x fetch (both passes)  2x fetch
WS / WSS       1x fetch                2x fetch (IW + DW)
=============  ======================  =====================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.engines import PEArrayEngine, TmTnEngine, square_factors
from repro.hw.specs import FPGASpec
from repro.models.layer_specs import LayerSpec, NetworkSpec

__all__ = [
    "ConvRuntime",
    "CoRunningArch",
    "NWSArch",
    "WSArch",
    "WSSArch",
    "NUM_DIAGNOSIS_ENGINES",
]

#: one engine per jigsaw patch
NUM_DIAGNOSIS_ENGINES = 9

#: side of the WSS inference engine's square PE array (even: each
#: diagnosis engine is half of it on a side)
INFERENCE_TILE = 14

#: inference engine PE share vs one diagnosis engine (4:1 load ratio)
_INFERENCE_SHARE = 4


@dataclass(frozen=True)
class ConvRuntime:
    """Timing of a full conv stack on a co-running architecture."""

    compute_s: float
    weight_access_s: float
    #: average fraction of idle PE-cycles in the diagnosis engines
    diagnosis_idle_fraction: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.weight_access_s


def _check_paired(inference: NetworkSpec, diagnosis: NetworkSpec) -> None:
    if len(inference.conv_layers) != len(diagnosis.conv_layers):
        raise ValueError(
            "inference and diagnosis conv stacks must have equal depth"
        )
    for inf, diag in zip(inference.conv_layers, diagnosis.conv_layers):
        if (inf.out_maps, inf.in_maps, inf.kernel) != (
            diag.out_maps,
            diag.in_maps,
            diag.kernel,
        ):
            raise ValueError(
                f"layer {inf.name}: filter shapes differ between tasks"
            )


def _weight_access_s(
    inference: NetworkSpec,
    shared_depth: int,
    fpga: FPGASpec,
    *,
    always_double: bool,
) -> float:
    """Off-chip weight-fetch time for the conv stack."""
    total_bytes = 0
    for i, layer in enumerate(inference.conv_layers):
        shared = (not always_double) and i < shared_depth
        total_bytes += layer.weight_bytes * (1 if shared else 2)
    return total_bytes / fpga.mem_bandwidth_bps


class CoRunningArch:
    """Common interface of the three co-running conv architectures."""

    name: str

    @property
    def pe_count(self) -> int:
        raise NotImplementedError

    def conv_runtime(
        self,
        inference: NetworkSpec,
        diagnosis: NetworkSpec,
        fpga: FPGASpec,
        *,
        shared_depth: int = 3,
    ) -> ConvRuntime:
        raise NotImplementedError


class NWSArch(CoRunningArch):
    """One big Tm/Tn engine time-multiplexing both tasks, no sharing."""

    name = "NWS"

    def __init__(
        self,
        pe_budget: int,
        *,
        shape_for: tuple[LayerSpec, ...] | None = None,
    ) -> None:
        self.engine = (
            TmTnEngine.best_for(shape_for, pe_budget)
            if shape_for
            else TmTnEngine.from_budget(pe_budget)
        )

    @property
    def pe_count(self) -> int:
        return self.engine.pe_count

    def conv_runtime(
        self,
        inference: NetworkSpec,
        diagnosis: NetworkSpec,
        fpga: FPGASpec,
        *,
        shared_depth: int = 3,
    ) -> ConvRuntime:
        _check_paired(inference, diagnosis)
        cycles = 0
        for inf, diag in zip(inference.conv_layers, diagnosis.conv_layers):
            cycles += self.engine.conv_cycles(inf)
            # 9 patches processed back-to-back after the inference pass.
            cycles += NUM_DIAGNOSIS_ENGINES * self.engine.conv_cycles(diag)
        return ConvRuntime(
            compute_s=cycles / fpga.frequency_hz,
            weight_access_s=_weight_access_s(
                inference, shared_depth, fpga, always_double=True
            ),
            diagnosis_idle_fraction=0.0,  # time-multiplexed, never co-idle
        )


class WSArch(CoRunningArch):
    """Ten uniform engines with a shared weight source (Fig. 17)."""

    name = "WS"

    def __init__(
        self,
        pe_budget: int,
        *,
        shape_for: tuple[LayerSpec, ...] | None = None,
    ) -> None:
        per_engine = pe_budget // (1 + NUM_DIAGNOSIS_ENGINES)
        if per_engine < 1:
            raise ValueError("PE budget too small for 10 engines")
        self.engine = (
            TmTnEngine.best_for(shape_for, per_engine)
            if shape_for
            else TmTnEngine.from_budget(per_engine)
        )

    @property
    def pe_count(self) -> int:
        return self.engine.pe_count * (1 + NUM_DIAGNOSIS_ENGINES)

    def conv_runtime(
        self,
        inference: NetworkSpec,
        diagnosis: NetworkSpec,
        fpga: FPGASpec,
        *,
        shared_depth: int = 3,
    ) -> ConvRuntime:
        _check_paired(inference, diagnosis)
        cycles = 0
        idle_weighted = 0.0
        for inf, diag in zip(inference.conv_layers, diagnosis.conv_layers):
            inf_cycles = self.engine.conv_cycles(inf)
            diag_cycles = self.engine.conv_cycles(diag)
            # Engines run concurrently; the layer takes the slower task.
            layer_cycles = max(inf_cycles, diag_cycles)
            cycles += layer_cycles
            idle_weighted += layer_cycles * (1.0 - diag_cycles / layer_cycles)
        return ConvRuntime(
            compute_s=cycles / fpga.frequency_hz,
            weight_access_s=_weight_access_s(
                inference, shared_depth, fpga, always_double=False
            ),
            diagnosis_idle_fraction=idle_weighted / cycles,
        )


class WSSArch(CoRunningArch):
    """Two-level weight-shared architecture (Fig. 18).

    Engine sizes are proportional to task load: the inference engine gets
    4 PE shares, each of the nine diagnosis engines 1 share, and the whole
    13-share unit is replicated ``group_size`` times (the WSS Group of
    Fig. 19) to produce ``group_size`` output maps in parallel.
    """

    name = "WSS"

    def __init__(
        self,
        pe_budget: int,
        *,
        shape_for: tuple[LayerSpec, ...] | None = None,
    ) -> None:
        del shape_for  # PE-array geometry is load-proportional, not layer-tuned
        self.inference_engine = PEArrayEngine(INFERENCE_TILE, INFERENCE_TILE)
        # Each diagnosis engine is half the inference tile on a side.
        half = INFERENCE_TILE // 2
        self.diagnosis_engine = PEArrayEngine(half, half)
        unit = (
            self.inference_engine.pe_count
            + NUM_DIAGNOSIS_ENGINES * self.diagnosis_engine.pe_count
        )
        self.group_size = pe_budget // unit
        if self.group_size < 1:
            raise ValueError(
                f"PE budget {pe_budget} below one WSS unit ({unit} PEs)"
            )

    @property
    def pe_count(self) -> int:
        unit = (
            self.inference_engine.pe_count
            + NUM_DIAGNOSIS_ENGINES * self.diagnosis_engine.pe_count
        )
        return unit * self.group_size

    def conv_runtime(
        self,
        inference: NetworkSpec,
        diagnosis: NetworkSpec,
        fpga: FPGASpec,
        *,
        shared_depth: int = 3,
    ) -> ConvRuntime:
        _check_paired(inference, diagnosis)
        cycles = 0
        idle_weighted = 0.0
        for inf, diag in zip(inference.conv_layers, diagnosis.conv_layers):
            inf_cycles = self.inference_engine.conv_cycles(
                inf, parallel_maps=self.group_size
            )
            diag_cycles = self.diagnosis_engine.conv_cycles(
                diag, parallel_maps=self.group_size
            )
            layer_cycles = max(inf_cycles, diag_cycles)
            cycles += layer_cycles
            idle_weighted += layer_cycles * (1.0 - diag_cycles / layer_cycles)
        return ConvRuntime(
            compute_s=cycles / fpga.frequency_hz,
            weight_access_s=_weight_access_s(
                inference, shared_depth, fpga, always_double=False
            ),
            diagnosis_idle_fraction=idle_weighted / cycles,
        )
