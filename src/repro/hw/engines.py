"""FPGA convolution-engine cycle models.

Two engine styles from the paper:

* :class:`TmTnEngine` — the classic loop-unrolled engine of Fig. 9/10
  (DianNao / Zhang-FPGA'15 style): ``Tm`` vector dot-product units of width
  ``Tn`` unroll output and input feature maps.  Its utilization is Eq. (4)
  and is independent of batch size, which is why FPGA conv energy-efficiency
  is flat in Fig. 14.
* :class:`PEArrayEngine` — the output-neuron-unrolled engine of Fig. 18
  used by the WSS architecture: a ``Tr x Tc`` grid of PEs, each owning one
  output neuron, with one kernel weight broadcast to all PEs per cycle
  (the second level of weight sharing).  A tile of ``Tr x Tc`` output
  neurons takes ``K x K`` cycles per input map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.layer_specs import LayerSpec

__all__ = ["TmTnEngine", "PEArrayEngine", "square_factors"]


def square_factors(budget: int) -> tuple[int, int]:
    """Most-square (a, b) with ``a*b <= budget`` maximizing a*b.

    Used to shape an engine from a PE/DSP budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    best = (1, budget)
    best_area = budget
    root = int(math.isqrt(budget))
    for a in range(root, 0, -1):
        b = budget // a
        if a * b > best_area or (a * b == best_area and abs(a - b) < abs(best[0] - best[1])):
            best = (a, b)
            best_area = a * b
    return best


@dataclass(frozen=True)
class TmTnEngine:
    """Input/output-feature-map unrolled engine (Fig. 10)."""

    tm: int  # output feature maps processed in parallel
    tn: int  # input feature maps processed in parallel

    def __post_init__(self) -> None:
        if min(self.tm, self.tn) < 1:
            raise ValueError("Tm and Tn must be >= 1")

    @property
    def pe_count(self) -> int:
        """Multiply-add units, i.e. DSP slices consumed."""
        return self.tm * self.tn

    @classmethod
    def from_budget(cls, budget: int) -> "TmTnEngine":
        tm, tn = square_factors(budget)
        return cls(tm, tn)

    @classmethod
    def best_for(
        cls, layers: "tuple[LayerSpec, ...] | list[LayerSpec]", budget: int
    ) -> "TmTnEngine":
        """Design-space search: the uniform (Tm, Tn) under the PE budget
        that minimizes total cycles over the given layer set.

        This is the standard cross-layer compromise of Zhang et al.
        (FPGA'15): a single unrolling shape for the whole stack, chosen
        analytically.  Ties break toward fewer PEs.
        """
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if not layers:
            raise ValueError("need at least one layer to optimize for")
        best_engine = cls(1, 1)
        best_cycles = float("inf")
        for tm in range(1, budget + 1):
            engine = cls(tm, budget // tm)  # tm <= budget, so tn >= 1
            cycles = sum(
                engine.conv_cycles(spec)
                if spec.kind == "conv"
                else engine.fc_compute_cycles(spec)
                for spec in layers
            )
            if cycles < best_cycles or (
                cycles == best_cycles
                and engine.pe_count < best_engine.pe_count
            ):
                best_cycles = cycles
                best_engine = engine
        return best_engine

    def utilization(self, layer: LayerSpec) -> float:
        """Eq. (4): N*M / (Tn*Tm*ceil(N/Tn)*ceil(M/Tm)) — batch independent."""
        n, m = layer.in_maps, layer.out_maps
        return (n * m) / (
            self.tn * self.tm * math.ceil(n / self.tn) * math.ceil(m / self.tm)
        )

    def conv_cycles(self, layer: LayerSpec, batch: int = 1) -> int:
        """Cycles to compute a CONV layer (loop nest of Fig. 9)."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return (
            math.ceil(layer.out_maps / self.tm)
            * math.ceil(layer.in_maps / self.tn)
            * layer.kernel**2
            * layer.out_rows
            * layer.out_cols
            * batch
        )

    def fc_compute_cycles(self, layer: LayerSpec, batch: int = 1) -> int:
        """Eq. (12) compute term: ceil(N/Tn)*ceil(M/Tm)*Bsize cycles."""
        if layer.kind != "fc":
            raise ValueError(f"{layer.name} is not an FCN layer")
        return (
            math.ceil(layer.in_maps / self.tn)
            * math.ceil(layer.out_maps / self.tm)
            * batch
        )


@dataclass(frozen=True)
class PEArrayEngine:
    """Output-neuron-unrolled engine (Fig. 18, left)."""

    tr: int  # output rows unrolled
    tc: int  # output cols unrolled

    def __post_init__(self) -> None:
        if min(self.tr, self.tc) < 1:
            raise ValueError("Tr and Tc must be >= 1")

    @property
    def pe_count(self) -> int:
        return self.tr * self.tc

    def conv_cycles_per_map(self, layer: LayerSpec) -> int:
        """Cycles for ONE output feature map of a CONV layer.

        Each ``Tr x Tc`` output tile takes ``K*K`` cycles per input map
        (one broadcast weight per cycle), and there are
        ``ceil(R/Tr) * ceil(C/Tc)`` tiles.
        """
        return (
            layer.in_maps
            * layer.kernel**2
            * math.ceil(layer.out_rows / self.tr)
            * math.ceil(layer.out_cols / self.tc)
        )

    def conv_cycles(self, layer: LayerSpec, *, parallel_maps: int = 1) -> int:
        """Eq. (11): cycles for all M output maps when ``parallel_maps``
        engines with identical geometry share the work."""
        if parallel_maps < 1:
            raise ValueError("parallel_maps must be >= 1")
        return math.ceil(layer.out_maps / parallel_maps) * self.conv_cycles_per_map(
            layer
        )
