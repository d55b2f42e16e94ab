"""GPU analytical time / resource model (Section IV-B1 of the paper).

Implements, in order:

* Eq. (2): grid size of the blocked matrix multiply a CONV layer becomes;
* Eq. (3): GPU resource utilization from grid size vs. resident blocks;
* Eq. (5): CONV layer time = ops / (maxOPS x Util);
* Eq. (6)-(8): FCN layer time under the roofline — achieved performance is
  the min of the compute roof and CTM x memory bandwidth;
* Eq. (9): the memory resource model bounding the diagnosis batch size.

Batching enters exactly as the paper describes: it multiplies the data
matrix columns (``R*C -> R*C*Bsize``), which raises grid size and hence
utilization, and it amortizes FCN weight traffic across the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.layer_specs import BYTES_PER_VALUE, LayerSpec, NetworkSpec
from repro.hw.specs import GPUSpec

__all__ = [
    "grid_size",
    "utilization",
    "conv_layer_time",
    "fc_layer_time",
    "layer_time",
    "LayerTiming",
    "NetworkTiming",
    "network_time",
    "memory_required",
    "max_batch_under_memory",
    "perf_per_watt",
    "NUM_PATCHES",
]


def grid_size(layer: LayerSpec, gpu: GPUSpec, batch: int = 1) -> int:
    """Eq. (2): thread blocks needed for the layer's output matrix.

    The output matrix is M x (R*C*Bsize); each block computes a
    ``tile_m x tile_n`` sub-matrix.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    cols = layer.out_rows * layer.out_cols * batch
    return math.ceil(layer.out_maps / gpu.tile_m) * math.ceil(cols / gpu.tile_n)


def utilization(layer: LayerSpec, gpu: GPUSpec, batch: int = 1) -> float:
    """Eq. (3): fraction of compute capacity the grid actually occupies."""
    grid = grid_size(layer, gpu, batch)
    waves = math.ceil(grid / gpu.max_blocks)
    return grid / (gpu.max_blocks * waves)


def conv_layer_time(layer: LayerSpec, gpu: GPUSpec, batch: int = 1) -> float:
    """Eq. (5): CONV layer runtime in seconds for a batch."""
    util = utilization(layer, gpu, batch)
    return layer.ops * batch / (gpu.max_ops * util)


def _fc_data_access_bytes(layer: LayerSpec, batch: int) -> int:
    """Din + Dw + Dout for an FCN layer (K=R=C=1), weights read once."""
    d_in = layer.in_maps * batch
    d_w = layer.out_maps * layer.in_maps
    d_out = layer.out_maps * batch
    return (d_in + d_w + d_out) * BYTES_PER_VALUE


def fc_layer_time(layer: LayerSpec, gpu: GPUSpec, batch: int = 1) -> float:
    """Eqs. (6)-(8): FCN layer runtime under the roofline model."""
    if layer.kind != "fc":
        raise ValueError(f"{layer.name} is not an FCN layer")
    util = utilization(layer, gpu, batch)
    compute_roof = gpu.max_ops * util
    total_ops = layer.ops * batch
    ctm = total_ops / _fc_data_access_bytes(layer, batch)  # ops per byte
    achieved = min(compute_roof, ctm * gpu.mem_bandwidth_bps)
    return total_ops / achieved


def layer_time(layer: LayerSpec, gpu: GPUSpec, batch: int = 1) -> float:
    """Runtime of any layer on the GPU for one batch."""
    if layer.kind == "conv":
        return conv_layer_time(layer, gpu, batch)
    return fc_layer_time(layer, gpu, batch)


@dataclass(frozen=True)
class LayerTiming:
    """Per-layer result of a network timing sweep."""

    layer: LayerSpec
    time_s: float
    utilization: float


@dataclass(frozen=True)
class NetworkTiming:
    """Whole-network timing at one batch size."""

    network: NetworkSpec
    batch: int
    layers: tuple[LayerTiming, ...]

    @property
    def total_s(self) -> float:
        return sum(t.time_s for t in self.layers)

    @property
    def conv_s(self) -> float:
        return sum(t.time_s for t in self.layers if t.layer.kind == "conv")

    @property
    def fc_s(self) -> float:
        return sum(t.time_s for t in self.layers if t.layer.kind == "fc")

    @property
    def throughput_ips(self) -> float:
        """Images per second at this batch size."""
        return self.batch / self.total_s

    @property
    def mean_utilization(self) -> float:
        """Time-weighted average utilization (drives the power model)."""
        total = self.total_s
        return sum(t.time_s * t.utilization for t in self.layers) / total


def network_time(
    network: NetworkSpec, gpu: GPUSpec, batch: int = 1
) -> NetworkTiming:
    """Analytical runtime of every layer at the given batch size."""
    timings = tuple(
        LayerTiming(
            layer=spec,
            time_s=layer_time(spec, gpu, batch),
            utilization=utilization(spec, gpu, batch),
        )
        for spec in network.layers
    )
    return NetworkTiming(network=network, batch=batch, layers=timings)


def memory_required(network: NetworkSpec, batch: int = 1) -> int:
    """Eq. (9) footprint: all weights resident + the largest layer's
    im2col-expanded input and output activations at this batch size."""
    weights = network.weight_bytes
    peak_act = max(
        spec.input_bytes(batch) + spec.output_bytes(batch)
        for spec in network.layers
    )
    return weights + peak_act


#: jigsaw patches per diagnosis image: its conv trunk runs once per tile
#: of the 3x3 grid, its FCN head once per image
NUM_PATCHES = 9


def max_batch_under_memory(network: NetworkSpec, gpu: GPUSpec) -> int:
    """Largest batch size, up to 4096, satisfying the Eq. (9) memory
    constraint."""
    best = 0
    for batch in range(1, 4097):
        if memory_required(network, batch) > gpu.mem_capacity_bytes:
            break
        best = batch
    if best == 0:
        raise ValueError(
            f"{network.name} does not fit on {gpu.name} even at batch 1"
        )
    return best


def perf_per_watt(
    network: NetworkSpec, gpu: GPUSpec, batch: int = 1
) -> float:
    """Images per second per watt — the paper's energy-efficiency metric."""
    timing = network_time(network, gpu, batch)
    return timing.throughput_ips / gpu.power(timing.mean_utilization)
