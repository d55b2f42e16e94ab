"""A "measured" GPU simulator with second-order effects.

The paper's Fig. 21 validates the analytical time model against brute-force
profiling on real hardware; the two differ because real devices have
effects the model ignores.  This simulator stands in for the real device:
it starts from the analytical model and layers on deterministic
second-order effects — per-kernel launch overhead, cache-pressure loss at
large batches, and a small utilization ripple — so that profiling the
simulator (the "best case" of Fig. 21) is genuinely different from
evaluating the analytical model, yet close enough that a good model finds
a near-optimal configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.gpu import network_time, utilization
from repro.hw.specs import GPUSpec
from repro.models.layer_specs import NetworkSpec

__all__ = ["MeasuredGPU"]

#: fixed cost per kernel launch (one kernel per layer per batch)
LAUNCH_OVERHEAD_S = 80e-6

#: relative slowdown per doubling of batch beyond 8 (activations spill out
#: of cache on embedded parts)
CACHE_PRESSURE = 0.03

#: amplitude of a deterministic per-batch utilization ripple (DVFS and
#: scheduler artifacts)
RIPPLE = 0.05


@dataclass(frozen=True)
class MeasuredGPU:
    """Deterministic pseudo-hardware built on top of a :class:`GPUSpec`.

    ``gpu`` is the underlying device the analytical model also uses.
    """

    gpu: GPUSpec

    def measure_latency_s(self, network: NetworkSpec, batch: int = 1) -> float:
        """'Profile' one batch: analytical time plus second-order effects."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        base = network_time(network, self.gpu, batch).total_s
        launches = len(network.layers) * LAUNCH_OVERHEAD_S
        pressure = 1.0 + CACHE_PRESSURE * max(0.0, math.log2(batch / 8))
        wiggle = 1.0 + RIPPLE * math.sin(batch * 2.39996)  # golden angle
        return base * pressure * wiggle + launches

    def measure_throughput_ips(self, network: NetworkSpec, batch: int = 1) -> float:
        return batch / self.measure_latency_s(network, batch)

    def measure_perf_per_watt(self, network: NetworkSpec, batch: int = 1) -> float:
        timing = network_time(network, self.gpu, batch)
        power = self.gpu.power(timing.mean_utilization)
        return self.measure_throughput_ips(network, batch) / power

    def brute_force_best_batch(
        self,
        network: NetworkSpec,
        *,
        latency_requirement_s: float,
        max_batch: int = 256,
    ) -> int:
        """Exhaustively profile every batch size; return the most
        energy-efficient one meeting the latency requirement (the paper's
        'best case')."""
        best_batch = 0
        best_ppw = -1.0
        for batch in range(1, max_batch + 1):
            if self.measure_latency_s(network, batch) > latency_requirement_s:
                continue
            ppw = self.measure_perf_per_watt(network, batch)
            if ppw > best_ppw:
                best_ppw = ppw
                best_batch = batch
        if best_batch == 0:
            raise ValueError(
                f"{network.name} cannot meet {latency_requirement_s * 1e3:.0f} ms "
                f"on {self.gpu.name} at any batch size"
            )
        return best_batch
