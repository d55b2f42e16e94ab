"""Fig. 12: runtime breakdown of the inference task across batch sizes.

Paper claim: FCN layers account for up to ~50% of overall runtime at small
batch sizes (1-4) on both FPGA and GPU, because FCN weights see no reuse;
the share fades as batching amortizes weight traffic.
"""

from __future__ import annotations

from repro.reports.figures import fig12_rows, fig12_table


def bench_fig12_runtime_breakdown(benchmark):
    rows = benchmark.pedantic(fig12_rows, rounds=1, iterations=1)
    print("\n" + fig12_table(rows))
    # FCN is a large share (>=40%) at batch 1 on both platforms.
    assert rows[0]["gpu_fc_frac"] > 0.4
    assert rows[0]["fpga_fc_frac"] > 0.4
    # The GPU share declines once batching starts amortizing weights.
    assert rows[-1]["gpu_fc_frac"] < rows[0]["gpu_fc_frac"]
