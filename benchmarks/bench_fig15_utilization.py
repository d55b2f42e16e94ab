"""Fig. 15: resource utilization, GPU (Eq. 3) vs FPGA (Eq. 4).

Paper claim: batching raises the GPU's grid size and hence utilization;
FPGA utilization is a function of layer shape and unrolling only — batch
size does not appear in Eq. (4).
"""

from __future__ import annotations

from repro.reports.figures import fig15_rows, fig15_table


def bench_fig15_utilization(benchmark):
    rows = benchmark.pedantic(fig15_rows, rounds=1, iterations=1)
    print("\n" + fig15_table(rows))
    # GPU fc6 utilization improves with batch (more grid blocks).
    assert rows[-1]["gpu_fc6"] >= rows[0]["gpu_fc6"]
    # FPGA utilization is identical at every batch size.
    assert len({r["fpga_conv3"] for r in rows}) == 1
