"""Figs. 13-14: FCN batch optimization and per-layer-type efficiency.

Paper claims: (1) the FPGA batch loop (Fig. 13) makes FCN energy-efficiency
improve with batch size, like the GPU's; (2) FPGA CONV efficiency is flat in
batch size (Eq. 4 has no batch term) while GPU CONV efficiency improves;
(3) overall (CONV+FCN) GPU efficiency beats FPGA — which is why
Single-running mode lives on the GPU.
"""

from __future__ import annotations

from repro.reports.figures import fig14_rows, fig14_table


def bench_fig14_batch_efficiency(benchmark):
    rows = benchmark.pedantic(fig14_rows, rounds=1, iterations=1)
    print("\n" + fig14_table(rows))
    first, last = rows[0], rows[-1]
    # FPGA conv efficiency flat across batches.
    assert abs(last["fpga_conv"] - first["fpga_conv"]) < 1e-6
    # GPU conv efficiency improves with batch.
    assert last["gpu_conv"] > first["gpu_conv"]
    # Without the batch loop, FPGA FCN efficiency stays flat...
    assert abs(last["fpga_fc_nobatch"] - first["fpga_fc_nobatch"]) < 0.5
    # ...with it, efficiency improves with batch (Fig. 13's point).
    assert last["fpga_fc_batch"] > 2 * first["fpga_fc_batch"]
    # GPU overall efficiency beats FPGA at every batch size.
    for r in rows:
        assert r["gpu_all"] > r["fpga_all"]
