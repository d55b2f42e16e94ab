"""Fig. 11: latency and performance/power ratio vs. batch size.

Paper claim: on both the mobile GPU and the FPGA, AlexNet inference latency
grows with batch size while energy efficiency (images/s/W) improves —
creating the latency/efficiency trade-off that motivates the time model.
"""

from __future__ import annotations

from repro.reports.figures import fig11_rows, fig11_table


def bench_fig11_batch_latency(benchmark):
    rows = benchmark.pedantic(fig11_rows, rounds=1, iterations=1)
    print("\n" + fig11_table(rows))
    gpu_lat = [r["gpu_latency_ms"] for r in rows]
    fpga_lat = [r["fpga_latency_ms"] for r in rows]
    gpu_ppw = [r["gpu_ppw"] for r in rows]
    # Latency increases with batch size on both platforms.
    assert gpu_lat == sorted(gpu_lat)
    assert fpga_lat == sorted(fpga_lat)
    # GPU energy efficiency improves with batch size.
    assert gpu_ppw == sorted(gpu_ppw)
    # Real-time 33 ms is only met at small batch on the GPU.
    assert gpu_lat[0] < 33 < gpu_lat[-1]
