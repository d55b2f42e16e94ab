"""Fig. 16: interference between inference and diagnosis on a shared GPU.

Paper claim: co-running the two tasks on the mobile GPU inflates inference
latency by up to 3X, which is why Co-running mode moves to the FPGA with
spatially partitioned engines.
"""

from __future__ import annotations

from repro.reports.figures import fig16_rows, fig16_table


def bench_fig16_interference(benchmark):
    rows = benchmark.pedantic(fig16_rows, rounds=1, iterations=1)
    print("\n" + fig16_table(rows))
    slowdowns = [r["result"].inference_slowdown for r in rows]
    # Monotone in diagnosis duty; reaches ~3X at full duty.
    assert slowdowns == sorted(slowdowns)
    assert slowdowns[0] == 1.0
    assert 2.0 < slowdowns[-1] < 4.0
