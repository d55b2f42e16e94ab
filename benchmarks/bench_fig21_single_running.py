"""Fig. 21: time-model-guided batch selection vs non-batching vs best case.

Paper claims: the analytical time model's batch choice yields ~3X average
speedup over the non-batching method for AlexNet (resources underutilized
at batch 1) but only ~1.1X for VGGNet (already saturated), and lands close
to the brute-force profiled best case.

The 'hardware' here is the MeasuredGPU simulator, which layers
second-order effects on top of the analytical model so that profiling and
modeling genuinely disagree.
"""

from __future__ import annotations

from repro.reports.figures import fig21_rows, fig21_table


def bench_fig21_single_running(benchmark):
    rows = benchmark.pedantic(fig21_rows, rounds=1, iterations=1)
    print("\n" + fig21_table(rows))
    alex = [r for r in rows if r["net"] == "AlexNet"]
    vgg = [r for r in rows if r["net"] == "VGGNet"]
    alex_speedup = sum(r["speedup_vs_nonbatch"] for r in alex) / len(alex)
    vgg_speedup = sum(r["speedup_vs_nonbatch"] for r in vgg) / len(vgg)
    # AlexNet benefits far more from batching than VGG (3X vs 1.1X pattern).
    assert alex_speedup > 1.5
    assert vgg_speedup < alex_speedup
    assert vgg_speedup > 0.9
    # The model's pick is close to the brute-force best everywhere.
    for r in rows:
        assert r["fraction_of_best"] > 0.85
