"""Ablation: Tm/Tn design-space search vs naive square engines.

DESIGN.md calls out the uniform cross-layer (Tm, Tn) search (Zhang
FPGA'15-style) used to shape the NWS/WS engines and the FCN unit.  This
bench quantifies how much it buys on each network's conv stack — conv1's
3-channel input punishes blindly square engines badly.
"""

from __future__ import annotations

from repro.reports.figures import engine_search_rows, engine_search_table


def bench_ablation_engine_search(benchmark):
    rows = benchmark.pedantic(engine_search_rows, rounds=1, iterations=1)
    print("\n" + engine_search_table(rows))
    for r in rows:
        # The search never loses to the square engine.
        assert r["gain"] >= 1.0
    # And wins clearly at the paper's 2628-PE design point on AlexNet.
    alex_big = next(
        r for r in rows if r["net"] == "alexnet" and r["budget"] == 2628
    )
    assert alex_big["gain"] > 1.3
