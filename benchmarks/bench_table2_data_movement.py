"""Table II: normalized data movement across incremental update stages.

Paper numbers (row c/d, node-side diagnosis): 1, 0.72, 0.51, 0.35, 0.29 —
the fraction uploaded declines as the model improves and recognizes more
of each new batch.  Systems a/b upload everything (all-1 rows).
"""

from __future__ import annotations

from itertools import accumulate

import pytest


def collect(system_results):
    """Per-stage upload fraction of each system's one node."""
    return {
        sid: [r.uploaded / r.acquired for r in report.nodes[0].records]
        for sid, report in system_results.items()
    }


@pytest.mark.slow
def bench_table2_data_movement(benchmark, system_results, tables):
    movement = benchmark.pedantic(
        collect, args=(system_results,), rounds=1, iterations=1
    )
    records = system_results["a"].nodes[0].records
    archive = accumulate(r.acquired for r in records)  # images so far
    tables(
        "Table II — normalized data movement per stage",
        ["system"] + [f"{n}img" for n in archive],
        [
            [sid] + [f"{m:.2f}" for m in movement[sid]]
            for sid in ("a", "b", "c", "d")
        ],
    )
    # Systems a and b ship everything at every stage.
    for sid in ("a", "b"):
        assert all(m == 1.0 for m in movement[sid])
    # Node diagnosis (c, d): full upload at stage 0, subset afterwards.
    for sid in ("c", "d"):
        assert movement[sid][0] == 1.0
        assert all(m < 1.0 for m in movement[sid][1:])
    # In-situ AI (d) shows the paper's declining trend (0.72 -> 0.29): the
    # final stage uploads less than the first post-initial stage.  System c
    # (no weight sharing) is noisier, so it is held to a weaker bar:
    # substantial average reduction.
    assert movement["d"][-1] < movement["d"][1]
    c_tail = movement["c"][1:]
    assert sum(c_tail) / len(c_tail) < 0.8
    # Overall reduction falls in the paper's 28-71% band.
    reduction = system_results["d"].ledger.overall_reduction_vs_full()
    assert 0.2 < reduction < 0.8
