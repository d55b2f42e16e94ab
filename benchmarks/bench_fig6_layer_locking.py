"""Fig. 6: accuracy and training time when locking CONV-i layers.

Paper claims: CONV-0 (nothing locked) reaches the best accuracy (59%);
CONV-5 (only FCN trained) collapses to 34%; the knee is at CONV-3 — the
first three conv layers' features are general enough that locking them
costs little accuracy while the weight sharing cuts training time 1.7X.
``time_s`` is host wall time (:func:`repro.reports.claims.fig6_rows`).
"""

from __future__ import annotations

import pytest

from repro.reports.claims import fig6_rows, fig6_table


@pytest.mark.slow
def bench_fig6_layer_locking(benchmark):
    rows = benchmark.pedantic(fig6_rows, args=(0,), rounds=1, iterations=1)
    print("\n" + fig6_table(rows))
    by_depth = {r["depth"]: r for r in rows}
    # Retraining everything clearly beats FCN-only training — the paper's
    # 59% vs 34% cliff at CONV-5.
    assert by_depth[0]["accuracy"] > by_depth[5]["accuracy"] + 0.1
    # CONV-3 recovers a large part of the CONV-5 drop (the paper's
    # "significant improvement from 34% to 56%" when conv4/5 retrain).
    assert by_depth[3]["accuracy"] > by_depth[5]["accuracy"] + 0.1
    # Locking conv1-3 speeds up training (paper: 1.7X).
    assert by_depth[3]["time_s"] < by_depth[0]["time_s"] / 1.2
    # Deeper locking is monotonically cheaper in compute.
    units = [r["compute_units"] for r in rows]
    assert units == sorted(units, reverse=True)
