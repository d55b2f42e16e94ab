"""Table I: statically trained CNNs lose accuracy on real in-situ data.

Paper numbers: AlexNet 80% -> 54%, GoogleNet 83% -> 62%, VGGNet 93% -> 72%
when moving from the ideal training distribution (ImageNet) to the Snapshot
Serengeti camera-trap data.  Here: three capacities of the IoT-scale model
trained on ideal synthetic data, evaluated on ideal vs drifted test sets.
The shape to reproduce: every model drops substantially, and the capacity
ordering is preserved on both distributions.
"""

from __future__ import annotations

import pytest

from repro.reports.claims import table1_rows, table1_table


@pytest.mark.slow
def bench_table1_static_accuracy(benchmark):
    rows = benchmark.pedantic(table1_rows, args=(0,), rounds=1, iterations=1)
    print("\n" + table1_table(rows))
    for r in rows:
        # Models learn the ideal distribution well...
        assert r["ideal"] > 0.65
        # ...and every one of them loses accuracy under in-situ drift.
        assert r["drifted"] < r["ideal"] - 0.05
    # The degradation is substantial on average (paper: 21-26 points).
    mean_drop = sum(r["ideal"] - r["drifted"] for r in rows) / len(rows)
    assert mean_drop > 0.08
    # Capacity ordering preserved on the ideal test set
    # (AlexNet < GoogleNet <= VGGNet in the paper's Table I).
    ideal = {r["model"]: r["ideal"] for r in rows}
    assert ideal["iot-alexnet"] <= ideal["iot-vggnet"] + 0.05
