"""Fig. 5: inference accuracy with and without unsupervised pre-training.

Paper claims: transfer from an unsupervised pre-trained network lifts
accuracy dramatically (+30%) when labeled data is limited, and a
higher-accuracy pre-trained network (88% vs 71% on the jigsaw task) yields
a better inference network.
"""

from __future__ import annotations

import pytest

from repro.reports.claims import fig5_rows, fig5_table


@pytest.mark.slow
def bench_fig5_pretraining_accuracy(benchmark):
    rows = benchmark.pedantic(fig5_rows, args=(0,), rounds=1, iterations=1)
    print("\n" + fig5_table(rows))
    curves = rows["curves"]
    # The strong pre-trained network clearly beats training from scratch.
    assert curves["transfer-strong"][-1] > curves["scratch"][-1] + 0.1
    # The stronger unsupervised network transfers at least as well as the
    # weak one (paper: green line above orange line).
    assert (
        curves["transfer-strong"][-1] >= curves["transfer-weak"][-1] - 0.05
    )
    # And the weak pretrain still helps over scratch.
    assert curves["transfer-weak"][-1] >= curves["scratch"][-1] - 0.05
