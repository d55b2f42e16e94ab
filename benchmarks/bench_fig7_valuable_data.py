"""Fig. 7: fine-tuning on only the unrecognized (valuable) data.

Paper protocol: train Net-50k from scratch on the first 50k images; run it
over the remaining 150k and keep the incorrectly-classified ones; then
compare Net-Err (fine-tuned on just those errors) against Net-50k-150k and
Net-50k-200k.  Claim: Net-Err nearly matches the full fine-tunes while
moving the least data and training the fastest.
"""

from __future__ import annotations

import pytest

from repro.reports.claims import fig7_rows, fig7_table


@pytest.mark.slow
def bench_fig7_valuable_data(benchmark):
    rows = benchmark.pedantic(fig7_rows, args=(0,), rounds=1, iterations=1)
    print("\n" + fig7_table(rows))
    by_label = {label: (acc, sec, images) for label, acc, sec, images in rows}
    base_acc = by_label["Net-50k"][0]
    err_acc, err_time, err_images = by_label["Net-Err"]
    full_acc, full_time, __ = by_label["Net-50k-200k"]
    # Error-driven fine-tuning improves on the base model...
    assert err_acc > base_acc
    # ...and lands near the full fine-tune (paper: 'nearly the same').
    assert err_acc > full_acc - 0.12
    # While moving the least data and training faster than the full set.
    assert err_images < by_label["Net-50k-150k"][2]
    assert err_time < full_time
