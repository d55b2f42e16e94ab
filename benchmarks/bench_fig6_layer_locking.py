"""Fig. 6: accuracy and training time when locking CONV-i layers.

Paper claims: CONV-0 (nothing locked) reaches the best accuracy (59%);
CONV-5 (only FCN trained) collapses to 34%; the knee is at CONV-3 — the
first three conv layers' features are general enough that locking them
costs little accuracy while the weight sharing cuts training time 1.7X.

``time_s`` is ``train_classifier``'s wall time with its per-epoch eval, so
from CONV-3 up the speed-up includes eval reuse: the test set's locked-block
activations come out of :mod:`repro.nn.prefix_memo` after the first epoch
(at CONV-5 the whole trunk does).  The memo is cleared between depths, so no
depth starts on features another one computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DriftModel, make_dataset
from repro.models import build_classifier
from repro.nn import prefix_memo
from repro.transfer import (
    FreezePlan,
    reinitialize_above,
    train_classifier,
    transfer_conv_weights,
)

DEPTHS = (0, 1, 2, 3, 4, 5)


def run(pretrained_context, bench_generator):
    rng = np.random.default_rng(400)
    labeled = make_dataset(
        160,
        generator=bench_generator,
        drift=DriftModel(0.3, rng=rng),
        rng=rng,
    )
    test = make_dataset(
        160,
        generator=bench_generator,
        drift=DriftModel(0.3, rng=rng),
        rng=rng,
    )
    # The WEAK donor reproduces the paper's setting: early conv features
    # are generic, but conv4/conv5 carry task-specific jigsaw features, so
    # locking them (CONV-5) costs accuracy while the early layers are safe.
    donor = pretrained_context["weak"]
    rows = []
    for depth in DEPTHS:
        net = build_classifier(4, np.random.default_rng(401))
        transfer_conv_weights(donor.trunk, net, depth)
        reinitialize_above(net, depth, np.random.default_rng(402 + depth))
        prefix_memo.clear()
        result = train_classifier(
            net,
            labeled,
            epochs=12,
            batch_size=32,
            lr=0.01,
            rng=np.random.default_rng(403),
            eval_data=test,
            freeze_plan=FreezePlan(depth),
        )
        rows.append(
            {
                "depth": depth,
                "accuracy": result.eval_accuracies[-1],
                "time_s": result.wall_time_s,
                "compute_units": result.compute_units,
            }
        )
    return rows


@pytest.mark.slow
def bench_fig6_layer_locking(
    benchmark, pretrained_context, bench_generator, tables
):
    rows = benchmark.pedantic(
        run, args=(pretrained_context, bench_generator), rounds=1, iterations=1
    )
    base_time = rows[0]["time_s"]
    tables(
        "Fig. 6 — CONV-i locking: accuracy and fine-tuning time",
        ["strategy", "accuracy", "train time s", "speedup vs CONV-0"],
        [
            [
                f"CONV-{r['depth']}",
                f"{r['accuracy']:.1%}",
                f"{r['time_s']:.2f}",
                f"{base_time / r['time_s']:.2f}x",
            ]
            for r in rows
        ],
    )
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
