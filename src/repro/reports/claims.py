"""The paper's training claims as functions of a seed.

Table I, Figs. 5-7, the diagnosis ablation and Table II + Fig. 25 train
networks, so unlike :data:`repro.reports.figures.FIGURES` they take
minutes.  Each is defined once, here: ``<claim>_rows(seed)`` trains what
the claim needs and returns its data, and ``<claim>_table(rows)`` formats
that into the claim's text.  :data:`CLAIMS` pairs the two per claim name;
``python -m repro <claim> [--seed N]`` prints ``table(rows(seed))``, and
each training bench asserts on ``rows(0)`` and prints the same text.

Seed ``s`` draws each stream from ``literal + 1000 * s``.  The literals
(all below 1000) are the streams seed 0 has always drawn, so streams of
different seeds never coincide.  A claim shares nothing with another:
each builds its own image generator, data and donors, so its rows do not
depend on which claims ran before it in the same process.

:mod:`repro.reports` does not import this module, so ``import repro``
pays for none of it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable

import numpy as np

from repro.core import Scenario
from repro.data import Dataset, DriftModel, ImageGenerator, make_dataset
from repro.diagnosis import (
    InferenceConfidenceDiagnoser,
    JigsawDiagnoser,
    OracleDiagnoser,
    RandomDiagnoser,
    evaluate_diagnoser,
)
from repro.fleet import run_all_systems
from repro.models import MODEL_CONFIGS, build_classifier, build_model
from repro.nn import prefix_memo
from repro.reports.tables import format_table
from repro.selfsup import (
    ContextNetwork,
    JigsawSampler,
    PermutationSet,
    build_context_network,
    pretrain,
)
from repro.transfer import (
    FreezePlan,
    evaluate,
    reinitialize_above,
    train_classifier,
    transfer_conv_weights,
)

__all__ = [
    "CLAIMS",
    "diagnosis_rows",
    "diagnosis_table",
    "fig5_rows",
    "fig5_table",
    "fig6_rows",
    "fig6_table",
    "fig7_rows",
    "fig7_table",
    "systems_rows",
    "systems_table",
    "table1_rows",
    "table1_table",
]

_FIG5_EPOCHS = 6
_FIG6_DEPTHS = (0, 1, 2, 3, 4, 5)


def _rng(stream: int, seed: int) -> np.random.Generator:
    """Stream ``stream`` (< 1000) of ``seed``; seed 0 draws the literal."""
    return np.random.default_rng(stream + 1000 * seed)


def _generator(seed: int) -> ImageGenerator:
    """A fresh image generator: it carries RNG state, so one per claim."""
    return ImageGenerator(48, 4, rng=_rng(100, seed))


def _donors(
    seed: int, epochs: tuple[int, ...]
) -> list[tuple[ContextNetwork, float]]:
    """Jigsaw-pretrained context networks and their puzzle accuracy.

    One donor per entry of ``epochs``, in order; they share one sampler
    stream, so a donor depends on the ones before it.  Fig. 5 compares
    transfer from a 71%- and an 88%-accurate unsupervised network; 1 and
    6 epochs are the IoT-scale weak and strong counterparts.
    """
    rng = _rng(200, seed)
    generator = ImageGenerator(48, 4, rng=rng)
    permset = PermutationSet.generate(8, rng=rng)
    sampler = JigsawSampler(permset, rng=rng)
    images = make_dataset(
        320, generator=generator, drift=DriftModel(0.3, rng=rng), rng=rng
    ).images
    donors = []
    for count in epochs:
        net = build_context_network(permset, rng=_rng(201, seed))
        result = pretrain(
            net, images, sampler, epochs=count, lr=0.01, rng=_rng(202, seed)
        )
        donors.append((net, result.final_accuracy))
    return donors


def table1_rows(seed: int) -> list[dict]:
    """Table I: three capacities trained on ideal data, tested on ideal
    and on drifted data."""
    generator = _generator(seed)
    rng = _rng(101, seed)
    train = make_dataset(260, generator=generator, rng=rng)
    test_ideal = make_dataset(160, generator=generator, rng=rng)
    test_drift = make_dataset(
        160, generator=generator, drift=DriftModel(0.6, rng=rng), rng=rng
    )
    rows = []
    for name, config in MODEL_CONFIGS.items():
        net = build_model(name, 4, _rng(10, seed))
        train_classifier(
            net, train, epochs=10, batch_size=32, lr=0.01, rng=_rng(11, seed)
        )
        rows.append(
            {
                "model": name,
                "paper_counterpart": config.paper_counterpart,
                "ideal": evaluate(net, test_ideal),
                "drifted": evaluate(net, test_drift),
            }
        )
    return rows


def table1_table(rows: list[dict]) -> str:
    return format_table(
        "Table I — static-model accuracy, ideal vs in-situ data",
        ["model", "paper net", "ideal acc", "in-situ acc", "drop"],
        [
            [
                r["model"],
                r["paper_counterpart"],
                f"{r['ideal']:.1%}",
                f"{r['drifted']:.1%}",
                f"{r['ideal'] - r['drifted']:+.1%}",
            ]
            for r in rows
        ],
    )


def fig5_rows(seed: int) -> dict:
    """Fig. 5: accuracy per epoch from scratch and from a weak and a
    strong jigsaw donor."""
    (weak, weak_acc), (strong, strong_acc) = _donors(seed, (1, 6))
    generator = _generator(seed)
    rng = _rng(300, seed)
    labeled = make_dataset(
        140, generator=generator, drift=DriftModel(0.3, rng=rng), rng=rng
    )
    test = make_dataset(
        160, generator=generator, drift=DriftModel(0.3, rng=rng), rng=rng
    )
    curves = {}
    for label, context in (
        ("scratch", None),
        ("transfer-weak", weak),
        ("transfer-strong", strong),
    ):
        net = build_classifier(4, _rng(301, seed))
        if context is not None:
            transfer_conv_weights(context.trunk, net, 3)
        result = train_classifier(
            net,
            labeled,
            epochs=_FIG5_EPOCHS,
            batch_size=32,
            lr=0.01,
            rng=_rng(302, seed),
            eval_data=test,
        )
        curves[label] = result.eval_accuracies
    return {"curves": curves, "weak_acc": weak_acc, "strong_acc": strong_acc}


def fig5_table(rows: dict) -> str:
    curves = rows["curves"]
    return format_table(
        f"Fig. 5 — accuracy vs epoch (pretrain acc: weak="
        f"{rows['weak_acc']:.0%}, strong={rows['strong_acc']:.0%})",
        ["epoch", "scratch", "transfer-weak", "transfer-strong"],
        [
            [e + 1]
            + [
                f"{curves[label][e]:.1%}"
                for label in ("scratch", "transfer-weak", "transfer-strong")
            ]
            for e in range(_FIG5_EPOCHS)
        ],
    )


def fig6_rows(seed: int) -> list[dict]:
    """Fig. 6: accuracy, host wall time and compute when locking CONV-i.

    ``time_s`` is ``train_classifier``'s wall time with its per-epoch
    eval, so from CONV-3 up the speed-up includes eval reuse: the test
    set's locked-block activations come out of :mod:`repro.nn.prefix_memo`
    after the first epoch (at CONV-5 the whole trunk does).  The memo is
    cleared between depths, so no depth starts on features another one
    computed.
    """
    # The WEAK donor reproduces the paper's setting: early conv features
    # are generic, but conv4/conv5 carry task-specific jigsaw features, so
    # locking them (CONV-5) costs accuracy while the early layers are safe.
    [(donor, _)] = _donors(seed, (1,))
    generator = _generator(seed)
    rng = _rng(400, seed)
    labeled = make_dataset(
        160, generator=generator, drift=DriftModel(0.3, rng=rng), rng=rng
    )
    test = make_dataset(
        160, generator=generator, drift=DriftModel(0.3, rng=rng), rng=rng
    )
    rows = []
    for depth in _FIG6_DEPTHS:
        net = build_classifier(4, _rng(401, seed))
        transfer_conv_weights(donor.trunk, net, depth)
        reinitialize_above(net, depth, _rng(402 + depth, seed))
        prefix_memo.clear()
        result = train_classifier(
            net,
            labeled,
            epochs=12,
            batch_size=32,
            lr=0.01,
            rng=_rng(403, seed),
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


def fig6_table(rows: list[dict]) -> str:
    base_time = rows[0]["time_s"]
    return format_table(
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


def fig7_rows(seed: int) -> list[tuple[str, float, float, int]]:
    """Fig. 7: ``(network, accuracy, fine-tune host wall s, images
    moved)`` for the base model and its three fine-tunes."""
    generator = _generator(seed)
    rng = _rng(500, seed)
    drift = DriftModel(0.35, rng=rng)
    first = make_dataset(120, generator=generator, drift=drift, rng=rng)
    rest = make_dataset(360, generator=generator, drift=drift, rng=rng)
    test = make_dataset(200, generator=generator, drift=drift, rng=rng)

    base = build_classifier(4, _rng(501, seed))
    train_classifier(
        base, first, epochs=8, batch_size=32, lr=0.01, rng=_rng(502, seed)
    )
    base_state = base.state_dict()
    rows = [("Net-50k", evaluate(base, test), 0.0, 0)]
    errors = rest.subset(np.flatnonzero(OracleDiagnoser(base).flags(rest)))

    # Net-Err fine-tunes on the error images plus the retained first-chunk
    # data the Cloud already holds (error-only batches are a degenerate
    # distribution — they contain no examples the model handles correctly
    # — and collapse the classifier; the Cloud mixes its archive in for
    # free).  Only the error images cross the network.
    for label, data, moved in (
        ("Net-Err", Dataset.concat([errors, first]), len(errors)),
        ("Net-50k-150k", rest, len(rest)),
        ("Net-50k-200k", Dataset.concat([first, rest]), len(rest)),
    ):
        net = build_classifier(4, _rng(501, seed))
        net.load_state_dict(base_state)
        result = train_classifier(
            net, data, epochs=4, batch_size=32, lr=0.008, rng=_rng(503, seed)
        )
        rows.append((label, evaluate(net, test), result.wall_time_s, moved))
    return rows


def fig7_table(rows: list[tuple[str, float, float, int]]) -> str:
    return format_table(
        "Fig. 7 — incremental training on valuable data only",
        ["network", "accuracy", "fine-tune s", "images moved"],
        [
            [label, f"{acc:.1%}", f"{sec:.2f}", images]
            for label, acc, sec, images in rows
        ],
    )


def diagnosis_rows(seed: int) -> dict:
    """Ablation: each diagnoser scored against the misclassification
    oracle (``{name: DiagnosisReport}``).

    The test set is half ideal, half heavily drifted, where the errors
    concentrate.  Classifier and context network both train on ideal
    data, as in the paper's bootstrap stage, so drift is out of
    distribution for both.
    """
    generator = _generator(seed)
    rng = _rng(600, seed)
    train = make_dataset(220, generator=generator, rng=rng)

    net = build_classifier(4, _rng(601, seed))
    train_classifier(
        net, train, epochs=8, batch_size=32, lr=0.01, rng=_rng(602, seed)
    )

    permset = PermutationSet.generate(8, rng=rng)
    sampler = JigsawSampler(permset, rng=rng)
    context = build_context_network(permset, rng=_rng(603, seed))
    pretrain(
        context, train.images, sampler, epochs=5, lr=0.01,
        rng=_rng(604, seed),
    )

    ideal_test = make_dataset(120, generator=generator, rng=rng)
    drift_test = make_dataset(
        120, generator=generator, drift=DriftModel(0.7, rng=rng), rng=rng
    )
    test = Dataset.concat([ideal_test, drift_test])

    oracle = OracleDiagnoser(net)
    confidence = InferenceConfidenceDiagnoser(net, threshold=0.75)
    jigsaw = JigsawDiagnoser(context, sampler, trials=2, rng=_rng(605, seed))
    budget = float(confidence.flags(test).mean())
    random = RandomDiagnoser(budget, rng=_rng(606, seed))
    return {
        name: evaluate_diagnoser(diag, oracle, test)
        for name, diag in (
            ("oracle", oracle),
            ("confidence", confidence),
            ("jigsaw", jigsaw),
            ("random", random),
        )
    }


def diagnosis_table(rows: dict) -> str:
    return format_table(
        "Ablation — diagnosis signal quality vs misclassification oracle",
        ["diagnoser", "upload frac", "precision", "recall", "enrichment"],
        [
            [
                name,
                f"{r.upload_fraction:.1%}",
                f"{r.precision:.2f}",
                f"{r.recall:.2f}",
                f"{r.recall / max(r.upload_fraction, 1e-9):.2f}",
            ]
            for name, r in rows.items()
        ],
    )


def systems_rows(seed: int) -> dict:
    """Table II and Fig. 25 from one run of the four Fig. 24 systems.

    One barrier event run per system over a one-node fleet, oracle
    diagnoser (:func:`repro.fleet.run_all_systems`).  ``movement`` is
    each system's per-stage upload fraction, ``archive`` the images
    acquired so far at each stage, ``systems`` Fig. 25's cost rows and
    ``speedups`` the per-stage Cloud update-time ratio a / d.
    """
    results = run_all_systems(
        Scenario(
            num_classes=4,
            stream_scale=1.0,
            severities=(0.3, 0.4, 0.35, 0.45, 0.4),
            eval_severity=0.4,
            seed=seed,
        )
    )

    def stage_times(report) -> list[float]:
        return [
            sum(
                u.modeled_time_s
                for u in report.updates
                if u.stage_index == r.stage_index
            )
            for r in report.nodes[0].records
        ]

    return {
        "archive": list(
            accumulate(r.acquired for r in results["a"].nodes[0].records)
        ),
        "movement": {
            sid: [r.uploaded / r.acquired for r in report.nodes[0].records]
            for sid, report in results.items()
        },
        "reduction": results["d"].ledger.overall_reduction_vs_full(),
        "systems": [
            {
                "system": sid,
                "name": report.config.name,
                "update_time_s": report.total_update_time_s,
                "cloud_energy_kj": report.total_cloud_energy_j / 1e3,
                "transfer_energy_j": report.nodes[0].total_upload_energy_j,
                "final_accuracy": report.final_eval_accuracy,
            }
            for sid, report in results.items()
        ],
        "speedups": [
            (ta / td if td > 0 else float("inf"))
            for ta, td in zip(
                stage_times(results["a"]), stage_times(results["d"])
            )
        ],
    }


def systems_table(rows: dict) -> str:
    movement = format_table(
        "Table II — normalized data movement per stage",
        ["system"] + [f"{n}img" for n in rows["archive"]],
        [
            [sid] + [f"{m:.2f}" for m in fractions]
            for sid, fractions in rows["movement"].items()
        ],
    )
    costs = format_table(
        "Fig. 25 — cloud energy and model update time",
        ["system", "name", "update time s", "cloud kJ", "transfer J",
         "final acc"],
        [
            [
                r["system"],
                r["name"],
                f"{r['update_time_s']:.1f}",
                f"{r['cloud_energy_kj']:.2f}",
                f"{r['transfer_energy_j']:.1f}",
                f"{r['final_accuracy']:.1%}",
            ]
            for r in rows["systems"]
        ],
    )
    speedups = "update-time speedup (a/d) per stage: " + ", ".join(
        f"{s:.2f}x" for s in rows["speedups"]
    )
    return movement + "\n\n" + costs + "\n" + speedups


#: Claim name -> (rows, table): ``table(rows(seed))`` is the claim's text,
#: printed by ``python -m repro <claim> --seed N`` and, at seed 0, by its
#: benchmark.
CLAIMS: dict[str, tuple[Callable[[int], Any], Callable[[Any], str]]] = {
    "table1": (table1_rows, table1_table),
    "fig5": (fig5_rows, fig5_table),
    "fig6": (fig6_rows, fig6_table),
    "fig7": (fig7_rows, fig7_table),
    "diagnosis": (diagnosis_rows, diagnosis_table),
    "systems": (systems_rows, systems_table),
}
