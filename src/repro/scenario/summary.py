"""Deterministic scenario summaries: replicates and bootstrap CIs.

A scenario run is summarized as a JSON document whose bytes are a pure
function of the YAML spec: replicate ``r`` reseeds the whole fleet with
``seed + 9973*r`` (replicate 0 is the spec's own seed, so a
single-replicate summary matches a direct engine run), and the bootstrap
confidence intervals resample with their own salted ``SeedSequence``.
Two invocations of the same spec must produce byte-identical summary
text; the CI job diffs exactly that.

Replicates run side by side: :func:`build_summary` hands them to
:func:`~repro.fleet.pool.fork_map`, one forked worker per free core
(:func:`~repro.fleet.pool.fork_workers`), and merges rows and trace
records in replicate order — the same bytes as running them one after
another, which is what a single free core does.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from repro.obs.trace import TraceRecord, Tracer
from repro.scenario.event import run_scenario_event
from repro.scenario.report import ScenarioReport
from repro.scenario.schema import ScenarioSpec

__all__ = [
    "replicate_seed",
    "replicate_spec",
    "run_replicate",
    "replicate_metrics",
    "bootstrap_ci",
    "build_summary",
    "summary_json",
]

#: spacing between replicate seeds (prime, so reseeded streams never
#: collide with the +1/+5/+11/+17 offsets the asset pipeline uses)
_REPLICATE_STRIDE = 9973

#: seed-sequence salt for the bootstrap resampling RNG
_BOOTSTRAP_SALT = 424243

#: coverage of every bootstrap confidence interval in a summary
CONFIDENCE = 0.9


def replicate_seed(spec: ScenarioSpec, index: int) -> int:
    return spec.seed + _REPLICATE_STRIDE * index


def replicate_spec(spec: ScenarioSpec, index: int) -> ScenarioSpec:
    """The spec with fleet and base reseeded for replicate ``index``."""
    if index == 0:
        return spec
    seed = replicate_seed(spec, index)
    fleet = replace(
        spec.fleet, seed=seed, base=replace(spec.fleet.base, seed=seed)
    )
    return replace(spec, seed=seed, fleet=fleet)


def run_replicate(
    spec: ScenarioSpec, *, tracer: Tracer | None = None
) -> ScenarioReport:
    """Run one replicate on the event engine, barrier per the spec.

    ``engine: lockstep`` specs always hold the barrier
    (:func:`~repro.scenario.schema.load_spec` refuses ``barrier: false``
    with them).
    """
    return run_scenario_event(spec, barrier=spec.barrier, tracer=tracer)


def replicate_metrics(report: ScenarioReport) -> dict[str, float]:
    """The scalar metrics one replicate contributes to the summary."""
    fleet = report.fleet
    num_nodes = len(fleet.nodes)
    num_stages = len(report.stage_info)
    node_accuracies = [
        r.accuracy_on_new for t in fleet.nodes for r in t.records
    ]
    out = {
        "final_eval_accuracy": report.final_eval_accuracy,
        "mean_node_accuracy": float(np.mean(node_accuracies)),
        "promotions": float(report.promotions),
        "rejections": float(report.rejections),
        "uploaded_bytes": float(fleet.total_uploaded_bytes),
        "downloaded_bytes": float(fleet.total_downloaded_bytes),
        "reconciliations": float(report.reconciliations),
        "reconcile_bytes": float(report.total_reconcile_bytes),
        "head_versions": float(
            sum(len(v) for v in report.head_version_map().values())
        ),
        "downed_node_stages": float(
            num_nodes * num_stages
            - sum(len(info.alive) for info in report.stage_info)
        ),
    }
    for name, accuracy in sorted(report.phase_accuracies.items()):
        out[f"accuracy_{name}"] = accuracy
    for name, accuracy in sorted(report.head_accuracies.items()):
        out[f"accuracy_{name}"] = accuracy
    return out


def bootstrap_ci(
    values: list[float],
    *,
    samples: int,
    confidence: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap CI of the mean of ``values``."""
    data = np.asarray(values, dtype=np.float64)  # repro-lint: ignore[RPR004] summary statistics accumulator, not a training hot path
    if data.size == 1:
        return float(data[0]), float(data[0])
    means = np.empty(samples, dtype=np.float64)  # repro-lint: ignore[RPR004] bootstrap means must not drift with replicate count; f64 keeps the 10-decimal rounding stable
    for b in range(samples):
        idx = rng.integers(0, data.size, size=data.size)
        means[b] = data[idx].mean()
    lo = float(np.percentile(means, (1.0 - confidence) / 2.0 * 100.0))
    hi = float(np.percentile(means, (1.0 + confidence) / 2.0 * 100.0))
    return lo, hi


def _round(x: float) -> float:
    return round(float(x), 10)


def _replicate_row(job: tuple) -> tuple[dict, list[TraceRecord]]:
    """One replicate's summary row and trace records (a forked worker's job)."""
    spec, index, traced, wall_clock = job
    rep = replicate_spec(spec, index)
    tracer = Tracer(enabled=traced, wall_clock=wall_clock)
    report = run_replicate(rep, tracer=tracer)
    row = {"replicate": index, "seed": rep.seed}
    row.update({k: _round(v) for k, v in replicate_metrics(report).items()})
    return row, tracer.records


def build_summary(spec: ScenarioSpec, *, tracer: Tracer | None = None) -> dict:
    """Run every replicate and aggregate the deterministic summary dict.

    Replicates run on forked workers; rows and trace records are merged
    in replicate order, so the summary and ``tracer`` hold the bytes a
    one-after-another run gives.
    """
    # Imported here: multiprocessing is paid by a run, not by importing
    # the scenario CLI.
    from concurrent.futures.process import BrokenProcessPool

    from repro.fleet.pool import fork_map, fork_workers

    count = spec.replicates.count
    traced = tracer is not None and tracer.enabled
    wall_clock = traced and tracer.wall_clock
    jobs = [(spec, r, traced, wall_clock) for r in range(count)]
    try:
        results = fork_map(_replicate_row, jobs, fork_workers(count))
    except BrokenProcessPool as exc:
        raise RuntimeError(
            f"scenario replicate worker died (replicates "
            f"{list(range(count))}); results discarded"
        ) from exc
    per_replicate = [row for row, _ in results]
    if traced:
        for _, records in results:
            tracer.extend(records)
    metric_names = sorted(
        {k for row in per_replicate for k in row if k not in ("replicate", "seed")}
    )
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.seed, _BOOTSTRAP_SALT))
    )
    aggregated: dict[str, dict] = {}
    for name in metric_names:
        values = [row[name] for row in per_replicate if name in row]
        lo, hi = bootstrap_ci(
            values,
            samples=spec.replicates.bootstrap_samples,
            confidence=CONFIDENCE,
            rng=rng,
        )
        aggregated[name] = {
            "values": [_round(v) for v in values],
            "mean": _round(np.mean(values)),
            "ci_lo": _round(lo),
            "ci_hi": _round(hi),
        }
    return {
        "schema": 1,
        "scenario": {
            "name": spec.name,
            "description": spec.description,
            "engine": spec.engine,
            "barrier": spec.barrier,
            "seed": spec.seed,
            "nodes": spec.fleet.num_nodes,
            "stages": spec.num_stages,
            "processes": list(spec.processes),
        },
        "replicates": {
            "count": spec.replicates.count,
            "bootstrap_samples": spec.replicates.bootstrap_samples,
            "confidence": CONFIDENCE,
        },
        "metrics": aggregated,
        "per_replicate": per_replicate,
    }


def summary_json(summary: dict) -> str:
    """Canonical byte-stable rendering of a summary dict."""
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"  # repro-lint: ignore[RPR016] the canonical summary artifact itself; byte-stability is pinned by the scenario-smoke CI diff
