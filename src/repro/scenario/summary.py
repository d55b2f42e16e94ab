"""Deterministic scenario summaries: replicates and bootstrap CIs.

A scenario run is summarized as a JSON document whose bytes are a pure
function of the YAML spec: replicate ``r`` reseeds the whole fleet with
``seed + 9973*r`` (replicate 0 is the spec's own seed, so a
single-replicate summary matches a direct engine run), and the bootstrap
confidence intervals resample with their own salted ``SeedSequence``.
Two invocations of the same spec must produce byte-identical summary
text; the CI job diffs exactly that.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.scenario.event import run_scenario_event
from repro.scenario.report import ScenarioReport
from repro.scenario.schema import ENGINES, ScenarioSpec

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
    spec: ScenarioSpec,
    *,
    engine: str | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> ScenarioReport:
    """Run one replicate on the spec's engine (or an override).

    Both engines are the event engine: ``lockstep`` is its barrier mode,
    ``event`` runs with the spec's ``barrier`` flag.
    """
    return run_scenario_event(
        spec, barrier=_barrier(spec, engine), tracer=tracer, metrics=metrics
    )


def _barrier(spec: ScenarioSpec, engine: str | None) -> bool:
    """Whether a run of ``spec`` on ``engine`` holds the round barrier."""
    engine = engine if engine is not None else spec.engine
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    return engine == "lockstep" or spec.barrier


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


def build_summary(
    spec: ScenarioSpec,
    *,
    engine: str | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Run every replicate and aggregate the deterministic summary dict."""
    per_replicate: list[dict] = []
    for r in range(spec.replicates.count):
        rep = replicate_spec(spec, r)
        report = run_replicate(
            rep, engine=engine, tracer=tracer, metrics=metrics
        )
        row = {"replicate": r, "seed": rep.seed}
        row.update(
            {k: _round(v) for k, v in replicate_metrics(report).items()}
        )
        per_replicate.append(row)
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
            confidence=spec.replicates.confidence,
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
            "engine": engine if engine is not None else spec.engine,
            "barrier": _barrier(spec, engine),
            "seed": spec.seed,
            "nodes": spec.fleet.num_nodes,
            "stages": spec.num_stages,
            "processes": list(spec.processes),
        },
        "replicates": {
            "count": spec.replicates.count,
            "bootstrap_samples": spec.replicates.bootstrap_samples,
            "confidence": spec.replicates.confidence,
        },
        "metrics": aggregated,
        "per_replicate": per_replicate,
    }


def summary_json(summary: dict) -> str:
    """Canonical byte-stable rendering of a summary dict."""
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"  # repro-lint: ignore[RPR016] the canonical summary artifact itself; byte-stability is pinned by the scenario-smoke CI diff
