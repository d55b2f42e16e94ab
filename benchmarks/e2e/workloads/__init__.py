"""The four benchmark workloads: inputs built from a seed, one engine run.

Each workload is a ``prepare(seed, scratch)`` (the set-up phase a CLI user
pays: scenario/spec construction and asset preparation, dataset cache
cold) and a ``run(prepared)`` (the timed region: engine entry to report
returned).  The program under test sees only the generated inputs.

Sizes are cut to what fits the benchmark's run-time cap on a 2-core box
(see README.md, "Time budget"); the *shape* of each workload — which
layers carry the time — is what the names promise, and the traced run
checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import checks

TEMPLATE = Path(__file__).with_name("scenario_full.yaml.tmpl")

@dataclass
class Outcome:
    """What one engine run did, reduced to numbers and a fingerprint."""

    engine_runs: int
    node_epochs: int
    final_accuracy: float  # mean over the systems / replicates run
    upload_bytes: int
    download_bytes: int
    digest: str
    checks: list[checks.Check] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    prepare: object  # (seed: int, scratch: Path) -> prepared
    run: object  # (prepared) -> Outcome
    twin: object = None  # serial re-run on the same prepared inputs


def _fleet_outcome(reports) -> Outcome:
    """Fold one or more lockstep/event fleet reports into an Outcome."""
    found: list[checks.Check] = []
    epochs = 0
    accuracies = []
    for report in reports:
        found += checks.report_checks(report)
        if hasattr(report, "stages"):
            epochs += len(report.nodes) * len(report.stages)
            accuracies.append(report.final_accuracy)
        else:
            epochs += sum(report.epochs_by_node.values())
            accuracies.append(report.final_eval_accuracy)
    return Outcome(
        engine_runs=len(reports),
        node_epochs=epochs,
        final_accuracy=sum(accuracies) / len(accuracies),
        upload_bytes=sum(r.total_uploaded_bytes for r in reports),
        download_bytes=sum(r.total_downloaded_bytes for r in reports),
        digest=checks.canonical_digest([checks.fleet_payload(r) for r in reports]),
        checks=found,
    )


# ----------------------------------------------------------------------
# fleet_cloud_n4: lockstep, Cloud retrain dominates
# ----------------------------------------------------------------------
# Three stages and a 32-image eval set instead of five and 96: with four
# nodes the per-stage evaluation passes would otherwise outweigh the
# retrain this workload exists to time.
FLEET_CLOUD = dict(
    num_nodes=4,
    systems="ad",
    base=dict(schedule_k=(100, 200, 400), eval_images=32),
)


def _prepare_fleet_cloud(seed: int, scratch: Path):
    from repro.fleet.profiles import FleetScenario
    from repro.fleet.simulation import fleet_base_scenario, prepare_fleet_assets

    return prepare_fleet_assets(
        FleetScenario(
            fleet_base_scenario(**FLEET_CLOUD["base"]),
            num_nodes=FLEET_CLOUD["num_nodes"],
            seed=seed,
        )
    )


def _run_fleet_cloud(assets) -> Outcome:
    from repro.core.systems import system_by_id
    from repro.fleet.simulation import run_fleet

    return _fleet_outcome(
        [run_fleet(system_by_id(s), assets) for s in FLEET_CLOUD["systems"]]
    )


# ----------------------------------------------------------------------
# fleet_nodes_n8_w2: lockstep on the worker pool, Cloud idle
# ----------------------------------------------------------------------
FLEET_NODES = dict(num_nodes=8, workers=2, upload_threshold=10**9)


def _prepare_fleet_nodes(seed: int, scratch: Path):
    from repro.fleet.profiles import FleetScenario
    from repro.fleet.simulation import fleet_base_scenario, prepare_fleet_assets

    return prepare_fleet_assets(
        FleetScenario(
            fleet_base_scenario(diagnoser_kind="jigsaw"),
            num_nodes=FLEET_NODES["num_nodes"],
            scheduler_policy="threshold",
            upload_threshold=FLEET_NODES["upload_threshold"],
            seed=seed,
        )
    )


def _run_fleet_nodes(assets, workers: int = FLEET_NODES["workers"]) -> Outcome:
    from repro.core.systems import system_by_id
    from repro.fleet.simulation import run_fleet

    before = checks.shm_listing()
    outcome = _fleet_outcome(
        [run_fleet(system_by_id("d"), assets, workers=workers)]
    )
    outcome.checks.append(checks.check_shm_clean(before))
    return outcome


def _twin_fleet_nodes(assets) -> Outcome:
    return _run_fleet_nodes(assets, workers=1)


# ----------------------------------------------------------------------
# event_topology_n4: event kernel + gateways, overlapping retrains
# ----------------------------------------------------------------------
# horizon_s is fixed so every seed runs about 45-50 node epochs and three
# to five overlapping Cloud retrains.  At 3 s the first retrain lands on
# either side of the horizon depending on the seed, and wall time jumps 40%.
EVENT_TOPOLOGY = dict(
    num_nodes=4,
    fan_out=2,
    flush_images=32,
    max_age_stages=2,
    second_opinion_fraction=0.25,
    per_transfer_overhead_bytes=2000,
    horizon_s=4.0,
)


def _prepare_event_topology(seed: int, scratch: Path):
    from repro.fleet.profiles import FleetScenario
    from repro.fleet.simulation import fleet_base_scenario, prepare_fleet_assets
    from repro.topology import AggregationPolicy, Topology

    p = EVENT_TOPOLOGY
    assets = prepare_fleet_assets(
        FleetScenario(fleet_base_scenario(), num_nodes=p["num_nodes"], seed=seed)
    )
    topology = Topology.fan_out(
        p["num_nodes"],
        p["fan_out"],
        aggregation=AggregationPolicy(
            flush_images=p["flush_images"], max_age_stages=p["max_age_stages"]
        ),
        second_opinion_fraction=p["second_opinion_fraction"],
        per_transfer_overhead_bytes=p["per_transfer_overhead_bytes"],
    )
    return assets, topology


def _run_event_topology(prepared) -> Outcome:
    from repro.core.systems import system_by_id
    from repro.fleet.async_sim import run_fleet_event

    assets, topology = prepared
    return _fleet_outcome(
        [
            run_fleet_event(
                system_by_id("d"),
                assets,
                barrier=False,
                horizon_s=EVENT_TOPOLOGY["horizon_s"],
                topology=topology,
            )
        ]
    )


# ----------------------------------------------------------------------
# scenario_full: the scenario CLI end to end
# ----------------------------------------------------------------------
# Wall time follows how many node-stages churn leaves alive, which the
# seed decides: four replicates and a 0.15 churn rate (full_insitu.yaml has
# two and 0.25) keep that seed-to-seed swing under 10%; the smaller
# pretrain/eval sets pay for the extra replicates.
SCENARIO_FULL = dict(
    nodes=4, stages=3, replicates=4, bootstrap_samples=200,
    pretrain_images=48, eval_images=32, churn_rate=0.15,
)


def _prepare_scenario_full(seed: int, scratch: Path):
    # Import cost belongs to set-up here as in the fleet workloads.
    import repro.scenario.cli  # noqa: F401

    text = TEMPLATE.read_text(encoding="utf-8").format(seed=seed, **SCENARIO_FULL)
    spec_path = scratch / f"scenario_full.seed{seed}.yaml"
    spec_path.write_text(text, encoding="utf-8")
    return spec_path


def _run_scenario_full(spec_path: Path) -> Outcome:
    from repro.scenario import cli

    out_path = spec_path.with_suffix(".summary.json")
    status = cli.main(["run", str(spec_path), "--out", str(out_path)])
    found: list[checks.Check] = [("scenario_cli_exit_0", status == 0, f"exit {status}")]
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    schema_check, summary = checks.check_scenario_summary(text)
    found.append(schema_check)
    if summary is None:
        return Outcome(1, 0, 0.0, 0, 0, checks.canonical_digest(text), found)
    found.append(checks.check_summary_accuracies(summary))
    rows = summary["per_replicate"]
    node_stages = summary["scenario"]["nodes"] * summary["scenario"]["stages"]
    return Outcome(
        engine_runs=len(rows),
        node_epochs=int(sum(node_stages - r["downed_node_stages"] for r in rows)),
        final_accuracy=summary["metrics"]["final_eval_accuracy"]["mean"],
        upload_bytes=int(sum(r["uploaded_bytes"] for r in rows)),
        download_bytes=int(sum(r["downloaded_bytes"] for r in rows)),
        digest=checks.canonical_digest(summary),
        checks=found,
    )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "fleet_cloud_n4",
        "python -m repro fleet, lockstep systems a then d: Cloud retrain "
        "(full-backward, then frozen-prefix) dominates; retrain, overlap and "
        "im2col work must show here",
        FLEET_CLOUD,
        _prepare_fleet_cloud,
        _run_fleet_cloud,
    ),
    Workload(
        "fleet_nodes_n8_w2",
        "jigsaw diagnosis on 8 nodes over the 2-worker pool, Cloud never "
        "retrains: bypasses every Cloud-retrain change (prediction: no move) "
        "and is the only run with fleet.pool on the blocking path",
        FLEET_NODES,
        _prepare_fleet_nodes,
        _run_fleet_nodes,
        _twin_fleet_nodes,
    ),
    Workload(
        "event_topology_n4",
        "event kernel + fan-out gateways with a horizon: same nn/node/cloud "
        "layers driven by events.kernel and events.flows with overlapping "
        "retrains and gateway flushes; guards the event/topology mirrors",
        EVENT_TOPOLOGY,
        _prepare_event_topology,
        _run_event_topology,
    ),
    Workload(
        "scenario_full",
        "scenario CLI on a generated YAML: yaml_lite/schema, churn + "
        "reconcile, exemplar replay + distillation, per-group heads, "
        "replicate fan-out and bootstrap summary, none of which the others touch",
        SCENARIO_FULL,
        _prepare_scenario_full,
        _run_scenario_full,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
