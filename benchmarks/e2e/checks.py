"""Output checks: every one is an operation the benchmark can fail.

A check returns ``(name, ok, detail)``.  The child runs the per-report
checks on what the engine returned; the parent runs the cross-run ones
(``sim_digest`` identical across repetitions, the traced run and the
serial twin).  Wall-clock fields (``CloudUpdateReport.wall_time_s``) never
enter the digest: it fingerprints what the modelled fleet did, so a change
that only speeds up the simulator must leave it untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

Check = tuple[str, bool, str]


def canonical_digest(payload) -> str:
    """sha256 of the canonical (sorted-key, compact) JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rollouts(report) -> list:
    return [
        {
            "stage": r.stage_index,
            "promoted": r.promoted,
            "accepted": r.decision.accepted,
            "before": r.decision.accuracy_before,
            "after": r.decision.accuracy_after,
            "canaries": list(r.canary_ids),
            "pooled": r.pooled_images,
            "images_used": r.report.images_used,
            "sim_time_s": r.report.modeled_time_s,
            "events": [
                [e.stage_index, e.node_id, e.version, e.kind] for e in r.events
            ],
        }
        for r in report.rollouts
    ]


def _registry(registry) -> dict:
    return {
        "active": registry.active.version if len(registry) else None,
        "versions": [
            [v.version, v.track, sorted(v.metadata.items())]
            for v in registry.versions()
        ],
    }


def fleet_payload(report) -> dict:
    """Digest payload of a ``FleetReport`` or ``FleetEventReport``."""
    payload = {
        "system": report.config.system_id,
        "node_accuracy": [t.accuracy_trajectory for t in report.nodes],
        "node_ledgers": [
            dataclasses.asdict(t.ledger.snapshot()) for t in report.nodes
        ],
        "ledger": dataclasses.asdict(report.ledger.snapshot()),
        "registry": _registry(report.registry),
        "rollouts": _rollouts(report),
    }
    if hasattr(report, "stages"):  # lockstep
        payload["eval_accuracy"] = [s.eval_accuracy for s in report.stages]
    else:  # event
        payload["eval_accuracy"] = [u.eval_accuracy for u in report.updates]
        payload["final_eval_accuracy"] = report.final_eval_accuracy
        payload["makespan_s"] = report.makespan_s
        payload["epochs_by_node"] = sorted(report.epochs_by_node.items())
        payload["gateway_flushes"] = [
            dataclasses.astuple(f) for f in report.gateway_flushes
        ]
    return payload


def _in_unit_interval(values: list[float]) -> Check:
    bad = [a for a in values if not 0.0 <= a <= 1.0]
    return (
        "accuracies_in_unit_interval",
        not bad,
        f"{len(bad)} of {len(values)} outside [0,1]",
    )


def check_accuracies(report) -> Check:
    values = [a for t in report.nodes for a in t.accuracy_trajectory]
    if hasattr(report, "stages"):
        values += [s.eval_accuracy for s in report.stages]
    else:
        values += [u.eval_accuracy for u in report.updates]
        values.append(report.final_eval_accuracy)
    return _in_unit_interval(values)


def check_ledger_conservation(report) -> Check:
    up = sum(t.ledger.total_uploaded_bytes for t in report.nodes)
    down = sum(t.ledger.total_downloaded_bytes for t in report.nodes)
    ok = (
        up == report.ledger.total_uploaded_bytes
        and down == report.ledger.total_downloaded_bytes
    )
    return (
        "ledger_conservation",
        ok,
        f"nodes up/down {up}/{down} vs fleet "
        f"{report.ledger.total_uploaded_bytes}/"
        f"{report.ledger.total_downloaded_bytes}",
    )


def check_node_coverage(report) -> Check:
    """Lockstep: every node ran every stage.  Event: at least one epoch."""
    if hasattr(report, "stages"):
        want = len(report.stages)
        short = [t.profile.node_id for t in report.nodes if len(t.records) != want]
        return ("every_node_ran_every_stage", not short, f"short nodes: {short}")
    idle = [n for n, epochs in sorted(report.epochs_by_node.items()) if epochs < 1]
    return ("every_node_ran_an_epoch", not idle, f"idle nodes: {idle}")


def check_registry_monotone(registry) -> Check:
    versions = [v.version for v in registry.versions()]
    ok = versions == list(range(1, len(versions) + 1))
    return ("registry_versions_monotone", ok, f"versions: {versions}")


def report_checks(report) -> list[Check]:
    return [
        check_accuracies(report),
        check_ledger_conservation(report),
        check_node_coverage(report),
        check_registry_monotone(report.registry),
    ]


def check_scenario_summary(summary_text: str) -> tuple[Check, dict | None]:
    """The scenario CLI's ``--out`` file parses and is schema 1."""
    try:
        summary = json.loads(summary_text)
    except ValueError as exc:
        return ("scenario_summary_schema", False, f"not JSON: {exc}"), None
    ok = summary.get("schema") == 1 and bool(summary.get("per_replicate"))
    return ("scenario_summary_schema", ok, f"schema={summary.get('schema')!r}"), summary


def check_summary_accuracies(summary: dict) -> Check:
    values = [
        v
        for name, row in summary["metrics"].items()
        if "accuracy" in name
        for v in row["values"]
    ]
    return _in_unit_interval(values)


def shm_listing() -> list[str]:
    try:
        return sorted(os.listdir("/dev/shm"))
    except OSError:
        return []


def check_shm_clean(before: list[str]) -> Check:
    after = shm_listing()
    leaked = sorted(set(after) - set(before))
    return ("dev_shm_unchanged", after == before, f"leaked: {leaked}")


def check_patches_restored(patches) -> Check:
    stuck = [f"{p.owner.__name__}.{p.attr}" for p in patches if not p.restored()]
    return ("wrappers_removed", not stuck, f"still patched: {stuck}")


def check_same_digest(digests: dict[str, str]) -> Check:
    """``{run label: digest}`` — all runs of one seed must agree."""
    distinct = sorted(set(digests.values()))
    return (
        "sim_digest_identical",
        len(distinct) == 1,
        f"{len(distinct)} distinct over {sorted(digests)}",
    )
