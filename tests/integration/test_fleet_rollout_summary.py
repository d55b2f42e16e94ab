"""Schema pin for ``examples/fleet_rollout.py --summary-json``.

The summary JSON is the machine-readable contract downstream tooling
(CI smoke diffs, notebook loaders) reads, so its key set and value
types are pinned here against ``build_summary`` directly — no
subprocess run needed.  Renaming or retyping a key must fail this test
before it silently breaks a consumer.  One real barrier run of a 4-node
hierarchy checks the gateway aggregates against the ledger and the
``topology.images.resolved`` counter.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.comm.movement import DataMovementLedger, LedgerTotals

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture(scope="module")
def fleet_rollout():
    spec = importlib.util.spec_from_file_location(
        "fleet_rollout_example", EXAMPLES / "fleet_rollout.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_report() -> SimpleNamespace:
    """A hierarchical run's report, in ``FleetEventReport``'s shape."""
    ledger = DataMovementLedger(image_bytes=100)
    ledger.record(0, acquired=10, uploaded=4)
    ledger.record_download(0, 1234)
    return SimpleNamespace(
        final_eval_accuracy=0.75,
        ledger=ledger,
        rollouts=[
            SimpleNamespace(stage_index=1, promoted=True, canary_ids=(0, 2)),
            SimpleNamespace(stage_index=2, promoted=False, canary_ids=(0,)),
        ],
        gateway_flushes=[SimpleNamespace(gateway_id=0, images=7)],
        gateway_resolved_images={0: 3, 1: 0},
    )


def flat_stub_report() -> SimpleNamespace:
    """A flat run's report: the same shape, with no gateway to count."""
    stub = stub_report()
    stub.gateway_flushes = []
    stub.gateway_resolved_images = {}
    return stub


TOP_LEVEL_SCHEMA = {
    "mode": str,
    "final_accuracy": float,
    "ledger": dict,
    "rollouts": list,
    "gateway_flushes": int,
    "second_opinion_images": int,
}

ROLLOUT_SCHEMA = {
    "stage_index": int,
    "promoted": bool,
    "canary_ids": list,
}


class TestSummarySchema:
    def test_key_set_and_types_are_pinned(self, fleet_rollout):
        summary = fleet_rollout.build_summary(stub_report(), mode="flat")
        assert set(summary) == set(TOP_LEVEL_SCHEMA)
        for key, expected in TOP_LEVEL_SCHEMA.items():
            assert isinstance(summary[key], expected), key

    def test_ledger_block_mirrors_ledger_totals(self, fleet_rollout):
        summary = fleet_rollout.build_summary(stub_report(), mode="topology")
        expected = {f.name for f in dataclasses.fields(LedgerTotals)}
        assert set(summary["ledger"]) == expected
        assert all(
            isinstance(v, int) for v in summary["ledger"].values()
        )

    def test_rollout_entries_are_pinned(self, fleet_rollout):
        summary = fleet_rollout.build_summary(stub_report(), mode="flat")
        assert len(summary["rollouts"]) == 2
        for entry in summary["rollouts"]:
            assert set(entry) == set(ROLLOUT_SCHEMA)
            for key, expected in ROLLOUT_SCHEMA.items():
                assert isinstance(entry[key], expected), key
        assert all(
            isinstance(i, int)
            for entry in summary["rollouts"]
            for i in entry["canary_ids"]
        )

    def test_summary_is_json_round_trippable(self, fleet_rollout):
        summary = fleet_rollout.build_summary(stub_report(), mode="flat")
        text = json.dumps(summary, sort_keys=True, indent=2)
        assert json.loads(text) == summary

    def test_aggregates_derive_from_gateway_flushes(self, fleet_rollout):
        summary = fleet_rollout.build_summary(stub_report(), mode="topology")
        assert summary["gateway_flushes"] == 1
        assert summary["second_opinion_images"] == 3

    def test_flat_report_has_no_gateway_aggregates(self, fleet_rollout):
        flat = fleet_rollout.build_summary(flat_stub_report(), mode="flat")
        hier = fleet_rollout.build_summary(stub_report(), mode="flat")
        assert flat["gateway_flushes"] == flat["second_opinion_images"] == 0
        assert flat["final_accuracy"] == hier["final_accuracy"]
        assert flat["ledger"] == hier["ledger"]
        assert flat["rollouts"] == hier["rollouts"]


class TestRealHierarchicalRun:
    """``build_summary`` over a real barrier run of a 4-node hierarchy."""

    def test_aggregates_match_the_ledger_and_metrics(self, fleet_rollout):
        from repro.core import system_by_id
        from repro.fleet import (
            FleetScenario,
            fleet_base_scenario,
            prepare_fleet_assets,
            run_fleet_event,
        )
        from repro.obs import MetricsRegistry
        from repro.topology import AggregationPolicy, Topology

        assets = prepare_fleet_assets(
            FleetScenario(
                base=fleet_base_scenario(
                    stream_scale=0.02,
                    pretrain_images=32,
                    pretrain_epochs=1,
                    init_epochs=2,
                    update_epochs=1,
                    eval_images=32,
                ),
                num_nodes=4,
                seed=0,
            )
        )
        metrics = MetricsRegistry()
        report = run_fleet_event(
            system_by_id("d"),
            assets,
            barrier=True,
            metrics=metrics,
            topology=Topology.fan_out(
                4,
                2,
                aggregation=AggregationPolicy(
                    flush_images=8, max_age_stages=2
                ),
                second_opinion_fraction=0.5,
            ),
        )
        summary = fleet_rollout.build_summary(report, mode="topology")
        assert summary["gateway_flushes"] > 0
        assert (
            summary["gateway_flushes"]
            == report.ledger.snapshot().wan_transfer_events
        )
        resolved = metrics.counter(
            "topology.images.resolved", system="d", tier="gateway"
        ).value
        assert summary["second_opinion_images"] == resolved > 0
