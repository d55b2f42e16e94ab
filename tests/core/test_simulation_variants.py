"""Simulation variants: diagnoser kinds, schedules, severities."""

from __future__ import annotations

import pytest

from repro.core import Scenario, system_by_id
from repro.fleet import prepare_assets, run_fleet_event


def tiny(**overrides):
    base = dict(
        num_classes=4,
        stream_scale=0.15,
        pretrain_images=40,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=40,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def run_one(system_id: str, scenario: Scenario):
    """One system's barrier run over the scenario's one-node fleet."""
    assets = prepare_assets(scenario)
    return run_fleet_event(system_by_id(system_id), assets, barrier=True)


class TestDiagnoserVariants:
    @pytest.mark.parametrize("kind", ["oracle", "confidence", "jigsaw"])
    def test_each_diagnoser_completes(self, kind):
        report = run_one("d", tiny(diagnoser_kind=kind))
        records = report.nodes[0].records
        assert len(records) == 5
        # Movement bookkeeping is always internally consistent.
        for stage in records:
            assert 0 <= stage.uploaded <= stage.acquired


class TestScheduleVariants:
    def test_custom_schedule_length(self):
        report = run_one("c", tiny(schedule_k=(100, 200, 400)))
        assert len(report.nodes[0].records) == 3

    def test_custom_severities_respected(self):
        severities = (0.1, 0.2, 0.3, 0.4, 0.5)
        assets = prepare_assets(tiny(severities=severities))
        stages = assets.node_stages[0]
        assert tuple(s.drift_severity for s in stages) == severities
        assert assets.profiles[0].severities == severities

    def test_severity_count_must_match(self):
        scenario = tiny(
            schedule_k=(100, 200), severities=(0.1, 0.2, 0.3)
        )
        with pytest.raises(ValueError):
            prepare_assets(scenario)


class TestSystemAccounting:
    def test_system_a_never_skips_training(self):
        report = run_one("a", tiny())
        assert [u.pooled_for_training for u in report.updates] == [
            r.acquired for r in report.nodes[0].records
        ]

    def test_transfer_energy_positive_when_uploading(self):
        report = run_one("a", tiny())
        for stage in report.nodes[0].records:
            assert stage.upload_energy_j > 0
