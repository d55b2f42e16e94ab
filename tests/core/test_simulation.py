"""The paper's four systems as one-node fleets, at a small, fast scale.

``run_all_systems`` is four barrier event runs over the one-node fleet
``prepare_assets`` builds; these tests read Table II / Fig. 25 straight
off the reports.  ``TestGoldens`` pins every number those figures show
to the values the single-node stage loop it replaced produced.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core import Scenario
from repro.core.simulation import scenario_data
from repro.fleet import prepare_assets, run_all_systems

#: sha256 of ``table_payload`` over all four systems, recorded with the
#: single-node stage loop (``core.simulation.run_system``) the one-node
#: fleets replaced.  Unpinned BLAS and ``OPENBLAS_NUM_THREADS=1`` agree.
GOLDENS = {
    "oracle": (
        "da998a653630ac264177dee3d070f8e1d6580045b4d468a1f71c30bbe907ca7d"
    ),
    "confidence": (
        "900a73398b96d093f6a4ec82bb7831fba486f2c6b065f9a4f67a4029e5aa47a3"
    ),
}


@pytest.fixture(scope="module")
def fast_scenario():
    """Small but complete scenario: ~30 s for all four systems."""
    return Scenario(
        num_classes=4,
        stream_scale=0.2,
        pretrain_images=60,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=60,
        seed=7,
    )


@pytest.fixture(scope="module")
def results(fast_scenario):
    return run_all_systems(fast_scenario)


@pytest.fixture(scope="module")
def confidence_results(fast_scenario):
    return run_all_systems(replace(fast_scenario, diagnoser_kind="confidence"))


def movement(report) -> list[float]:
    """Table II row: per-stage upload fraction of the one node."""
    return [r.uploaded / r.acquired for r in report.nodes[0].records]


def per_stage(report, field: str) -> list[float]:
    """Per-stage sum of one ``CloudUpdateRecord`` field (0.0: no update)."""
    return [
        sum(
            (getattr(u, field) for u in report.updates if u.stage_index == s),
            0.0,
        )
        for s in range(len(report.nodes[0].records))
    ]


def eval_after(report) -> list[float]:
    """Held-out accuracy of the Cloud model as each stage closes."""
    return [
        [u.eval_accuracy for u in report.updates if u.stage_index <= s][-1]
        for s in range(len(report.nodes[0].records))
    ]


def total_energy_j(report) -> float:
    return report.total_cloud_energy_j + report.nodes[0].total_upload_energy_j


def table_payload(results) -> dict:
    """Everything Table II and Fig. 25 show, per system and stage."""
    return {
        sid: {
            "movement": movement(report),
            "update_time_s": per_stage(report, "modeled_time_s"),
            "cloud_energy_j": per_stage(report, "modeled_energy_j"),
            "upload_energy_j": [
                r.upload_energy_j for r in report.nodes[0].records
            ],
            "eval_accuracy": eval_after(report),
        }
        for sid, report in sorted(results.items())
    }


class TestScenario:
    def test_invalid_diagnoser_kind(self):
        with pytest.raises(ValueError):
            Scenario(diagnoser_kind="psychic")

    def test_prepare_assets_shapes(self, fast_scenario):
        assets = prepare_assets(fast_scenario)
        assert len(assets.node_stages) == 1
        assert len(assets.node_stages[0]) == 5
        pretrain = scenario_data(fast_scenario)["pretrain_data"]
        assert len(pretrain) <= fast_scenario.pretrain_images
        (profile,) = assets.profiles
        assert (profile.link_kind, profile.device_kind) == ("wifi", "tx1")
        assert assets.canary_ids == (0,)
        assert assets.scenario.max_regression == 1.0


class TestGoldens:
    @pytest.mark.parametrize("kind", ["oracle", "confidence"])
    def test_figures_match_the_single_node_loop(
        self, kind, results, confidence_results
    ):
        runs = results if kind == "oracle" else confidence_results
        text = json.dumps(table_payload(runs), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDENS[kind]


class TestPolicies(object):
    def test_all_four_systems_ran(self, results):
        assert set(results) == {"a", "b", "c", "d"}
        for r in results.values():
            assert len(r.nodes[0].records) == 5

    def test_a_and_b_upload_everything(self, results):
        for sid in ("a", "b"):
            assert all(m == 1.0 for m in movement(results[sid]))

    def test_c_and_d_upload_less(self, results):
        for sid in ("c", "d"):
            row = movement(results[sid])
            assert row[0] == 1.0  # initial stage ships everything
            assert sum(row[1:]) < 4.0  # later stages upload a subset

    def test_initial_stage_identical_across_systems(self, results):
        accs = {sid: eval_after(r)[0] for sid, r in results.items()}
        assert len(set(accs.values())) == 1

    def test_d_updates_faster_than_a(self, results):
        """In-situ AI's headline: reduced model update time."""
        a = per_stage(results["a"], "modeled_time_s")
        d = per_stage(results["d"], "modeled_time_s")
        for ta, td in zip(a[1:], d[1:]):
            if td:
                assert td < ta

    def test_d_saves_energy(self, results):
        assert total_energy_j(results["d"]) < total_energy_j(results["a"])

    def test_b_pays_cloud_scan_over_c(self, results):
        """System b's cloud-side diagnosis costs extra cloud compute."""
        assert (
            results["b"].total_cloud_energy_j
            > results["c"].total_cloud_energy_j
        )

    def test_transfer_energy_tracks_movement(self, results):
        assert (
            results["c"].nodes[0].total_upload_energy_j
            < results["a"].nodes[0].total_upload_energy_j
        )


class TestRunSystemOptions:
    def test_confidence_diagnoser_variant(self, confidence_results):
        assert len(confidence_results["d"].nodes[0].records) == 5

    def test_stage_records_consistent(self, results):
        for r in results.values():
            for stage in r.nodes[0].records:
                assert stage.uploaded <= stage.acquired
                assert 0.0 <= stage.accuracy_on_new <= 1.0
            for update in r.updates:
                assert 0.0 <= update.eval_accuracy <= 1.0
                assert update.modeled_time_s >= 0.0
