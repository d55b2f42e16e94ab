"""Scenario engines: lockstep ≡ event-barrier, worker invariance, churn.

The scenario layer composes three seeded processes (churn, class phases,
per-node heads) onto both fleet engines.  The anchor is the same one the
bare fleet holds: with identical assets and spec, the event kernel in
barrier mode must reproduce the lockstep engine's trajectories, byte
ledgers, registry history, and scenario stage info exactly — the only
thing allowed to differ is simulated time.
"""

from __future__ import annotations

import pytest

from repro.scenario import run_scenario_lockstep


def accuracy_grid(report):
    return [n.accuracy_trajectory for n in report.fleet.nodes]


class TestLockstepEventEquivalence:
    def test_stage_info_identical(self, lockstep_report, event_barrier_report):
        assert lockstep_report.stage_info == event_barrier_report.stage_info

    def test_churn_actually_fired(self, lockstep_report):
        # the tiny spec is only a meaningful equivalence witness if all
        # three processes visibly ran
        alive_counts = {len(i.alive) for i in lockstep_report.stage_info}
        assert len(alive_counts) > 1, "churn never downed a node"
        assert lockstep_report.reconciliations >= 1
        assert any(i.head_versions for i in lockstep_report.stage_info)
        assert {i.phase for i in lockstep_report.stage_info} == {"p0", "p1"}

    def test_accuracy_trajectories_identical(
        self, lockstep_report, event_barrier_report
    ):
        assert accuracy_grid(lockstep_report) == accuracy_grid(
            event_barrier_report
        )

    def test_byte_ledgers_identical(self, lockstep_report, event_barrier_report):
        a, b = lockstep_report.fleet, event_barrier_report.fleet
        assert a.total_uploaded_bytes == b.total_uploaded_bytes
        assert a.total_downloaded_bytes == b.total_downloaded_bytes

    def test_registry_history_identical(
        self, lockstep_report, event_barrier_report
    ):
        a, b = lockstep_report.registry, event_barrier_report.registry
        assert [(v.version, v.track) for v in a.versions()] == [
            (v.version, v.track) for v in b.versions()
        ]
        assert a.tracks() == b.tracks()
        assert a.active.version == b.active.version

    def test_rollout_verdicts_identical(
        self, lockstep_report, event_barrier_report
    ):
        a = [(r.stage_index, r.promoted, r.canary_ids) for r in lockstep_report.fleet.rollouts]
        b = [(r.stage_index, r.promoted, r.canary_ids) for r in event_barrier_report.fleet.rollouts]
        assert a == b

    def test_final_evaluations_identical(
        self, lockstep_report, event_barrier_report
    ):
        assert (
            lockstep_report.final_eval_accuracy
            == event_barrier_report.final_eval_accuracy
        )
        assert (
            lockstep_report.phase_accuracies
            == event_barrier_report.phase_accuracies
        )
        assert (
            lockstep_report.head_accuracies
            == event_barrier_report.head_accuracies
        )

    def test_head_updates_identical_modulo_state(
        self, lockstep_report, event_barrier_report
    ):
        # archived updates are state-stripped, so dataclass equality is
        # exact field equality
        assert lockstep_report.head_updates == event_barrier_report.head_updates


class TestWorkerInvariance:
    def test_two_workers_bit_identical(self, tiny_spec, tiny_assets, lockstep_report):
        two = run_scenario_lockstep(tiny_spec, assets=tiny_assets, workers=2)
        assert accuracy_grid(two) == accuracy_grid(lockstep_report)
        assert two.stage_info == lockstep_report.stage_info
        assert two.final_eval_accuracy == lockstep_report.final_eval_accuracy


class TestAsyncMode:
    def test_async_completes_the_schedule(self, tiny_spec, event_async_report):
        assert event_async_report.mode == "event"
        assert event_async_report.fleet.makespan_s > 0.0
        assert len(event_async_report.stage_info) == tiny_spec.num_stages
        assert 0.0 <= event_async_report.final_eval_accuracy <= 1.0

    def test_async_respects_churn_plan(
        self, event_async_report, event_barrier_report
    ):
        # the churn plan is pure data, so asynchrony cannot change who
        # was alive when
        assert [i.alive for i in event_async_report.stage_info] == [
            i.alive for i in event_barrier_report.stage_info
        ]


class TestChurnSemantics:
    def test_stage_zero_everyone_alive(self, tiny_spec, lockstep_report):
        assert lockstep_report.stage_info[0].alive == tuple(
            range(tiny_spec.fleet.num_nodes)
        )

    def test_downed_nodes_have_no_stage_records(self, lockstep_report):
        alive_by_stage = {
            i.stage_index: set(i.alive) for i in lockstep_report.stage_info
        }
        for node in lockstep_report.fleet.nodes:
            recorded = {r.stage_index for r in node.records}
            expected = {
                s
                for s, alive in alive_by_stage.items()
                if node.profile.node_id in alive
            }
            assert recorded == expected

    def test_reconciliations_cost_bytes(self, lockstep_report):
        for info in lockstep_report.stage_info:
            if info.reconciled:
                assert info.reconcile_bytes > 0
            else:
                assert info.reconcile_bytes == 0

    def test_node_records_sum_to_node_ledger(self, lockstep_report):
        # a rejoining node's catch-up download is part of its stage record
        assert lockstep_report.reconciliations >= 1
        for node in lockstep_report.fleet.nodes:
            assert (
                sum(r.download_bytes for r in node.records)
                == node.ledger.total_downloaded_bytes
            )

    def test_download_energy_matches_event_barrier(
        self, lockstep_report, event_barrier_report
    ):
        lockstep = [
            sum(r.download_energy_j for r in node.records)
            for node in lockstep_report.fleet.nodes
        ]
        event = [n.download_energy_j for n in event_barrier_report.fleet.nodes]
        assert lockstep == pytest.approx(event)

    def test_reconciled_nodes_rejoined_that_stage(self, lockstep_report):
        # only a node that was absent earlier can owe a catch-up download
        seen_down = set()
        for info in lockstep_report.stage_info:
            assert set(info.reconciled) <= seen_down
            alive = set(info.alive)
            seen_down |= set(range(len(lockstep_report.fleet.nodes))) - alive


class TestSpecializedHeads:
    def test_heads_are_registry_track_versions(self, lockstep_report):
        registry = lockstep_report.registry
        version_map = lockstep_report.head_version_map()
        assert version_map, "no head was ever accepted"
        for group, versions in version_map.items():
            track = f"head-{group}"
            assert track in registry.tracks()
            assert tuple(v.version for v in registry.versions(track)) == versions

    def test_head_versions_never_become_active(self, lockstep_report):
        assert lockstep_report.registry.active.track == "main"

    def test_rejected_heads_publish_nothing(self, lockstep_report):
        for update in lockstep_report.head_updates:
            if not update.accepted:
                assert update.version is None
                assert update.push_bytes == 0

    def test_head_pushes_are_smaller_than_full_models(self, lockstep_report):
        from repro.fleet.uplink import model_state_bytes

        full = model_state_bytes(lockstep_report.registry.active.state)
        for update in lockstep_report.head_updates:
            if update.accepted:
                assert 0 < update.push_bytes < full
