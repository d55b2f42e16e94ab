"""Scenario engines: lockstep ≡ event-barrier, worker invariance, churn.

The scenario layer composes three seeded processes (churn, class phases,
per-node heads) onto both fleet engines.  The anchor is the same one the
bare fleet holds: with identical assets and spec, the event kernel in
barrier mode must reproduce the lockstep engine's trajectories, byte
ledgers, registry history, and scenario stage info exactly — the only
thing allowed to differ is simulated time.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.systems import system_by_id
from repro.fleet.async_sim import _EventFleet
from repro.fleet.simulation import _run_fleet_schedule, build_fleet_runtime
from repro.fleet.uplink import SharedUplink
from repro.obs import Tracer
from repro.scenario import ScenarioReport, build_plans, run_scenario_lockstep
from repro.scenario.event import ScenarioEventHooks
from repro.scenario.lockstep import ScenarioHooks
from repro.scenario.report import ScenarioState, configure_cloud
from repro.topology import AggregationPolicy, Topology


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


class TestChurnOverGateways:
    """Tier and hooks are independent arguments of both engines.

    No spec field or CLI exposes the combination yet, so the engines are
    built by hand: the gateway tier *and* the scenario hooks, once on
    the lockstep stage loop and once on the event engine with the
    barrier.  The tier is never told about the hooks (or the reverse);
    the engine hands each round's alive ids to ``collect_round``.
    """

    @pytest.fixture(scope="class")
    def composed(self, tiny_spec, tiny_assets):
        config = system_by_id("d")
        topology = Topology.fan_out(
            tiny_spec.fleet.num_nodes,
            2,
            aggregation=AggregationPolicy(flush_images=8, max_age_stages=2),
            second_opinion_fraction=0.5,
        )
        collected = []

        def run(make_tier, make_hooks, engine):
            tier = make_tier()
            runtime = build_fleet_runtime(
                config, tiny_assets, canary_ids=tier.canary_ids
            )
            configure_cloud(runtime, tiny_spec)
            report = ScenarioReport(
                spec=tiny_spec, mode="", fleet=None, registry=runtime.registry
            )
            state = ScenarioState(
                tiny_spec,
                build_plans(tiny_spec, tiny_assets.profiles),
                tiny_assets,
                runtime,
                report,
                Tracer(enabled=False),
            )
            report.fleet = engine(config, runtime, tier, make_hooks(state))
            return report

        def event_engine(config, runtime, tier, hooks):
            collect = tier.collect_round

            def spy(engine, round_index, alive_ids):
                collected.append((round_index, alive_ids))
                return collect(engine, round_index, alive_ids)

            tier.collect_round = spy
            return _EventFleet(
                config,
                tiny_assets,
                runtime,
                tier,
                horizon_s=None,
                barrier=True,
                acquire_time_s=0.0,
                hooks=hooks,
            ).run()

        lockstep = run(
            lambda: topology.lockstep_tier(
                config,
                tiny_assets,
                SharedUplink(tiny_assets.scenario.backhaul_bps),
            ),
            ScenarioHooks,
            lambda config, runtime, tier, hooks: _run_fleet_schedule(
                config, tiny_assets, runtime, tier, None, hooks=hooks
            ),
        )
        event = run(
            lambda: topology.event_tier(config, tiny_assets),
            ScenarioEventHooks,
            event_engine,
        )
        return lockstep, event, collected

    def test_both_complete_under_churn(self, composed, tiny_spec):
        lockstep, event, _ = composed
        for report in (lockstep, event):
            assert len(report.stage_info) == tiny_spec.num_stages
            assert len({len(i.alive) for i in report.stage_info}) > 1
            assert report.fleet.ledger.snapshot().wan_transfer_events > 0

    def test_engine_hands_alive_ids_to_the_tier(self, composed):
        _, event, collected = composed
        assert collected == [(i.stage_index, i.alive) for i in event.stage_info]

    def test_down_nodes_have_no_records(self, composed):
        for report in composed[:2]:
            for node in report.fleet.nodes:
                assert {r.stage_index for r in node.records} == {
                    i.stage_index
                    for i in report.stage_info
                    if node.profile.node_id in i.alive
                }

    def test_node_ledgers_sum_to_fleet_ledger(self, composed):
        for report in composed[:2]:
            fleet = report.fleet.ledger.snapshot()
            nodes = [n.ledger.snapshot() for n in report.fleet.nodes]
            for field in ("acquired_images", "uploaded_bytes", "downloaded_bytes"):
                assert sum(getattr(n, field) for n in nodes) == getattr(
                    fleet, field
                )

    def test_engines_agree(self, composed):
        lockstep, event, _ = composed
        assert accuracy_grid(lockstep) == accuracy_grid(event)
        assert [[r.uploaded for r in n.records] for n in lockstep.fleet.nodes] == [
            [r.uploaded for r in n.records] for n in event.fleet.nodes
        ]
        assert [
            (v.version, v.track) for v in lockstep.registry.versions()
        ] == [(v.version, v.track) for v in event.registry.versions()]
        assert lockstep.registry.active.version == event.registry.active.version
        assert lockstep.stage_info == event.stage_info
        # every byte total, per direction and per tier (the engines only
        # differ in how many ledger entries they split downloads over)
        assert replace(
            lockstep.fleet.ledger.snapshot(), stages_recorded=0
        ) == replace(event.fleet.ledger.snapshot(), stages_recorded=0)
