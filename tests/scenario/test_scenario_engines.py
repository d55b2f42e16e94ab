"""Scenario runs on the event engine: async mode, churn, heads, gateways.

The scenario layer composes three seeded processes (churn, class phases,
per-node heads) onto the one event engine.  ``engine: lockstep`` specs
run its barrier mode, so the churn and head semantics are pinned on the
event-barrier report; the async report must respect the same plans.
"""

from __future__ import annotations

import pytest

from repro.core.systems import system_by_id
from repro.fleet.async_sim import _EventFleet
from repro.fleet.simulation import build_fleet_runtime
from repro.obs import Tracer
from repro.scenario import build_plans, run_scenario_event
from repro.scenario.event import ScenarioEventHooks
from repro.topology import AggregationPolicy, Topology


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
    def test_stage_zero_everyone_alive(self, tiny_spec, event_barrier_report):
        assert event_barrier_report.stage_info[0].alive == tuple(
            range(tiny_spec.fleet.num_nodes)
        )

    def test_downed_nodes_have_no_stage_records(self, event_barrier_report):
        alive_by_stage = {
            i.stage_index: set(i.alive) for i in event_barrier_report.stage_info
        }
        for node in event_barrier_report.fleet.nodes:
            recorded = {r.stage_index for r in node.records}
            expected = {
                s
                for s, alive in alive_by_stage.items()
                if node.profile.node_id in alive
            }
            assert recorded == expected

    def test_reconciliations_cost_bytes(self, event_barrier_report):
        for info in event_barrier_report.stage_info:
            if info.reconciled:
                assert info.reconcile_bytes > 0
            else:
                assert info.reconcile_bytes == 0

    def test_node_records_sum_to_node_ledger(self, tiny_spec, tiny_assets):
        # a rejoining node's catch-up download counts like any push: every
        # download span lands in its node's ledger, reconciles included
        tracer = Tracer()
        report = run_scenario_event(
            tiny_spec, assets=tiny_assets, barrier=True, tracer=tracer
        )
        assert report.reconciliations >= 1
        downloads = [
            (r.name, dict(r.attrs))
            for r in tracer.records
            if r.cat == "net" and r.name in ("push", "push-head", "reconcile")
        ]
        for node in report.fleet.nodes:
            assert node.ledger.total_downloaded_bytes == sum(
                attrs["bytes"]
                for _, attrs in downloads
                if attrs["node"] == node.profile.node_id
            )
        assert report.total_reconcile_bytes == sum(
            attrs["bytes"] for name, attrs in downloads if name == "reconcile"
        )

    def test_download_energy_prices_download_bytes(self, event_barrier_report):
        for node in event_barrier_report.fleet.nodes:
            assert node.download_energy_j == pytest.approx(
                node.profile.link.model_push_energy_j(node.download_bytes)
            )

    def test_reconciled_nodes_rejoined_that_stage(self, event_barrier_report):
        # only a node that was absent earlier can owe a catch-up download
        seen_down = set()
        for info in event_barrier_report.stage_info:
            assert set(info.reconciled) <= seen_down
            alive = set(info.alive)
            seen_down |= set(range(len(event_barrier_report.fleet.nodes))) - alive


class TestSpecializedHeads:
    def test_heads_are_registry_track_versions(self, event_barrier_report):
        registry = event_barrier_report.registry
        version_map = event_barrier_report.head_version_map()
        assert version_map, "no head was ever accepted"
        for group, versions in version_map.items():
            track = f"head-{group}"
            assert registry.latest(track) is not None
            assert tuple(v.version for v in registry.versions(track)) == versions

    def test_head_versions_never_become_active(self, event_barrier_report):
        assert event_barrier_report.registry.active.track == "main"

    def test_rejected_heads_publish_nothing(self, event_barrier_report):
        for update in event_barrier_report.head_updates:
            if not update.accepted:
                assert update.version is None
                assert update.push_bytes == 0

    def test_head_pushes_are_smaller_than_full_models(self, event_barrier_report):
        from repro.fleet.uplink import model_state_bytes

        full = model_state_bytes(event_barrier_report.registry.active.state)
        for update in event_barrier_report.head_updates:
            if update.accepted:
                assert 0 < update.push_bytes < full


class TestChurnOverGateways:
    """Tier and hooks are independent arguments of the event engine.

    No spec field or CLI exposes the combination yet, so the engine is
    built by hand: the gateway tier *and* the scenario hooks on the event
    engine with the barrier.  The tier is never told about the hooks (or
    the reverse); the engine hands each round's alive ids to
    ``collect_round``.
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
        tier = topology.event_tier(config, tiny_assets)
        collect = tier.collect_round

        def spy(engine, round_index, alive_ids):
            collected.append((round_index, alive_ids))
            return collect(engine, round_index, alive_ids)

        tier.collect_round = spy
        runtime = build_fleet_runtime(
            config, tiny_assets, canary_ids=tier.canary_ids
        )
        hooks = ScenarioEventHooks(
            tiny_spec,
            build_plans(tiny_spec, tiny_assets.profiles),
            tiny_assets,
            runtime,
            mode="event-barrier",
        )
        report = hooks.report
        report.fleet = _EventFleet(
            config,
            tiny_assets,
            runtime,
            tier,
            horizon_s=None,
            barrier=True,
            hooks=hooks,
        ).run()
        return report, collected

    def test_both_complete_under_churn(self, composed, tiny_spec):
        report, _ = composed
        assert len(report.stage_info) == tiny_spec.num_stages
        assert len({len(i.alive) for i in report.stage_info}) > 1
        assert report.fleet.ledger.snapshot().wan_transfer_events > 0

    def test_engine_hands_alive_ids_to_the_tier(self, composed):
        report, collected = composed
        assert collected == [(i.stage_index, i.alive) for i in report.stage_info]

    def test_down_nodes_have_no_records(self, composed):
        report, _ = composed
        for node in report.fleet.nodes:
            assert {r.stage_index for r in node.records} == {
                i.stage_index
                for i in report.stage_info
                if node.profile.node_id in i.alive
            }

    def test_node_ledgers_sum_to_fleet_ledger(self, composed):
        report, _ = composed
        fleet = report.fleet.ledger.snapshot()
        nodes = [n.ledger.snapshot() for n in report.fleet.nodes]
        for field in ("acquired_images", "uploaded_bytes", "downloaded_bytes"):
            assert sum(getattr(n, field) for n in nodes) == getattr(fleet, field)
