"""Fleet simulation tests: determinism, movement ordering, rollout paths."""

from __future__ import annotations

import pytest

from repro.core import Scenario, system_by_id
from repro.fleet import (
    FleetScenario,
    fleet_base_scenario,
    prepare_assets,
    prepare_fleet_assets,
    run_fleet,
)
from repro.fleet.simulation import build_fleet_runtime
from repro.fleet.uplink import BACKHAUL_BPS
from repro.nn import workspace
from repro.transfer import evaluate


def tiny_fleet(**overrides) -> FleetScenario:
    base = fleet_base_scenario(
        stream_scale=0.02,
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    kwargs = dict(base=base, num_nodes=2, seed=0)
    kwargs.update(overrides)
    return FleetScenario(**kwargs)


@pytest.fixture(scope="module")
def assets():
    return prepare_fleet_assets(tiny_fleet())


@pytest.fixture(scope="module")
def report_a(assets):
    return run_fleet(system_by_id("a"), assets)


@pytest.fixture(scope="module")
def report_d(assets):
    return run_fleet(system_by_id("d"), assets)


class TestDeterminism:
    def test_same_scenario_same_reports(self):
        """Same FleetScenario seed => identical per-node reports and ledger."""
        first = run_fleet(
            system_by_id("d"), prepare_fleet_assets(tiny_fleet())
        )
        second = run_fleet(
            system_by_id("d"), prepare_fleet_assets(tiny_fleet())
        )
        for t1, t2 in zip(first.nodes, second.nodes):
            assert t1.profile == t2.profile
            assert t1.records == t2.records
            assert t1.ledger.stages == t2.ledger.stages
        assert first.ledger.stages == second.ledger.stages
        assert first.updates == second.updates

    def test_different_seed_different_fleet(self):
        a = prepare_fleet_assets(tiny_fleet(seed=0))
        b = prepare_fleet_assets(tiny_fleet(seed=1))
        assert a.profiles != b.profiles


class TestWarmStartScratch:
    """The warm start's trainer is discarded with its whole-batch scratch:
    both asset preparers hand back an empty conv workspace, so the run
    after them (and every worker forked from it) grows only what its own
    shapes ask for."""

    def test_prepare_fleet_assets_leaves_workspace_empty(self):
        prepare_fleet_assets(tiny_fleet(seed=2))
        assert workspace._BUFFERS == {}

    def test_prepare_assets_leaves_workspace_empty(self):
        prepare_assets(
            Scenario(
                num_classes=4,
                stream_scale=0.05,
                pretrain_images=16,
                pretrain_epochs=1,
                init_epochs=1,
                eval_images=16,
                seed=5,
            )
        )
        assert workspace._BUFFERS == {}


class TestMovement:
    def test_stage0_uploads_everything(self, report_a, report_d):
        for report in (report_a, report_d):
            for trajectory in report.nodes:
                stage0 = trajectory.records[0]
                assert stage0.uploaded == stage0.acquired

    def test_diagnosis_moves_fewer_bytes(self, report_a, report_d):
        assert (
            report_d.total_uploaded_bytes < report_a.total_uploaded_bytes
        )
        assert report_d.total_bytes_moved < report_a.total_bytes_moved

    def test_downlink_charged_to_every_node(self, report_d):
        # Stage 0 publishes v1 and pushes it to the whole fleet.
        for trajectory in report_d.nodes:
            stage0 = trajectory.ledger.stages[0]
            assert stage0.stage_index == 0 and stage0.downloaded_bytes > 0
        assert report_d.total_downloaded_bytes > 0

    def test_ledger_totals_match_node_sum(self, report_d):
        assert report_d.ledger.total_uploaded_images == sum(
            t.ledger.total_uploaded_images for t in report_d.nodes
        )
        assert report_d.ledger.total_downloaded_bytes == sum(
            t.ledger.total_downloaded_bytes for t in report_d.nodes
        )

    def test_contention_stretches_uploads(self, report_a, assets):
        # No upload beats having the backhaul to itself.
        capacity = BACKHAUL_BPS
        for trajectory in report_a.nodes:
            link = trajectory.profile.link
            rate = min(link.bandwidth_bps, capacity)
            for r in trajectory.records:
                solo = link.latency_s + r.upload_bytes * 8.0 / rate
                assert r.upload_wait_s >= solo * (1 - 1e-12)


class TestRollouts:
    def test_registry_starts_at_v1(self, report_d):
        assert report_d.registry.versions()[0].version == 1

    def test_rollout_events_cover_fleet_on_promotion(self, report_d):
        promoted = [r for r in report_d.rollouts if r.promoted]
        for rollout in promoted:
            touched = {e.node_id for e in rollout.events}
            assert touched == {t.profile.node_id for t in report_d.nodes}

    def test_rejected_rollouts_touch_canaries_only(self, report_d):
        for rollout in report_d.rollouts:
            if rollout.promoted:
                continue
            touched = {e.node_id for e in rollout.events}
            assert touched == set(rollout.canary_ids)
            kinds = {e.kind for e in rollout.events}
            assert kinds == {"canary", "rollback"}

    def test_cloud_cost_reported(self, report_d):
        assert report_d.total_update_time_s > 0
        assert report_d.total_cloud_energy_j > 0

    def test_weight_sharing_cuts_cloud_time(self, assets):
        report_c = run_fleet(system_by_id("c"), assets)
        report_d = run_fleet(system_by_id("d"), assets)
        # Identical uploads (same diagnoser, same data); d freezes the
        # shared convs so its per-image Cloud cost must be lower whenever
        # it trained at all.
        if report_d.total_update_time_s > 0:
            per_img_d = report_d.total_update_time_s / max(
                1, sum(u.pooled_for_training for u in report_d.updates)
            )
            per_img_c = report_c.total_update_time_s / max(
                1, sum(u.pooled_for_training for u in report_c.updates)
            )
            assert per_img_d < per_img_c


class TestAccuracy:
    def test_eval_trajectory_recorded(self, report_d):
        assert report_d.updates[0].kind == "init"
        for update in report_d.updates:
            assert 0 <= update.stage_index < 5
            assert 0.0 <= update.eval_accuracy <= 1.0
        for trajectory in report_d.nodes:
            for acc in trajectory.accuracy_trajectory:
                assert 0.0 <= acc <= 1.0

    def test_per_node_trajectories_full_length(self, report_d):
        for trajectory in report_d.nodes:
            assert len(trajectory.records) == 5


class TestCloudEvalMemo:
    """The Cloud's score is always that of its weights as they stand; on
    unchanged weights the prefix memo serves the conv trunk."""

    @pytest.fixture
    def runtime(self, assets):
        runtime = build_fleet_runtime(system_by_id("d"), assets)
        runtime.registry.publish(runtime.cloud.model_state(), {"stage": 0})
        return runtime

    def rollout(self, runtime, assets, *, max_regression):
        runtime.scheduler.guard.max_regression = max_regression
        return runtime.scheduler.rollout(
            1,
            assets.node_stages[0][1].new_data,
            assets.eval_data,
            tuple(p.node_id for p in assets.profiles),
            weight_shared=True,
            epochs=1,
        )

    def test_a_cloud_that_never_retrains_is_swept_once(self, eval_conv_calls):
        assets = prepare_fleet_assets(
            tiny_fleet(scheduler_policy="threshold", upload_threshold=10**9)
        )
        report = run_fleet(system_by_id("d"), assets)
        assert [u.kind for u in report.updates] == ["init"]
        # the second score of the same weights runs no conv layer
        assert len(eval_conv_calls) == 2
        assert eval_conv_calls[0] > 0 and eval_conv_calls[1] == 0
        # ... and both scores are what a sweep of its own would have said
        net = build_fleet_runtime(system_by_id("d"), assets).cloud.inference_net
        net.load_state_dict(report.registry.active.state)
        direct = evaluate(net, assets.eval_data)
        assert report.updates[0].eval_accuracy == direct
        assert report.final_eval_accuracy == direct

    def test_score_after_rollback_and_promotion(self, runtime, assets):
        before = runtime.eval_accuracy(assets.eval_data)
        # a guard nothing can satisfy: trained, canaried, restored
        rejected = self.rollout(runtime, assets, max_regression=-2.0)
        assert not rejected.promoted
        assert runtime.eval_accuracy(assets.eval_data) == before
        promoted = self.rollout(runtime, assets, max_regression=2.0)
        assert promoted.promoted
        after = runtime.eval_accuracy(assets.eval_data)
        assert after == promoted.decision.accuracy_after
        assert after == evaluate(runtime.cloud.inference_net, assets.eval_data)

    def test_key_is_the_weight_content(self, runtime, assets):
        net = runtime.cloud.inference_net
        before = runtime.eval_accuracy(assets.eval_data)
        weight = net.parameters[-1].data
        original = weight.flat[0]
        weight.flat[0] = original + 100.0  # in place: no load, no publish
        moved = runtime.eval_accuracy(assets.eval_data)
        assert moved == evaluate(net, assets.eval_data)
        weight.flat[0] = original
        assert runtime.eval_accuracy(assets.eval_data) == before

    def test_each_eval_set_has_its_own_scores(self, runtime, assets):
        other = assets.node_stages[0][0].new_data
        runtime.eval_accuracy(assets.eval_data)
        assert runtime.eval_accuracy(other) == evaluate(
            runtime.cloud.inference_net, other
        )
