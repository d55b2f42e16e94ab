"""Event-driven fleet simulation: asynchrony, horizons, determinism.

Two anchors hold the asynchronous model to the barrier reference (the
paper's protocol, which ``run_fleet`` drives over the flat fleet):

* async mode finishes the same schedule no later than barrier mode —
  overlapping Cloud retraining with node compute only removes waiting;
* under a heterogeneous WiFi/LTE mix and a fixed virtual-time horizon,
  the fast node completes strictly more acquisition epochs than the slow
  one, while the barrier modes keep every node's count equal — the
  behavioral difference the event model exists to expose.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import system_by_id
from repro.diagnosis import Diagnoser
from repro.fleet import (
    FleetScenario,
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
    run_fleet_event,
)
from repro.fleet.async_sim import DirectEventTier, _EventFleet
from repro.fleet.simulation import build_fleet_runtime
from repro.fleet.uplink import BACKHAUL_BPS


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


def homogeneous_fleet(**overrides) -> FleetScenario:
    """All-WiFi, all-TX1, no severity jitter: the equivalence regime."""
    kwargs = dict(
        lte_fraction=0.0, low_power_fraction=0.0, severity_jitter=0.0
    )
    kwargs.update(overrides)
    return tiny_fleet(**kwargs)


def mixed_link_fleet(**overrides) -> FleetScenario:
    """One WiFi + one LTE node, same board, no retrains mid-horizon.

    The threshold policy with an unreachable threshold isolates the link
    heterogeneity: epoch pacing differs only through upload time.
    """
    kwargs = dict(
        lte_fraction=0.5,
        low_power_fraction=0.0,
        severity_jitter=0.0,
        scheduler_policy="threshold",
        upload_threshold=10_000,
    )
    kwargs.update(overrides)
    return tiny_fleet(**kwargs)


@pytest.fixture(scope="module")
def homogeneous_assets():
    return prepare_fleet_assets(homogeneous_fleet())


@pytest.fixture(scope="module")
def mixed_assets():
    return prepare_fleet_assets(mixed_link_fleet())


@pytest.fixture(scope="module")
def barrier_d(homogeneous_assets):
    return run_fleet_event(
        system_by_id("d"), homogeneous_assets, barrier=True
    )


@pytest.fixture(scope="module")
def async_d(homogeneous_assets):
    return run_fleet_event(system_by_id("d"), homogeneous_assets)


class TestCloudScan:
    def test_cloud_scan_that_flags_nothing_is_still_paid(
        self, homogeneous_assets, monkeypatch
    ):
        """System b scans every pooled upload even when it trains on none."""
        monkeypatch.setattr(
            Diagnoser, "diagnose", lambda self, data: np.zeros(len(data), bool)
        )
        report = run_fleet(system_by_id("b"), homogeneous_assets)
        assert [u.kind for u in report.updates] == ["init"] + ["scan"] * 4
        cloud = build_fleet_runtime(system_by_id("b"), homogeneous_assets).cloud
        for update in report.updates[1:]:
            pooled = sum(
                n.records[update.stage_index].uploaded for n in report.nodes
            )
            assert (
                update.modeled_time_s,
                update.modeled_energy_j,
            ) == cloud.modeled_scan_cost(pooled)
            assert not update.promoted and update.pooled_for_training == 0


class TestBackhaul:
    def test_engine_links_carry_the_backhaul_both_ways(
        self, homogeneous_assets
    ):
        """One link per direction on the engine's own kernel, each at the
        full backhaul capacity and labelled for its ``flows.*`` metrics."""
        config = system_by_id("d")
        engine = _EventFleet(
            config,
            homogeneous_assets,
            build_fleet_runtime(config, homogeneous_assets),
            DirectEventTier(homogeneous_assets),
            horizon_s=None,
            barrier=True,
        )
        links = (engine.uplink, engine.downlink)
        assert [link.name for link in links] == ["uplink", "downlink"]
        for link in links:
            assert link.capacity_bps == BACKHAUL_BPS
            assert link.sim is engine.sim


class TestAsyncMode:
    def test_async_completes_no_later_than_barrier(self, async_d, barrier_d):
        # Removing the barrier only removes waiting: same epochs, same
        # data, strictly less (or equal) virtual time.
        assert async_d.makespan_s <= barrier_d.makespan_s
        assert async_d.epochs_by_node == barrier_d.epochs_by_node

    def test_updates_overlap_node_activity(self, async_d):
        # Cloud updates happened and carried virtual training time.
        assert async_d.updates
        assert async_d.updates[0].kind == "init"
        for update in async_d.updates:
            assert update.complete_s >= update.trigger_s
            assert update.modeled_time_s > 0

    def test_epoch_records_are_internally_consistent(self, async_d):
        for trajectory in async_d.nodes:
            assert trajectory.epochs_completed == len(trajectory.records)
            assert trajectory.blocked_on_uplink_s >= 0.0
            previous_done = 0.0
            for record in trajectory.records:
                assert record.start_s >= previous_done or record.epoch == 0
                assert (
                    record.start_s
                    <= record.upload_start_s
                    <= record.upload_done_s
                )
                assert record.uploaded <= record.acquired
                previous_done = record.upload_done_s

    def test_every_node_initialized_with_v1(self, async_d):
        # The init push reaches the whole fleet before any rollout.
        for trajectory in async_d.nodes:
            assert trajectory.download_bytes > 0
            assert trajectory.download_energy_j > 0

    def test_determinism(self, homogeneous_assets, async_d):
        again = run_fleet_event(system_by_id("d"), homogeneous_assets)
        assert again.makespan_s == async_d.makespan_s
        for t1, t2 in zip(again.nodes, async_d.nodes):
            assert t1.records == t2.records
        assert [
            (u.trigger_s, u.complete_s) for u in again.updates
        ] == [(u.trigger_s, u.complete_s) for u in async_d.updates]


class TestHeterogeneousHorizon:
    """The acceptance scenario: WiFi outpaces LTE only without the barrier."""

    HORIZON_S = 6.0

    def test_fast_node_completes_strictly_more_epochs(self, mixed_assets):
        report = run_fleet_event(
            system_by_id("d"), mixed_assets, horizon_s=self.HORIZON_S
        )
        epochs = {
            p.link_kind: report.epochs_by_node[p.node_id]
            for p in mixed_assets.profiles
        }
        assert epochs["wifi"] > epochs["lte"]
        assert report.makespan_s == self.HORIZON_S

    def test_barrier_keeps_epoch_counts_equal(self, mixed_assets):
        report = run_fleet_event(
            system_by_id("d"),
            mixed_assets,
            horizon_s=self.HORIZON_S,
            barrier=True,
        )
        counts = set(report.epochs_by_node.values())
        assert len(counts) == 1

    @pytest.mark.parametrize("barrier", [False, True])
    def test_nodes_frozen_by_the_horizon_finish_at_it(
        self, mixed_assets, barrier
    ):
        # The horizon stops the world mid-epoch; a node that was still
        # running then finished when the run did, not at 0.0.
        report = run_fleet_event(
            system_by_id("d"), mixed_assets, horizon_s=120.0, barrier=barrier
        )
        assert report.makespan_s == 120.0
        assert [t.finish_s for t in report.nodes] == [120.0, 120.0]
        unbounded = run_fleet_event(
            system_by_id("d"), mixed_assets, barrier=barrier
        )
        assert all(
            0.0 < t.finish_s <= unbounded.makespan_s for t in unbounded.nodes
        )

    def test_lockstep_reference_has_equal_counts(self, mixed_assets):
        report = run_fleet(system_by_id("d"), mixed_assets)
        counts = {len(t.records) for t in report.nodes}
        assert len(counts) == 1

    def test_slow_node_blocks_longer_on_uplink(self, mixed_assets):
        report = run_fleet_event(
            system_by_id("d"), mixed_assets, horizon_s=self.HORIZON_S
        )
        blocked = {
            p.link_kind: report.nodes[p.node_id].blocked_on_uplink_s
            / max(1, report.nodes[p.node_id].epochs_completed)
            for p in mixed_assets.profiles
        }
        assert blocked["lte"] > blocked["wifi"]


class TestCloudEvalMemo:
    """The event engine scores the Cloud through ``FleetRuntime.eval_accuracy``;
    on unchanged weights the prefix memo serves the conv trunk."""

    @pytest.mark.parametrize("barrier", [False, True])
    def test_a_cloud_that_never_retrains_is_swept_once(
        self, mixed_assets, eval_conv_calls, barrier
    ):
        report = run_fleet_event(
            system_by_id("d"), mixed_assets, barrier=barrier
        )
        assert [u.kind for u in report.updates] == ["init"]
        # the init record and the final eval score the same weights: the
        # conv trunk runs for the first only
        assert len(eval_conv_calls) == 2
        assert eval_conv_calls[0] > 0 and eval_conv_calls[1] == 0
        assert report.final_eval_accuracy == report.updates[0].eval_accuracy

    def test_final_eval_is_the_last_records(self, barrier_d, async_d):
        for report in (barrier_d, async_d):
            assert any(u.promoted for u in report.updates[1:])
            assert report.final_eval_accuracy == report.updates[-1].eval_accuracy


class TestValidation:
    def test_bad_horizon_rejected(self, homogeneous_assets):
        with pytest.raises(ValueError):
            run_fleet_event(
                system_by_id("d"), homogeneous_assets, horizon_s=0.0
            )
