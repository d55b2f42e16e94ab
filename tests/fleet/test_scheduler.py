"""FleetScheduler policy and canary-rollout tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InSituCloud, ModelRegistry, UpdateGuard
from repro.data import ImageGenerator, make_dataset
from repro.fleet import FleetScheduler
from repro.models import alexnet_spec
from repro.selfsup import PermutationSet


def _dataset(n, generator, rng):
    return make_dataset(n, generator=generator, rng=rng)


@pytest.fixture
def generator(rng):
    return ImageGenerator(image_size=48, num_classes=4, rng=rng)


def make_trigger_scheduler(policy: str, **kwargs) -> FleetScheduler:
    """Scheduler for trigger-logic tests (no cloud interaction)."""
    return FleetScheduler(
        cloud=None, registry=None, guard=None, policy=policy, **kwargs
    )


class TestTriggerPolicies:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            make_trigger_scheduler("nightly")

    def test_empty_pool_never_fires(self):
        scheduler = make_trigger_scheduler("per-stage")
        assert not scheduler.should_update(0.5)

    def test_per_stage_fires_on_any_upload(self, generator, rng):
        scheduler = make_trigger_scheduler("per-stage")
        scheduler.offer(1, 0, _dataset(2, generator, rng))
        assert scheduler.should_update(0.9)

    def test_offer_ignores_empty_uploads(self, generator, rng):
        scheduler = make_trigger_scheduler("per-stage")
        scheduler.offer(1, 0, _dataset(4, generator, rng).take(0))
        assert not scheduler.pool

    def test_threshold_waits_for_enough_images(self, generator, rng):
        scheduler = make_trigger_scheduler("threshold", upload_threshold=10)
        scheduler.offer(1, 0, _dataset(4, generator, rng))
        assert not scheduler.should_update(0.9)
        scheduler.offer(1, 1, _dataset(6, generator, rng))
        assert scheduler.should_update(0.9)

    def test_accuracy_drop_fires_only_on_regression(self, generator, rng):
        # ACCURACY_DROP is 0.05
        scheduler = make_trigger_scheduler("accuracy-drop")
        scheduler.offer(1, 0, _dataset(4, generator, rng))
        assert not scheduler.should_update(0.8)  # establishes the best
        assert not scheduler.should_update(0.77)  # within tolerance
        assert scheduler.should_update(0.7)  # 0.1 below best

    def test_drain_pools_and_clears(self, generator, rng):
        scheduler = make_trigger_scheduler("per-stage")
        scheduler.offer(1, 0, _dataset(4, generator, rng))
        scheduler.offer(1, 1, _dataset(3, generator, rng))
        assert len(scheduler.drain()) == 7
        assert not scheduler.pool
        with pytest.raises(ValueError):
            scheduler.drain()


class TestCanaryRollout:
    @pytest.fixture
    def setup(self, generator, rng):
        """A trained cloud + registry with version 1 active."""
        cloud = InSituCloud(
            4,
            PermutationSet.generate(4, rng=rng),
            cost_spec=alexnet_spec(),
            rng=np.random.default_rng(7),
        )
        train = _dataset(64, generator, rng)
        cloud.initialize_inference(train, epochs=4)
        registry = ModelRegistry()
        registry.publish(cloud.model_state(), {"stage": 0})
        holdout = _dataset(64, generator, rng)
        guard = UpdateGuard(max_regression=0.02)
        scheduler = FleetScheduler(
            cloud=cloud,
            registry=registry,
            guard=guard,
            policy="per-stage",
            canary_ids=(0, 1),
        )
        return cloud, registry, scheduler, holdout

    def test_regressing_update_hits_canary_only_then_rolls_back(
        self, setup, generator, rng
    ):
        cloud, registry, scheduler, holdout = setup
        v1_state = registry.active.state
        # Poison the pooled uploads: permuted labels destroy the model.
        # Drop the replay archive so the update trains on poison alone.
        cloud.archive = None
        poison = _dataset(48, generator, rng)
        poison.labels = (poison.labels + 1) % 4
        result = scheduler.rollout(
            1,
            poison,
            holdout,
            all_node_ids=(0, 1, 2, 3),
            weight_shared=False,
            epochs=4,
            lr=0.05,
        )
        assert not result.promoted
        assert result.canary_ids == (0, 1)
        # Candidate reached the canary subset only...
        canary_events = [e for e in result.events if e.kind == "canary"]
        assert {e.node_id for e in canary_events} == {0, 1}
        assert all(e.version == -1 for e in canary_events)
        # ...no fleet-wide push happened...
        assert not [e for e in result.events if e.kind == "fleet"]
        # ...and the canaries were rolled back to the active version.
        rollback_events = [e for e in result.events if e.kind == "rollback"]
        assert {e.node_id for e in rollback_events} == {0, 1}
        assert all(e.version == 1 for e in rollback_events)
        # Registry never saw the candidate; the Cloud runs v1 again.
        assert [v.version for v in registry.versions()] == [1]
        assert registry.active.version == 1
        for name, value in cloud.model_state().items():
            assert np.array_equal(value, v1_state[name])
        assert [r.promoted for r in scheduler.history].count(False) == 1

    def test_good_update_promotes_fleet_wide(self, setup, generator, rng):
        cloud, registry, scheduler, holdout = setup
        clean = _dataset(48, generator, rng)
        result = scheduler.rollout(
            1,
            clean,
            holdout,
            all_node_ids=(0, 1, 2, 3),
            weight_shared=True,
            epochs=2,
        )
        assert result.promoted
        assert registry.active.version == 2
        fleet_events = [e for e in result.events if e.kind == "fleet"]
        assert {e.node_id for e in fleet_events} == {2, 3}
        assert all(e.version == 2 for e in fleet_events)
        canary_events = [e for e in result.events if e.kind == "canary"]
        assert {e.node_id for e in canary_events} == {0, 1}

    def test_degenerate_fleet_uses_first_node_as_canary(
        self, setup, generator, rng
    ):
        cloud, registry, scheduler, holdout = setup
        scheduler.canary_ids = ()
        clean = _dataset(32, generator, rng)
        result = scheduler.rollout(
            1,
            clean,
            holdout,
            all_node_ids=(5,),
            weight_shared=True,
            epochs=1,
        )
        assert result.canary_ids == (5,)
