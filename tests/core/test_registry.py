"""Model registry and update guard tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelRegistry, UpdateGuard
from repro.data import make_dataset
from repro.models import build_classifier


@pytest.fixture
def nets(rng):
    return (
        build_classifier(4, np.random.default_rng(1)),
        build_classifier(4, np.random.default_rng(2)),
    )


class TestModelRegistry:
    def test_publish_and_active(self, nets):
        a, b = nets
        registry = ModelRegistry()
        v1 = registry.publish(a.state_dict(), {"tag": "init"})
        assert v1.version == 1
        assert registry.active.version == 1
        v2 = registry.publish(b.state_dict())
        assert registry.active.version == v2.version == 2
        assert [v.version for v in registry.versions()] == [1, 2]

    def test_published_state_is_copied(self, nets):
        a, _ = nets
        registry = ModelRegistry()
        registry.publish(a.state_dict())
        a["fc8"].weight.data[...] = 0.0
        stored = registry.active.state["fc8.weight"]
        assert not np.all(stored == 0.0)

    def test_active_empty_raises(self):
        with pytest.raises(LookupError):
            ModelRegistry().active


#: a publish sequence: ``None`` is a ``main`` publish, ``g`` one on ``head-g``
publishes = st.lists(st.none() | st.integers(0, 3), min_size=1, max_size=30)


class TestRegistryMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(tracks=publishes)
    def test_active_is_always_the_latest_main_publish(self, tracks):
        """Over any interleaving of ``main`` and ``head-<g>`` publishes the
        active version never decreases, always equals the latest ``main``
        publish, and a side-track publish never moves it."""
        registry = ModelRegistry()
        latest_main = None
        for group in tracks:
            before = latest_main
            track = "main" if group is None else f"head-{group}"
            entry = registry.publish({}, track=track)
            if group is None:
                latest_main = entry.version
            if latest_main is None:
                with pytest.raises(LookupError):
                    registry.active
                continue
            active = registry.active
            assert active.version == latest_main
            assert active.track == "main"
            assert before is None or active.version >= before
            if group is not None:
                assert active.version == before
        assert [v.version for v in registry.versions()] == list(
            range(1, len(tracks) + 1)
        )


class TestUpdateGuard:
    def test_accepts_improvement(self, rng, generator):
        data = make_dataset(60, generator=generator, rng=rng)
        net = build_classifier(4, np.random.default_rng(3))
        previous = net.state_dict()
        # Train briefly: accuracy should not regress below tolerance.
        from repro.transfer import train_classifier

        train_classifier(net, data, epochs=3, lr=0.01, rng=rng)
        guard = UpdateGuard(max_regression=0.05)
        decision = guard.check(net, previous, data)
        assert decision.accepted
        assert decision.accuracy_after >= decision.accuracy_before - 0.05

    def test_rejects_and_rolls_back_sabotage(self, rng, generator):
        data = make_dataset(60, generator=generator, rng=rng)
        net = build_classifier(4, np.random.default_rng(3))
        from repro.transfer import train_classifier

        train_classifier(net, data, epochs=4, lr=0.01, rng=rng)
        good_state = net.state_dict()
        # Sabotage: zero the head — accuracy collapses to chance.
        net["fc8"].weight.data[...] = 0.0
        guard = UpdateGuard(max_regression=0.02)
        decision = guard.check(net, good_state, data)
        assert not decision.accepted
        # Weights restored to the pre-update state.
        assert np.allclose(
            net["fc8"].weight.data, good_state["fc8.weight"]
        )

    def test_empty_validation_rejected(self, rng, generator):
        data = make_dataset(4, generator=generator, rng=rng)
        net = build_classifier(4, np.random.default_rng(3))
        with pytest.raises(ValueError, match="non-empty validation set"):
            UpdateGuard().check(net, net.state_dict(), data.take(0))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            UpdateGuard(max_regression=-0.1)
