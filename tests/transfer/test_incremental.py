"""The exemplar replay buffer."""

from __future__ import annotations

import numpy as np

from repro.data import Dataset
from repro.transfer import ReplayBuffer


def toy_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, 3, 48, 48)), rng.integers(0, 4, size=n))


class TestReplayBuffer:
    def test_add_keeps_everything_under_capacity(self, rng):
        buf = ReplayBuffer(capacity=10, rng=rng)
        assert buf.data is None
        first, second = toy_dataset(6), toy_dataset(3, seed=1)
        buf.add(first)
        buf.add(second)
        assert len(buf) == 9
        assert np.array_equal(
            buf.data.labels, np.concatenate([first.labels, second.labels])
        )

    def test_capacity_enforced(self, rng):
        buf = ReplayBuffer(capacity=5, rng=rng)
        buf.add(toy_dataset(20))
        assert len(buf) == 5

    def test_zero_capacity_stores_nothing(self, rng):
        buf = ReplayBuffer(capacity=0, rng=rng)
        buf.add(toy_dataset(5))
        assert len(buf) == 0
