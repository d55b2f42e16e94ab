"""Dataset container: subsets, batching, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, make_dataset


def toy_dataset(n=10, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.random((n, 3, 6, 6)), rng.integers(0, classes, size=n)
    )


class TestDataset:
    def test_len_and_shapes(self):
        data = toy_dataset(12)
        assert len(data) == 12
        assert data.images.shape[1:] == (3, 6, 6)

    def test_label_shape_validated(self, rng):
        with pytest.raises(ValueError):
            Dataset(rng.random((4, 3, 6, 6)), np.zeros(5, dtype=int))

    def test_images_must_be_4d(self, rng):
        with pytest.raises(ValueError):
            Dataset(rng.random((3, 6, 6)), np.zeros(3, dtype=int))

    def test_subset(self):
        data = toy_dataset(10)
        sub = data.subset([1, 3, 5])
        assert len(sub) == 3
        assert np.array_equal(sub.labels, data.labels[[1, 3, 5]])

    def test_take(self):
        data = toy_dataset(10)
        assert len(data.take(4)) == 4
        assert len(data.take(100)) == 10

    def test_concat(self):
        merged = Dataset.concat([toy_dataset(4), toy_dataset(6)])
        assert len(merged) == 10

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            Dataset.concat([])

    def test_as_unlabeled_keeps_ground_truth(self):
        data = toy_dataset()
        raw = data.as_unlabeled()
        assert not raw.labeled
        assert np.array_equal(raw.labels, data.labels)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 30), batch=st.integers(1, 8))
    def test_batches_cover_everything_once(self, n, batch):
        data = toy_dataset(n)
        seen = [y for _, ys in data.batches(batch) for y in ys]
        assert len(seen) == n

    def test_unshuffled_batches_are_ordered_views(self):
        data = toy_dataset(11)
        batches = list(data.batches(4))
        assert [len(ys) for _, ys in batches] == [4, 4, 3]
        assert np.array_equal(
            np.concatenate([xs for xs, _ in batches]), data.images
        )
        assert np.array_equal(
            np.concatenate([ys for _, ys in batches]), data.labels
        )
        assert all(np.shares_memory(xs, data.images) for xs, _ in batches)


class TestMakeDataset:
    def test_make_ideal(self, generator, rng):
        data = make_dataset(10, generator=generator, rng=rng)
        assert len(data) == 10
        assert data.meta["drift_severity"] == 0.0

    def test_make_drifted_records_severity(self, generator, rng):
        from repro.data import DriftModel

        data = make_dataset(
            5, generator=generator, drift=DriftModel(0.7, rng=rng), rng=rng
        )
        assert data.meta["drift_severity"] == 0.7

    def test_zero_count_raises(self, generator, rng):
        with pytest.raises(ValueError):
            make_dataset(0, generator=generator, rng=rng)
