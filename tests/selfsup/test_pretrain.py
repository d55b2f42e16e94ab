"""Unsupervised pre-training loop tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.selfsup import (
    JigsawSampler,
    PermutationSet,
    build_context_network,
    permutation_accuracy,
    pretrain,
)


@pytest.fixture
def setup(rng, generator):
    permset = PermutationSet.generate(4, rng=rng)
    sampler = JigsawSampler(permset, rng=rng)
    net = build_context_network(permset, rng=np.random.default_rng(3))
    images = generator.batch(rng.integers(0, 4, size=48))
    return net, images, sampler


class TestPretrain:
    def test_learns_the_task(self, setup, rng):
        net, images, sampler = setup
        result = pretrain(
            net, images, sampler, epochs=4, batch_size=16, lr=0.01, rng=rng
        )
        assert len(result.losses) == 4
        assert result.losses[-1] < result.losses[0]
        assert result.final_accuracy > 0.5  # chance is 0.25

    def test_never_reads_labels(self, setup, rng):
        """Pre-training consumes a bare image array — no label argument
        even exists in the API."""
        net, images, sampler = setup
        result = pretrain(net, images, sampler, epochs=1, rng=rng)
        assert result.network is net

    def test_zero_epochs_rejected(self, setup, rng):
        net, images, sampler = setup
        with pytest.raises(ValueError):
            pretrain(net, images, sampler, epochs=0, rng=rng)


class TestPermutationAccuracy:
    def test_range(self, setup):
        net, images, sampler = setup
        acc = permutation_accuracy(net, images, sampler)
        assert 0.0 <= acc <= 1.0

    def test_empty_raises(self, setup):
        net, images, sampler = setup
        with pytest.raises(ValueError):
            permutation_accuracy(net, images[:0], sampler)
