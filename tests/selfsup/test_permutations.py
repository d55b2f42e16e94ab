"""Permutation-set generation and properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selfsup import JigsawSampler, PermutationSet, max_hamming_permutations


def min_pairwise_hamming(perms):
    """Smallest Hamming distance between any two rows."""
    return min(
        int((perms[i] != perms[i + 1 :]).sum(axis=1).min())
        for i in range(len(perms) - 1)
    )


class TestMaxHamming:
    def test_rows_are_permutations(self, rng):
        perms = max_hamming_permutations(20, rng=rng)
        assert perms.shape == (20, 9)
        for row in perms:
            assert sorted(row.tolist()) == list(range(9))

    def test_distinct(self, rng):
        perms = max_hamming_permutations(30, rng=rng)
        assert len({tuple(r) for r in perms}) == 30

    def test_better_separated_than_random(self, rng):
        """Greedy maximin selection beats uniform-random selection on the
        minimum pairwise Hamming distance."""
        chosen = max_hamming_permutations(15, rng=rng)
        rand_rng = np.random.default_rng(0)
        rows = {tuple(rand_rng.permutation(9)) for _ in range(60)}
        random_set = np.array(sorted(rows)[:15])
        assert min_pairwise_hamming(chosen) >= min_pairwise_hamming(random_set)

    def test_too_many_for_small_tiles(self, rng):
        with pytest.raises(ValueError, match="362881 distinct"):
            max_hamming_permutations(362_881, rng=rng)  # 9! = 362,880

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            max_hamming_permutations(0, rng=rng)


class TestPermutationSet:
    def test_generate_default(self, rng):
        permset = PermutationSet.generate(16, rng=rng)
        assert len(permset) == 16
        assert permset.num_tiles == 9

    def test_validates_rows(self):
        with pytest.raises(ValueError, match="not a permutation"):
            PermutationSet(np.array([[0, 1, 1]]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            PermutationSet(np.array([[0, 1, 2], [0, 1, 2]]))

    def test_apply_reorders(self, rng):
        """A puzzle's position j receives tile perms[label][j]."""
        perm = np.roll(np.arange(9), 1)
        sampler = JigsawSampler(PermutationSet(perm[None]), rng=rng)
        # A 6x6 image whose row-major 2x2 tile k holds the value k.
        grid = np.arange(9.0).reshape(3, 3)
        image = np.repeat(np.repeat(grid, 2, axis=0), 2, axis=1)[None]
        tiles, _ = sampler.batch(image[None], [0])
        assert tiles[0, :, 0, 0, 0].tolist() == perm.tolist()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), count=st.integers(2, 12))
    def test_apply_is_invertible(self, seed, count):
        """A puzzle holds every tile of its image exactly once."""
        rng = np.random.default_rng(seed)
        permset = PermutationSet.generate(count, rng=rng)
        sampler = JigsawSampler(permset, rng=rng)
        image = np.arange(9.0).reshape(1, 3, 3)
        tiles, _ = sampler.batch(image[None])
        assert sorted(tiles[0, :, 0, 0, 0].tolist()) == list(range(9))
