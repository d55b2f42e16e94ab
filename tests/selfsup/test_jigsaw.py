"""Jigsaw tiling and batch assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selfsup import JigsawSampler, PermutationSet
from repro.selfsup.jigsaw import grid_tiles


def split_tiles(image):
    """The 3x3 tiles of one CHW image: ``(9, C, h, w)``."""
    return grid_tiles(image[None])[0]


def reassemble_tiles(tiles):
    """Inverse of :func:`split_tiles` for row-major ordered tiles."""
    _, channels, tile_h, tile_w = tiles.shape
    stacked = tiles.reshape(3, 3, channels, tile_h, tile_w)
    return stacked.transpose(2, 0, 3, 1, 4).reshape(
        channels, 3 * tile_h, 3 * tile_w
    )


class TestSplitTiles:
    def test_shape(self, rng):
        tiles = split_tiles(rng.random((3, 48, 48)))
        assert tiles.shape == (9, 3, 16, 16)

    def test_row_major_order(self):
        img = np.zeros((1, 6, 6))
        img[0, 0, 4] = 1.0  # top-right tile of a 3x3 grid of 2x2 tiles
        tiles = split_tiles(img)
        assert tiles[2].sum() == 1.0
        assert tiles[0].sum() == 0.0

    def test_roundtrip(self, rng):
        img = rng.random((3, 12, 12))
        assert np.array_equal(reassemble_tiles(split_tiles(img)), img)

    @settings(max_examples=20, deadline=None)
    @given(size_mult=st.integers(1, 6), channels=st.integers(1, 4))
    def test_roundtrip_property(self, size_mult, channels):
        rng = np.random.default_rng(size_mult * 10 + channels)
        img = rng.random((channels, 3 * size_mult, 3 * size_mult))
        assert np.array_equal(reassemble_tiles(split_tiles(img)), img)

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            grid_tiles(rng.random((1, 3, 47, 48)))

    def test_wrong_rank_raises(self, rng):
        with pytest.raises(ValueError):
            grid_tiles(rng.random((3, 48, 48)))


class TestJigsawSampler:
    @pytest.fixture
    def sampler(self, rng):
        permset = PermutationSet.generate(8, rng=rng)
        return JigsawSampler(permset, rng=rng)

    def test_sample_shapes(self, sampler, rng):
        tiles, labels = sampler.batch(rng.random((1, 3, 48, 48)))
        assert tiles.shape == (1, 9, 3, 16, 16)
        assert 0 <= labels[0] < 8

    def test_sample_specific_perm(self, sampler, rng):
        img = rng.random((3, 48, 48))
        tiles, labels = sampler.batch(img[None], [3])
        assert labels.tolist() == [3]
        # Position j receives tile perms[3][j].
        expected = split_tiles(img)[sampler.permset.perms[3]]
        assert np.array_equal(tiles[0], expected)

    def test_batch_shapes(self, sampler, rng):
        images = rng.random((5, 3, 48, 48))
        tiles, labels = sampler.batch(images)
        assert tiles.shape == (5, 9, 3, 16, 16)
        assert labels.shape == (5,)
        assert labels.dtype == np.int64

    def test_batch_with_given_indices(self, sampler, rng):
        images = rng.random((3, 3, 48, 48))
        tiles, labels = sampler.batch(images, np.array([0, 1, 2]))
        assert labels.tolist() == [0, 1, 2]

    def test_grid_permset_mismatch(self, rng):
        permset = PermutationSet(np.array([[1, 0, 2, 3]]))  # 4 tiles
        with pytest.raises(ValueError, match="4 tiles"):
            JigsawSampler(permset, rng=rng)

    def test_puzzle_is_solvable_from_tiles(self, sampler, rng):
        """The shuffled tiles contain exactly the original tiles."""
        img = rng.random((3, 48, 48))
        original = split_tiles(img)
        tiles, labels = sampler.batch(img[None])
        perm = sampler.permset.perms[labels[0]]
        assert np.array_equal(tiles[0], original[perm])
