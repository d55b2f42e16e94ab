"""The context network's one-trunk-pass inference path and its inputs.

``ContextNetwork.puzzle_logits`` runs the trunk on each image's unshuffled
3x3 grid and reorders the nine feature rows per puzzle.  It equals
``predict`` of the shuffled tiles bit for bit only because a tile's trunk
output row does not depend on where in its image's block the tile sits;
``test_trunk_rows_invariant_to_tile_order`` pins that property of the BLAS
underneath.  The vectorized ``JigsawSampler.batch`` and the broadcast
``max_hamming_permutations`` are pinned to the loops they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.config import default_dtype
from repro.selfsup import (
    JigsawSampler,
    PermutationSet,
    build_context_network,
    max_hamming_permutations,
    permutation_accuracy,
)


@pytest.fixture(scope="module")
def permset():
    return PermutationSet.generate(100, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def network(permset):
    return build_context_network(permset, rng=np.random.default_rng(5))


def _images(count, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((count, 3, 48, 48)).astype(default_dtype())


@pytest.mark.parametrize("count", [1, 2, 5, 31, 64])
def test_trunk_rows_invariant_to_tile_order(network, count):
    rng = np.random.default_rng(count)
    tiles = rng.random((count, 9, 3, 16, 16)).astype(default_dtype())
    order = np.array([rng.permutation(9) for _ in range(count)])
    rows = np.arange(count)[:, None]
    grid = network.tile_features(tiles)
    shuffled = network.tile_features(tiles[rows, order])
    assert np.array_equal(shuffled, grid[rows, order]), (
        "jigsaw trunk output rows depend on tile order within an image's "
        "block on this BLAS; ContextNetwork.puzzle_logits is not exact here"
    )


@pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 13, 31, 64])
def test_puzzle_logits_equal_predict_of_batch(network, permset, count):
    images = _images(count)
    sampler = JigsawSampler(permset, rng=np.random.default_rng(count))
    ref_sampler = JigsawSampler(permset, rng=np.random.default_rng(count))
    yielded = list(network.puzzle_logits(images, sampler, trials=2))
    assert [start for start, _, _ in yielded] == [0, 0]
    for _, logits, labels in yielded:
        tiles, ref_labels = ref_sampler.batch(images)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(logits, network.forward(tiles))
    assert sampler.rng.bit_generator.state == ref_sampler.rng.bit_generator.state


def _accuracy_reference(network, images, sampler, batch_size=64):
    correct = 0
    for start in range(0, len(images), batch_size):
        tiles, labels = sampler.batch(images[start : start + batch_size])
        correct += int((network.forward(tiles).argmax(axis=1) == labels).sum())
    return correct / len(images)


@pytest.mark.parametrize("count", [1, 65, 150])
def test_permutation_accuracy_matches_loop(count):
    small = PermutationSet.generate(4, rng=np.random.default_rng(2))
    network = build_context_network(small, rng=np.random.default_rng(3))
    images = _images(count, seed=count)
    sampler = JigsawSampler(small, rng=np.random.default_rng(4))
    ref_sampler = JigsawSampler(small, rng=np.random.default_rng(4))
    expected = _accuracy_reference(network, images, ref_sampler)
    assert permutation_accuracy(network, images, sampler) == expected
    assert sampler.rng.bit_generator.state == ref_sampler.rng.bit_generator.state


class TestVectorizedBatch:
    @pytest.mark.parametrize("count", [1, 4, 17])
    def test_equals_per_image_reference(self, permset, count):
        images = _images(count, seed=count)
        sampler = JigsawSampler(permset, rng=np.random.default_rng(6))
        ref_rng = np.random.default_rng(6)
        tiles, labels = sampler.batch(images)
        ref_labels = ref_rng.integers(0, len(permset), size=count)
        # Per image: cut the 3x3 grid row-major, then position j receives
        # tile perms[label][j].
        side = images.shape[-1] // 3
        ref_tiles = np.stack(
            [
                np.stack(
                    [
                        img[:, r * side : (r + 1) * side, c * side : (c + 1) * side]
                        for r in range(3)
                        for c in range(3)
                    ]
                )[permset.perms[label]]
                for img, label in zip(images, ref_labels)
            ]
        )
        assert np.array_equal(labels, ref_labels)
        assert labels.dtype == np.int64
        assert tiles.dtype == images.dtype
        assert np.array_equal(tiles, ref_tiles)
        assert sampler.rng.bit_generator.state == ref_rng.bit_generator.state

    def test_empty_batch(self, permset):
        sampler = JigsawSampler(permset, rng=np.random.default_rng(0))
        tiles, labels = sampler.batch(np.zeros((0, 3, 48, 48)))
        assert tiles.shape == (0, 9, 3, 16, 16)
        assert labels.shape == (0,)

    def test_given_indices_are_copied(self, permset):
        sampler = JigsawSampler(permset, rng=np.random.default_rng(0))
        indices = np.array([5, 7], dtype=np.int64)
        _, labels = sampler.batch(_images(2), indices)
        labels[0] = 0
        assert indices[0] == 5


def _greedy_reference(num_perms, num_tiles, rng, candidate_pool=300):
    """The per-candidate greedy loop ``max_hamming_permutations`` replaced."""
    chosen = [rng.permutation(num_tiles)]
    seen = {tuple(chosen[0])}
    while len(chosen) < num_perms:
        candidates = np.array(
            [rng.permutation(num_tiles) for _ in range(candidate_pool)]
        )
        chosen_arr = np.array(chosen)
        best_candidate, best_score = None, -1
        for cand in candidates:
            if tuple(cand) in seen:
                continue
            score = int((cand[None, :] != chosen_arr).sum(axis=1).min())
            if score > best_score:
                best_score, best_candidate = score, cand
        if best_candidate is None:
            continue
        chosen.append(best_candidate)
        seen.add(tuple(best_candidate))
    return np.array(chosen)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("num_perms", [2, 12, 30, 100])
def test_max_hamming_matches_greedy_loop(seed, num_perms):
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = max_hamming_permutations(num_perms, rng=rng)
    assert np.array_equal(got, _greedy_reference(num_perms, 9, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
