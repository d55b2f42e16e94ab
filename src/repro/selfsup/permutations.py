"""Permutation sets for the spatial-context (jigsaw) task.

The paper's unsupervised task (Fig. 3, after Noroozi & Favaro) reorders the
9 tiles of an image by a permutation drawn from a fixed set of 100 and asks
the network to predict *which* permutation was applied.  The permutation set
matters: permutations close in Hamming distance make the task ambiguous, so
the set is chosen to maximize pairwise Hamming distance.  This module
implements the standard greedy max-Hamming selection.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PermutationSet", "max_hamming_permutations"]


#: tiles per jigsaw puzzle (the paper's 3x3 grid)
NUM_TILES = 9


def max_hamming_permutations(
    num_perms: int, *, rng: np.random.Generator
) -> np.ndarray:
    """Greedy maximin-Hamming permutation selection.

    Starts from a random permutation, then repeatedly draws 300 random
    candidates and adds the one whose minimum Hamming distance to the
    already-chosen set is largest.

    Returns an array of shape ``(num_perms, 9)`` whose rows are distinct
    permutations of ``0..8``.
    """
    if num_perms < 1:
        raise ValueError("num_perms must be >= 1")
    if num_perms > math.factorial(NUM_TILES):
        raise ValueError(
            f"cannot draw {num_perms} distinct permutations of {NUM_TILES} tiles"
        )
    chosen = [rng.permutation(NUM_TILES)]
    while len(chosen) < num_perms:
        candidates = np.array(
            [rng.permutation(NUM_TILES) for _ in range(300)]
        )
        # (pool, chosen) Hamming distances.  A candidate already chosen is
        # the only kind at distance 0, so score 0 masks it out; argmax keeps
        # the first of the best.
        distances = (candidates[:, None, :] != np.array(chosen)).sum(axis=2)
        scores = distances.min(axis=1)
        if scores.max() == 0:
            # Extremely unlikely unless the pool collides entirely; retry.
            continue
        chosen.append(candidates[scores.argmax()])
    return np.array(chosen)


class PermutationSet:
    """An indexed set of tile permutations.

    Index *i* of the set is class *i* of the context-prediction task: the
    network sees tiles shuffled by ``perms[i]`` and must output ``i``.
    """

    def __init__(self, perms: np.ndarray) -> None:
        perms = np.asarray(perms, dtype=np.int64)
        if perms.ndim != 2:
            raise ValueError(f"perms must be 2-D, got shape {perms.shape}")
        num_tiles = perms.shape[1]
        expected = np.arange(num_tiles)
        for i, row in enumerate(perms):
            if not np.array_equal(np.sort(row), expected):
                raise ValueError(f"row {i} is not a permutation: {row}")
        if len({tuple(r) for r in perms}) != len(perms):
            raise ValueError("permutations must be distinct")
        self.perms = perms

    @classmethod
    def generate(
        cls,
        num_perms: int = 100,
        *,
        rng: np.random.Generator | None = None,
    ) -> "PermutationSet":
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(max_hamming_permutations(num_perms, rng=rng))

    def __len__(self) -> int:
        return len(self.perms)

    @property
    def num_tiles(self) -> int:
        return self.perms.shape[1]
