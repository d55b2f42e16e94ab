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


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distance between one permutation and many."""
    return (a[None, :] != b).sum(axis=1)


def max_hamming_permutations(
    num_perms: int,
    num_tiles: int = 9,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy maximin-Hamming permutation selection.

    Starts from a random permutation, then repeatedly draws 300 random
    candidates and adds the one whose minimum Hamming distance to the
    already-chosen set is largest.

    Returns an array of shape ``(num_perms, num_tiles)`` whose rows are
    distinct permutations of ``0..num_tiles-1``.
    """
    if num_perms < 1:
        raise ValueError("num_perms must be >= 1")
    if num_tiles < 2:
        raise ValueError("num_tiles must be >= 2")
    max_distinct = math.factorial(num_tiles) if num_tiles <= 12 else None
    if max_distinct is not None and num_perms > max_distinct:
        raise ValueError(
            f"cannot draw {num_perms} distinct permutations of {num_tiles} tiles"
        )
    chosen = [rng.permutation(num_tiles)]
    while len(chosen) < num_perms:
        candidates = np.array(
            [rng.permutation(num_tiles) for _ in range(300)]
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
        num_tiles: int = 9,
        *,
        rng: np.random.Generator | None = None,
    ) -> "PermutationSet":
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(max_hamming_permutations(num_perms, num_tiles, rng=rng))

    def __len__(self) -> int:
        return len(self.perms)

    @property
    def num_tiles(self) -> int:
        return self.perms.shape[1]

    def __getitem__(self, index: int) -> np.ndarray:
        return self.perms[index]

    def apply(self, tiles: np.ndarray, index: int) -> np.ndarray:
        """Reorder a stack of tiles by permutation ``index``.

        ``tiles`` has the tile axis first (e.g. ``(9, 3, h, w)``).  Position
        ``j`` of the result receives ``tiles[perm[j]]`` — the layout the
        network sees, as in Fig. 3's reordered grid.
        """
        if tiles.shape[0] != self.num_tiles:
            raise ValueError(
                f"expected {self.num_tiles} tiles, got {tiles.shape[0]}"
            )
        return tiles[self.perms[index]]

    def min_pairwise_hamming(self) -> int:
        """Smallest Hamming distance between any two permutations in the set."""
        if len(self) < 2:
            return self.num_tiles
        best = self.num_tiles
        for i in range(len(self) - 1):
            dist = _hamming(self.perms[i], self.perms[i + 1 :]).min()
            best = min(best, int(dist))
        return best
