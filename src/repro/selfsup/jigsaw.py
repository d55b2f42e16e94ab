"""Jigsaw tiling and batch assembly for the context-prediction task."""

from __future__ import annotations

import numpy as np

from repro.selfsup.permutations import PermutationSet

__all__ = ["grid_tiles", "JigsawSampler"]

#: side of the paper's tile grid (3x3 = 9 tiles per puzzle)
GRID = 3


def grid_tiles(images: np.ndarray) -> np.ndarray:
    """Split every CHW image into the 3x3 grid: ``(B, 9, C, h, w)``.

    Tiles are in row-major order (the paper's 3x3 grid indexing).
    """
    if images.ndim != 4:
        raise ValueError(f"expected (B, C, H, W), got {images.shape}")
    count, channels, height, width = images.shape
    if height % GRID or width % GRID:
        raise ValueError(
            f"image {height}x{width} not divisible into a {GRID}x{GRID} grid"
        )
    tile_h, tile_w = height // GRID, width // GRID
    tiles = images.reshape(count, channels, GRID, tile_h, GRID, tile_w)
    return tiles.transpose(0, 2, 4, 1, 3, 5).reshape(
        count, GRID * GRID, channels, tile_h, tile_w
    )


class JigsawSampler:
    """Assembles jigsaw training batches.

    For each image: split into the 3x3 grid, draw a permutation index from
    the set, reorder the tiles, and emit the index as the label.  Every
    label comes from :meth:`draw_labels`, so batch assembly and jigsaw
    diagnosis consume ``rng`` through one definition.
    """

    def __init__(
        self, permset: PermutationSet, *, rng: np.random.Generator | None = None
    ) -> None:
        if permset.num_tiles != GRID * GRID:
            raise ValueError(
                f"permutation set has {permset.num_tiles} tiles but the "
                f"{GRID}x{GRID} grid has {GRID * GRID}"
            )
        self.permset = permset
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def draw_labels(self, count: int) -> np.ndarray:
        """``count`` permutation indices drawn uniformly from the set."""
        return self.rng.integers(0, len(self.permset), size=count)

    def batch(
        self, images: np.ndarray, perm_indices: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Jigsaw puzzles for a whole image batch.

        Returns ``(B, 9, C, h, w)`` shuffled tiles and ``(B,)`` labels.
        """
        tiles = grid_tiles(images)
        count = len(tiles)
        if perm_indices is None:
            perm_indices = self.draw_labels(count)
        perm_indices = np.array(perm_indices, dtype=np.int64)
        if perm_indices.shape != (count,):
            raise ValueError("need one permutation index per image")
        # Position j of puzzle i receives tile perms[label_i][j].
        order = self.permset.perms[perm_indices]
        return tiles[np.arange(count)[:, None], order], perm_indices
