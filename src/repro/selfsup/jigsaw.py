"""Jigsaw tiling and batch assembly for the context-prediction task."""

from __future__ import annotations

import numpy as np

from repro.selfsup.permutations import PermutationSet

__all__ = ["split_tiles", "grid_tiles", "reassemble_tiles", "JigsawSampler"]


def split_tiles(image: np.ndarray, grid: int = 3) -> np.ndarray:
    """Split a CHW image into a ``grid x grid`` stack of tiles.

    Returns shape ``(grid*grid, C, H/grid, W/grid)`` with tiles in
    row-major order (the paper's 3x3 grid indexing).
    """
    if image.ndim != 3:
        raise ValueError(f"expected (C, H, W), got shape {image.shape}")
    return grid_tiles(image[None], grid)[0]


def grid_tiles(images: np.ndarray, grid: int = 3) -> np.ndarray:
    """:func:`split_tiles` of every image: ``(B, grid*grid, C, h, w)``."""
    if images.ndim != 4:
        raise ValueError(f"expected (B, C, H, W), got {images.shape}")
    count, channels, height, width = images.shape
    if height % grid or width % grid:
        raise ValueError(
            f"image {height}x{width} not divisible into a {grid}x{grid} grid"
        )
    tile_h, tile_w = height // grid, width // grid
    tiles = images.reshape(count, channels, grid, tile_h, grid, tile_w)
    return tiles.transpose(0, 2, 4, 1, 3, 5).reshape(
        count, grid * grid, channels, tile_h, tile_w
    )


def reassemble_tiles(tiles: np.ndarray, grid: int = 3) -> np.ndarray:
    """Inverse of :func:`split_tiles` for row-major ordered tiles."""
    num_tiles, channels, tile_h, tile_w = tiles.shape
    if num_tiles != grid * grid:
        raise ValueError(f"expected {grid * grid} tiles, got {num_tiles}")
    stacked = tiles.reshape(grid, grid, channels, tile_h, tile_w)
    return stacked.transpose(2, 0, 3, 1, 4).reshape(
        channels, grid * tile_h, grid * tile_w
    )


class JigsawSampler:
    """Assembles jigsaw training batches.

    For each image: split into the 3x3 grid, draw a permutation index from
    the set, reorder the tiles, and emit the index as the label.  Every
    label comes from :meth:`draw_labels`, so batch assembly and jigsaw
    diagnosis consume ``rng`` through one definition.
    """

    def __init__(
        self,
        permset: PermutationSet,
        *,
        grid: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        if grid * grid != permset.num_tiles:
            raise ValueError(
                f"permutation set has {permset.num_tiles} tiles but grid "
                f"{grid}x{grid} produces {grid * grid}"
            )
        self.permset = permset
        self.grid = grid
        self.rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def num_classes(self) -> int:
        return len(self.permset)

    def draw_labels(self, count: int) -> np.ndarray:
        """``count`` permutation indices drawn uniformly from the set."""
        return self.rng.integers(0, len(self.permset), size=count)

    def sample(
        self, image: np.ndarray, perm_index: int | None = None
    ) -> tuple[np.ndarray, int]:
        """One jigsaw puzzle: (shuffled tiles ``(9, C, h, w)``, label)."""
        indices = None if perm_index is None else [perm_index]
        tiles, labels = self.batch(image[None], indices)
        return tiles[0], int(labels[0])

    def batch(
        self, images: np.ndarray, perm_indices: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Jigsaw puzzles for a whole image batch.

        Returns ``(B, 9, C, h, w)`` shuffled tiles and ``(B,)`` labels.
        """
        tiles = grid_tiles(images, self.grid)
        count = len(tiles)
        if perm_indices is None:
            perm_indices = self.draw_labels(count)
        perm_indices = np.array(perm_indices, dtype=np.int64)
        if perm_indices.shape != (count,):
            raise ValueError("need one permutation index per image")
        # Position j of puzzle i receives tile perms[label_i][j].
        order = self.permset.perms[perm_indices]
        return tiles[np.arange(count)[:, None], order], perm_indices
