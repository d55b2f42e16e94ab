"""The context-prediction (jigsaw) network with a weight-shared trunk.

Architecture of Fig. 3/Fig. 4: the *same* convolutional trunk processes each
of the 9 shuffled tiles (this is the paper's first level of weight sharing —
"all its input patches also share the same CONV layers"), the 9 feature
vectors are concatenated, and an FCN head predicts the permutation index.

Weight sharing is implemented by folding the tile axis into the batch axis,
so one trunk forward/backward serves all 9 tiles and the gradient from every
tile accumulates into the shared weights automatically.

Inference shares once more: :meth:`ContextNetwork.puzzle_logits` runs the
trunk once on an image's unshuffled grid and answers each of its puzzles by
reordering the nine feature rows into the head.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import Linear, ReLU, Sequential
from repro.nn.tensor import Parameter
from repro.selfsup.jigsaw import JigsawSampler, grid_tiles

__all__ = ["ContextNetwork", "build_context_head"]


def build_context_head(
    feature_size: int,
    num_tiles: int,
    num_classes: int,
    *,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """FCN head mapping concatenated tile features to permutation logits."""
    rng = rng if rng is not None else np.random.default_rng(0)
    hidden = 128
    return Sequential(
        [
            Linear(feature_size * num_tiles, hidden, rng=rng, name="fc6"),
            ReLU(name="relu6"),
            Linear(hidden, hidden, rng=rng, name="fc7"),
            ReLU(name="relu7"),
            Linear(hidden, num_classes, rng=rng, name="fc8"),
        ],
        input_shape=(feature_size * num_tiles,),
    )


class ContextNetwork:
    """Trunk-shared jigsaw network.

    Parameters
    ----------
    trunk:
        Per-tile network mapping ``(C, h, w)`` to a flat feature vector.
        Its conv layers (``conv1``..``conv5``) are the weights later
        transferred to the inference network.
    head:
        FCN over the concatenation of all tile features.
    num_tiles:
        Tiles per puzzle (9 for the 3x3 grid).

    Training runs :meth:`forward` on shuffled tiles; inference runs
    :meth:`puzzle_logits`, one :meth:`tile_features` pass per image slice
    and one :meth:`head_logits` per trial on the reordered feature rows.
    """

    def __init__(self, trunk: Sequential, head: Sequential, num_tiles: int = 9) -> None:
        if len(trunk.output_shape) != 1:
            raise ValueError(
                f"trunk must output flat features, got shape {trunk.output_shape}"
            )
        feature_size = trunk.output_shape[0]
        expected = (feature_size * num_tiles,)
        if head.input_shape != expected:
            raise ValueError(
                f"head expects input shape {head.input_shape}, but "
                f"{num_tiles} tiles x {feature_size} features gives {expected}"
            )
        self.trunk = trunk
        self.head = head
        self.num_tiles = num_tiles
        self.feature_size = feature_size

    # ------------------------------------------------------------------
    @property
    def parameters(self) -> list[Parameter]:
        return self.trunk.parameters + self.head.parameters

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    # ------------------------------------------------------------------
    def forward(self, tiles: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Tiles ``(B, T, C, h, w)`` -> permutation logits ``(B, P)``."""
        if tiles.ndim != 5 or tiles.shape[1] != self.num_tiles:
            raise ValueError(
                f"expected (B, {self.num_tiles}, C, h, w), got {tiles.shape}"
            )
        batch = tiles.shape[0]
        folded = tiles.reshape((batch * self.num_tiles,) + tiles.shape[2:])
        features = self.trunk.forward(folded, training=training)
        concat = features.reshape(batch, self.num_tiles * self.feature_size)
        return self.head.forward(concat, training=training)

    def tile_features(self, tiles: np.ndarray) -> np.ndarray:
        """Inference trunk features ``(B, T, F)`` of tiles ``(B, T, C, h, w)``."""
        folded = tiles.reshape((-1,) + tiles.shape[2:])
        features = self.trunk.forward(folded, training=False)
        return features.reshape(len(tiles), self.num_tiles, self.feature_size)

    def head_logits(self, features: np.ndarray, orders: np.ndarray) -> np.ndarray:
        """Logits of puzzles whose slot ``j`` shows tile ``orders[i, j]``."""
        batch = len(features)
        concat = features[np.arange(batch)[:, None], orders].reshape(batch, -1)
        return self.head.forward(concat, training=False)

    def puzzle_logits(
        self,
        images: np.ndarray,
        sampler: JigsawSampler,
        *,
        trials: int = 1,
        batch_size: int = 64,
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(start, logits, labels)`` of ``trials`` puzzles per image slice.

        Each ``batch_size`` slice yields once per trial.  Labels are drawn
        trial-major, slice-minor, as ``trials`` passes of ``sampler.batch``
        over the slices draw them, and the logits equal ``predict`` of those
        batches bit for bit: the trunk runs once per slice on the unshuffled
        tiles, and permuting tiles inside each image's block of a trunk
        batch leaves every tile's output row unchanged
        (``tests/selfsup/test_puzzle_logits.py`` pins it).
        """
        starts = range(0, len(images), batch_size)
        labels = [
            [sampler.draw_labels(len(images[s : s + batch_size])) for s in starts]
            for _ in range(trials)
        ]
        for k, start in enumerate(starts):
            tiles = grid_tiles(images[start : start + batch_size])
            features = self.tile_features(tiles)
            for trial in labels:
                orders = sampler.permset.perms[trial[k]]
                yield start, self.head_logits(features, orders), trial[k]

    def backward(self, grad_logits: np.ndarray) -> None:
        grad_concat = self.head.backward(grad_logits)
        batch = grad_concat.shape[0]
        grad_features = grad_concat.reshape(
            batch * self.num_tiles, self.feature_size
        )
        self.trunk.backward(grad_features)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {f"trunk:{k}": v for k, v in self.trunk.state_dict().items()}
        state.update(
            {f"head:{k}": v for k, v in self.head.state_dict().items()}
        )
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        trunk_state = {
            k.removeprefix("trunk:"): v
            for k, v in state.items()
            if k.startswith("trunk:")
        }
        head_state = {
            k.removeprefix("head:"): v
            for k, v in state.items()
            if k.startswith("head:")
        }
        self.trunk.load_state_dict(trunk_state)
        self.head.load_state_dict(head_state)
