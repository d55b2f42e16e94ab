"""Unsupervised pre-training (the Cloud's first job in Fig. 4).

Trains a :class:`ContextNetwork` on raw, unlabeled IoT images by solving
jigsaw puzzles, through the same SGD loop as fine-tuning and distillation
(:mod:`repro.transfer.finetune`): a minibatch is the sampler's puzzles of
the sliced images, and each epoch records the permutation accuracy.  The
returned trunk carries the features that transfer learning copies into the
inference network.
"""

from __future__ import annotations

import numpy as np

from repro.models import build_jigsaw_trunk
from repro.nn import CrossEntropyLoss
from repro.selfsup.context_net import ContextNetwork, build_context_head
from repro.selfsup.jigsaw import JigsawSampler
from repro.selfsup.permutations import PermutationSet
from repro.transfer.finetune import TrainResult, _sgd_epochs

__all__ = ["build_context_network", "pretrain", "permutation_accuracy"]


def build_context_network(
    permset: PermutationSet, *, rng: np.random.Generator | None = None
) -> ContextNetwork:
    """Fresh jigsaw network sized for the given permutation set."""
    rng = rng if rng is not None else np.random.default_rng(0)
    trunk = build_jigsaw_trunk(rng)
    head = build_context_head(
        trunk.output_shape[0], permset.num_tiles, len(permset), rng=rng
    )
    return ContextNetwork(trunk, head, num_tiles=permset.num_tiles)


def permutation_accuracy(
    network: ContextNetwork,
    images: np.ndarray,
    sampler: JigsawSampler,
) -> float:
    """Fraction of puzzles whose permutation the network identifies."""
    if len(images) == 0:
        raise ValueError("cannot evaluate on zero images")
    correct = 0
    for _, logits, labels in network.puzzle_logits(images, sampler, batch_size=64):
        correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / len(images)


def pretrain(
    network: ContextNetwork,
    images: np.ndarray,
    sampler: JigsawSampler,
    *,
    epochs: int = 5,
    batch_size: int = 32,
    lr: float = 0.02,
    rng: np.random.Generator | None = None,
) -> TrainResult:
    """Train the context network on unlabeled images.

    ``images`` is a raw (B, C, H, W) array — labels are never consulted,
    which is the whole point: the supervisory signal is spatial context.
    Each epoch ends with the permutation accuracy on those same images
    (``eval_accuracies``).
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    result = TrainResult(network=network)
    _sgd_epochs(
        network,
        result,
        lambda idx: sampler.batch(images[idx]),
        CrossEntropyLoss(),
        samples=len(images),
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        rng=rng,
        score=lambda: permutation_accuracy(network, images, sampler),
    )
    return result
