"""Unsupervised pre-training loop (the Cloud's first job in Fig. 4).

Trains a :class:`ContextNetwork` on raw, unlabeled IoT images by solving
jigsaw puzzles.  The returned trunk carries the features that transfer
learning copies into the inference network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models import build_jigsaw_trunk
from repro.nn import SGD, CrossEntropyLoss
from repro.selfsup.context_net import ContextNetwork, build_context_head
from repro.selfsup.jigsaw import JigsawSampler
from repro.selfsup.permutations import PermutationSet

__all__ = ["PretrainResult", "build_context_network", "pretrain", "permutation_accuracy"]


@dataclass
class PretrainResult:
    """History of an unsupervised pre-training run."""

    network: ContextNetwork
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else 0.0


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
) -> PretrainResult:
    """Train the context network on unlabeled images.

    ``images`` is a raw (B, C, H, W) array — labels are never consulted,
    which is the whole point: the supervisory signal is spatial context.
    Each epoch ends with the permutation accuracy on those same images.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(network.parameters, lr=lr)
    result = PretrainResult(network=network)
    for _ in range(epochs):
        order = rng.permutation(len(images))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(images), batch_size):
            idx = order[start : start + batch_size]
            tiles, labels = sampler.batch(images[idx])
            logits = network.forward(tiles, training=True)
            epoch_loss += loss_fn(logits, labels)
            batches += 1
            network.zero_grad()
            network.backward(loss_fn.backward())
            optimizer.step()
        result.losses.append(epoch_loss / max(1, batches))
        result.accuracies.append(permutation_accuracy(network, images, sampler))
    return result
