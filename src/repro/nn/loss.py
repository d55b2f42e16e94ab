"""The softmax cross-entropy loss and top-1 accuracy."""

from __future__ import annotations

import numpy as np

from repro.nn.activations import softmax

__all__ = ["CrossEntropyLoss", "accuracy"]


class CrossEntropyLoss:
    """Fused softmax + cross-entropy over integer class labels.

    ``forward`` returns the mean loss; ``backward`` returns the gradient of
    that mean loss w.r.t. the logits (the familiar ``(p - y) / B``).
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        if labels.shape != (logits.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match batch "
                f"{logits.shape[0]}"
            )
        if labels.min() < 0 or labels.max() >= logits.shape[1]:
            raise ValueError("labels out of range for logits")
        probs = softmax(logits, axis=1)
        self._cache = (probs, labels)
        picked = probs[np.arange(len(labels)), labels]
        return float(-np.log(np.clip(picked, 1e-12, None)).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, labels = self._cache
        self._cache = None
        grad = probs.copy()
        grad[np.arange(len(labels)), labels] -= 1.0
        return grad / len(labels)

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float((logits.argmax(axis=1) == labels).mean())
