"""The ReLU activation layer and the softmax function."""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer, Shape

__all__ = ["ReLU", "softmax"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class ReLU(Layer):
    """``max(x, 0)``; the ``x > 0`` mask is kept only by a training forward.

    ``np.maximum`` propagates NaN (``np.where(x > 0, x, 0.0)``, which this
    replaced, silently mapped it to 0), so a diverged retrain surfaces as a
    NaN loss instead of a zeroed activation.  Likewise ``grad_out * mask``
    lets a non-finite gradient through at a masked position (``inf * 0`` is
    NaN) where ``np.where`` zeroed it.  On finite values the two
    formulations are equal (a masked gradient is now a zero of ``grad_out``'s
    sign, which no sum downstream can tell from ``+0.0``).
    """

    def __init__(self, name: str = "relu") -> None:
        self.name = name
        self._mask: np.ndarray | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        mask, self._mask = self._mask, None
        return grad_out * mask
