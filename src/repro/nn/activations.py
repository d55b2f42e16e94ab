"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer, Shape

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Softmax", "softmax"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class _Elementwise(Layer):
    """Shared machinery for shape-preserving activations."""

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape


class ReLU(_Elementwise):
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

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        mask, self._mask = self._mask, None
        return grad_out * mask


class LeakyReLU(_Elementwise):
    def __init__(self, slope: float = 0.01, name: str = "lrelu") -> None:
        if slope < 0:
            raise ValueError("slope must be >= 0")
        self.slope = slope
        self.name = name
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return np.where(mask, x, self.slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        mask, self._mask = self._mask, None
        return np.where(mask, grad_out, self.slope * grad_out)


class Tanh(_Elementwise):
    def __init__(self, name: str = "tanh") -> None:
        self.name = name
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        out = np.tanh(x)
        if training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        out, self._out = self._out, None
        return grad_out * (1.0 - out * out)


class Sigmoid(_Elementwise):
    def __init__(self, name: str = "sigmoid") -> None:
        self.name = name
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        if training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        out, self._out = self._out, None
        return grad_out * out * (1.0 - out)


class Softmax(_Elementwise):
    """Softmax over the last axis, usable as a standalone inference head.

    Training normally uses the fused softmax-cross-entropy loss instead (see
    :mod:`repro.nn.loss`) for numerical stability, so ``backward`` here
    implements the full Jacobian product for completeness.
    """

    def __init__(self, name: str = "softmax") -> None:
        self.name = name
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        out = softmax(x, axis=-1)
        if training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        out, self._out = self._out, None
        dot = (grad_out * out).sum(axis=-1, keepdims=True)
        return out * (grad_out - dot)
