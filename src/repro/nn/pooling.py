"""Spatial max pooling."""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer, Shape

__all__ = ["MaxPool2D"]


class MaxPool2D(Layer):
    """Max pooling over non-overlapping square windows (stride = kernel).

    Every network here pools by 2 on sides that divide by 2, so the
    windows tile the input; a side the kernel does not divide is a
    ``ValueError``.
    """

    def __init__(self, kernel: int, name: str = "pool") -> None:
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self.name = name
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        channels, height, width = input_shape
        k = self.kernel
        if height % k or width % k:
            raise ValueError(
                f"{self.name}: input {height}x{width} does not divide into "
                f"{k}x{k} windows"
            )
        return channels, height // k, width // k

    def _taps(self, x: np.ndarray) -> list[np.ndarray]:
        """The ``k*k`` strided views holding each window's tap ``(i, j)``."""
        k = self.kernel
        return [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Running maximum over the taps: no window temporaries."""
        self.output_shape(x.shape[1:])
        taps = self._taps(x)
        out = taps[0].copy(order="K")
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        if training:
            self._cache = (x, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Each window's gradient goes to its maxima, split equally on ties.

        Computed as ``(grad_out / count) * mask`` per tap, which equals
        ``(mask * grad_out) / count`` bit for bit.
        """
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x, out = self._cache
        self._cache = None
        masks = [tap == out for tap in self._taps(x)]
        # Tie counts in the narrowest type that holds k*k (uint8 up to k=15).
        counts = masks[0].astype(np.min_scalar_type(len(masks)))
        for mask in masks[1:]:
            counts += mask
        # share and grad_in take the byte order of the cached activations
        # (channels-last after a convolution), whatever grad_out's is, so
        # the taps below and the ReLU backward downstream stream over
        # matching strides.
        share = np.empty_like(out, dtype=grad_out.dtype)
        np.divide(grad_out, counts, out=share)
        grad_in = np.empty_like(x, dtype=grad_out.dtype)
        for tap, mask in zip(self._taps(grad_in), masks):
            np.multiply(share, mask, out=tap)
        return grad_in
