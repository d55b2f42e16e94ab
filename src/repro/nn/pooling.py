"""Spatial max pooling."""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer, Shape
from repro.nn.im2col import conv_output_size

__all__ = ["MaxPool2D"]


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """View the input as ``(B, C, R, C_out, kernel, kernel)`` windows."""
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    return np.lib.stride_tricks.as_strided(
        x, (batch, channels, out_h, out_w, kernel, kernel), strides
    )


class MaxPool2D(Layer):
    """Max pooling with a square window.

    AlexNet/VGG use overlapping and non-overlapping variants; both are
    supported via independent ``kernel``/``stride``.
    """

    def __init__(self, kernel: int, stride: int | None = None, name: str = "pool") -> None:
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.name = name
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        channels, height, width = input_shape
        return (
            channels,
            conv_output_size(height, self.kernel, self.stride, 0),
            conv_output_size(width, self.kernel, self.stride, 0),
        )

    def _tiled(self, x: np.ndarray) -> bool:
        """Non-overlapping windows that cover the input (the common case)."""
        k = self.kernel
        return k == self.stride and x.shape[2] % k == 0 and x.shape[3] % k == 0

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        if self._tiled(x):
            out = self._forward_tiled(x)
        else:
            out = _windows(x, self.kernel, self.stride).max(axis=(4, 5))
        if training:
            self._cache = (x, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x, out = self._cache
        self._cache = None
        k, s = self.kernel, self.stride
        if self._tiled(x):
            return self._backward_tiled(x, out, grad_out)
        grad_in = np.zeros_like(x)
        out_h, out_w = out.shape[2], out.shape[3]
        for r in range(out_h):
            for c in range(out_w):
                window = x[:, :, r * s : r * s + k, c * s : c * s + k]
                mask = window == out[:, :, r : r + 1, c : c + 1]
                # Split gradient equally among ties (matters for flat inputs).
                counts = mask.sum(axis=(2, 3), keepdims=True).astype(
                    grad_out.dtype
                )
                grad_in[:, :, r * s : r * s + k, c * s : c * s + k] += (
                    mask * grad_out[:, :, r : r + 1, c : c + 1] / counts
                )
        return grad_in

    def _taps(self, x: np.ndarray) -> list[np.ndarray]:
        """The ``k*k`` strided views holding each window's tap ``(i, j)``."""
        k = self.kernel
        return [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]

    def _forward_tiled(self, x: np.ndarray) -> np.ndarray:
        """Running maximum over the taps: no window temporaries."""
        taps = self._taps(x)
        out = taps[0].copy(order="K")
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        return out

    def _backward_tiled(
        self, x: np.ndarray, out: np.ndarray, grad_out: np.ndarray
    ) -> np.ndarray:
        """Each window's gradient goes to its maxima, split equally on ties.

        Computed as ``(grad_out / count) * mask`` per tap, which equals the
        general path's ``(mask * grad_out) / count`` bit for bit.
        """
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
