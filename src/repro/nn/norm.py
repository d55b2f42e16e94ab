"""Normalization layers: local response norm (AlexNet) and batch norm."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.base import Layer, Shape
from repro.nn.tensor import Parameter

__all__ = ["LocalResponseNorm", "BatchNorm2D"]


class LocalResponseNorm(Layer):
    """Cross-channel LRN as used by AlexNet.

    ``b_c = a_c / (k + alpha/n * sum_{c'} a_{c'}^2) ** beta`` with the sum over
    a window of ``n`` adjacent channels.  Backward is implemented with the
    exact analytic gradient.
    """

    def __init__(
        self,
        size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 2.0,
        name: str = "lrn",
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.name = name
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def _denominator(self, x: np.ndarray) -> np.ndarray:
        sq = x * x
        channels = x.shape[1]
        half = self.size // 2
        acc = np.zeros_like(x)
        for offset in range(-half, half + 1):
            lo = max(0, -offset)
            hi = min(channels, channels - offset)
            acc[:, lo:hi] += sq[:, lo + offset : hi + offset]
        return self.k + (self.alpha / self.size) * acc

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        denom = self._denominator(x)
        out = x * denom ** (-self.beta)
        if training:
            self._cache = (x, denom, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x, denom, out = self._cache
        self._cache = None
        channels = x.shape[1]
        half = self.size // 2
        # d out_c / d x_j = denom^-beta * [c==j]
        #   - 2 beta alpha/n * x_c * x_j * denom_c^(-beta-1) for |c-j| <= half
        ratio = grad_out * out / denom  # grad * x_c * denom^(-beta-1)
        cross = np.zeros_like(x)
        for offset in range(-half, half + 1):
            lo = max(0, -offset)
            hi = min(channels, channels - offset)
            cross[:, lo + offset : hi + offset] += ratio[:, lo:hi]
        return grad_out * denom ** (-self.beta) - (
            2.0 * self.beta * self.alpha / self.size
        ) * x * cross


class BatchNorm2D(Layer):
    """Batch normalization over NCHW feature maps with running statistics."""

    def __init__(
        self,
        channels: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: str = "bn",
    ) -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.name = name
        self.gamma = Parameter(np.ones(channels), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), name=f"{name}.beta")
        self.running_mean = np.zeros(channels, dtype=self.gamma.data.dtype)
        self.running_var = np.ones(channels, dtype=self.gamma.data.dtype)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def parameters(self) -> Sequence[Parameter]:
        return (self.gamma, self.beta)

    def inference_arrays(self) -> Sequence[np.ndarray]:
        return (*super().inference_arrays(), self.running_mean, self.running_var)

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise ValueError(
                f"{self.name}: expected {self.channels} channels, got {x.shape[1]}"
            )
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(self.running_mean.dtype)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(self.running_var.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        if training:
            self._cache = (x_hat, inv_std, x)
        return (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x_hat, inv_std, x = self._cache
        self._cache = None
        count = x.shape[0] * x.shape[2] * x.shape[3]
        self.gamma.accumulate((grad_out * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate(grad_out.sum(axis=(0, 2, 3)))
        g = grad_out * self.gamma.data[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return (
            inv_std[None, :, None, None]
            * (g - sum_g / count - x_hat * sum_gx / count)
        )
