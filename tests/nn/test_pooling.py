"""Max pooling: values and gradients over non-overlapping windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MaxPool2D


def maxpool_tiled_reference(x, grad_out, k):
    """The windowed / 6-D broadcast formulation ``MaxPool2D`` used before."""
    batch, channels, height, width = x.shape
    tiles = x.reshape(batch, channels, height // k, k, width // k, k)
    out = tiles.max(axis=(3, 5))
    mask = tiles == out[:, :, :, None, :, None]
    counts = mask.sum(axis=(3, 5), keepdims=True).astype(grad_out.dtype)
    grad = mask * grad_out[:, :, :, None, :, None] / counts
    return out, grad.reshape(x.shape)


class TestMaxPoolTiledMatchesOldFormulation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3])
    def test_forward_backward_exact(self, k, dtype, physical_layouts):
        rng = np.random.default_rng(k)
        # Few distinct values: plenty of 2-, 3- and 4-way ties per window.
        x = rng.integers(0, 3, size=(3, 4, 6 * k, 4 * k)).astype(dtype)
        x += rng.normal(size=x.shape).astype(dtype) * (x == 2)
        shape = (3, 4, 6, 4)
        grad_out = rng.normal(size=shape).astype(dtype)  # mixed sign
        want_out, want_grad = maxpool_tiled_reference(x, grad_out, k)
        assert (want_grad == 0).any() and (want_grad < 0).any()
        for x_name, x_given in physical_layouts(x).items():
            for g_name, g_given in physical_layouts(grad_out).items():
                pool = MaxPool2D(k)
                out = pool.forward(x_given, training=True)
                grad = pool.backward(g_given)
                assert out.dtype == grad.dtype == dtype
                assert np.array_equal(out, want_out), x_name
                assert np.array_equal(grad, want_grad), (x_name, g_name)
                # Signed zeros too: (g/c)*mask and (mask*g)/c agree bit for bit.
                assert np.array_equal(
                    np.signbit(grad), np.signbit(want_grad)
                ), (x_name, g_name)

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_flat_input_splits_gradient_evenly(self, k):
        """Every window ties k*k ways: each tap gets 1/k^2 of its gradient
        (k = 16: 256 ties, one more than a uint8 count could hold)."""
        x = np.full((2, 3, 2 * k, 2 * k), 0.5, dtype=np.float32)
        grad_out = np.random.default_rng(1).normal(size=(2, 3, 2, 2))
        grad_out = grad_out.astype(np.float32)
        pool = MaxPool2D(k)
        pool.forward(x, training=True)
        grad = pool.backward(grad_out)
        want = np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3)
        want = want / np.float32(k * k)
        assert np.array_equal(grad, want)
        assert np.array_equal(
            grad, maxpool_tiled_reference(x, grad_out, k)[1]
        )

    def test_inference_forward_keeps_no_cache(self):
        pool = MaxPool2D(2)
        pool.forward(np.zeros((1, 1, 4, 4)))
        assert pool._cache is None

    def test_indivisible_input_is_rejected(self):
        """A side the kernel does not divide has no tiling: a ValueError."""
        x = np.zeros((1, 2, 5, 4))
        with pytest.raises(ValueError, match="5x4 does not divide"):
            MaxPool2D(2).forward(x)
        with pytest.raises(ValueError, match="5x4 does not divide"):
            MaxPool2D(2).output_shape((2, 5, 4))


class TestMaxPool:
    def test_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        assert out.reshape(-1).tolist() == [5, 7, 13, 15]

    def test_output_shape(self):
        assert MaxPool2D(3).output_shape((8, 12, 15)) == (8, 4, 5)

    @pytest.mark.usefixtures("float64_mode")
    def test_gradcheck_tiled(self, gradcheck, rng):
        # Distinct values avoid max ties, keeping the gradient smooth.
        x = rng.permutation(64).reshape(1, 1, 8, 8).astype(np.float64)
        gradcheck(MaxPool2D(2), x)

    def test_tie_gradient_splits(self):
        """Equal values in one window share the gradient."""
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2))
        out = pool.forward(x, training=True)
        grad = pool.backward(np.full_like(out, 4.0))
        assert np.allclose(grad, 1.0)

    def test_gradient_conservation(self, rng):
        pool = MaxPool2D(2)
        x = rng.normal(size=(2, 3, 6, 6))
        out = pool.forward(x, training=True)
        grad_out = rng.normal(size=out.shape)
        grad_in = pool.backward(grad_out)
        assert np.isclose(grad_in.sum(), grad_out.sum())
