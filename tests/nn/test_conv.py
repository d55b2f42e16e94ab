"""Conv2D layer: shapes, gradients, freezing, first-layer skip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Conv2D


class TestConvShapes:
    def test_output_shape(self, rng):
        conv = Conv2D(3, 16, 5, stride=2, pad=2, rng=rng)
        assert conv.output_shape((3, 48, 48)) == (16, 24, 24)

    def test_channel_mismatch_raises(self, rng):
        conv = Conv2D(3, 16, 3, rng=rng)
        with pytest.raises(ValueError, match="channels"):
            conv.output_shape((4, 8, 8))

    def test_forward_shape(self, rng):
        conv = Conv2D(3, 8, 3, pad=1, rng=rng)
        out = conv.forward(rng.normal(size=(2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_bad_dims_raise(self):
        with pytest.raises(ValueError):
            Conv2D(0, 8, 3)
        with pytest.raises(ValueError):
            Conv2D(3, 8, 3, pad=-1)


class TestConvValues:
    def test_identity_1x1(self, rng):
        conv = Conv2D(2, 2, 1, rng=rng)
        conv.weight.data[...] = np.eye(2).reshape(2, 2, 1, 1)
        conv.bias.data[...] = 0.0
        x = rng.normal(size=(1, 2, 4, 4))
        assert np.allclose(conv.forward(x), x, atol=1e-6)

    def test_bias_applied_per_channel(self, rng):
        conv = Conv2D(1, 3, 1, rng=rng)
        conv.weight.data[...] = 0.0
        conv.bias.data[...] = [1.0, 2.0, 3.0]
        out = conv.forward(np.zeros((1, 1, 2, 2)))
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 2], 3.0)


class TestConvGradients:
    @pytest.mark.usefixtures("float64_mode")
    def test_gradcheck_basic(self, gradcheck, rng):
        conv = Conv2D(2, 3, 3, pad=1, rng=rng, name="c")
        gradcheck(conv, rng.normal(size=(2, 2, 5, 5)))

    @pytest.mark.usefixtures("float64_mode")
    def test_gradcheck_strided(self, gradcheck, rng):
        conv = Conv2D(3, 2, 3, stride=2, pad=1, rng=rng, name="c")
        gradcheck(conv, rng.normal(size=(1, 3, 7, 7)))

    def test_backward_without_forward_raises(self, rng):
        conv = Conv2D(2, 2, 3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 2, 1, 1)))

    def test_frozen_skips_weight_grad(self, rng):
        conv = Conv2D(2, 2, 3, pad=1, rng=rng)
        conv.freeze()
        x = rng.normal(size=(1, 2, 4, 4))
        out = conv.forward(x, training=True)
        conv.backward(np.ones_like(out))
        assert np.all(conv.weight.grad == 0.0)
        assert np.all(conv.bias.grad == 0.0)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_frozen_layer_still_propagates_exact_input_grad(self, stride):
        """Freezing skips the dead weight/bias GEMMs, nothing else."""
        layers = [
            Conv2D(4, 4, 3, stride, pad=1, rng=np.random.default_rng(3))
            for _ in range(2)
        ]
        layers[1].freeze()
        x = np.random.default_rng(4).normal(size=(2, 4, 6, 6)).astype(np.float32)
        grads = []
        for layer in layers:
            out = layer.forward(x, training=True)
            grads.append(layer.backward(np.sin(out)).copy())
        assert np.array_equal(grads[0], grads[1])
        assert np.any(layers[0].weight.grad != 0.0)
        assert np.all(layers[1].weight.grad == 0.0)
        assert np.all(layers[1].bias.grad == 0.0)

    def test_skip_input_grad_returns_zeros(self, rng):
        conv = Conv2D(2, 2, 3, pad=1, rng=rng)
        conv.skip_input_grad = True
        x = rng.normal(size=(1, 2, 4, 4))
        out = conv.forward(x, training=True)
        grad_in = conv.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert np.all(grad_in == 0.0)
        # Weight gradients still flow.
        assert not np.all(conv.weight.grad == 0.0)
