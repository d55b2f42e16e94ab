"""The ReLU layer (values, gradients) and softmax properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import ReLU, softmax


def relu_where(x, grad_out):
    """The formulation ``ReLU`` used before it went where-free."""
    mask = x > 0
    return np.where(mask, x, 0.0), np.where(mask, grad_out, 0.0)


class TestReLU:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_formulation(self, dtype, physical_layouts):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 6, 6)).astype(dtype)
        x[0, 0, 0, :3] = (0.0, -0.0, 1e-30)
        grad_out = rng.normal(size=x.shape).astype(dtype)  # mixed sign
        want_out, want_grad = relu_where(x, grad_out)
        for x_name, x_given in physical_layouts(x).items():
            for g_name, g_given in physical_layouts(grad_out).items():
                layer = ReLU()
                out = layer.forward(x_given, training=True)
                grad = layer.backward(g_given)
                assert out.dtype == grad.dtype == dtype
                assert np.array_equal(out, want_out), x_name
                assert np.array_equal(grad, want_grad), (x_name, g_name)

    def test_inference_forward_stores_no_mask(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        assert layer._mask is None
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_nan_propagates(self):
        """``np.where(x > 0, x, 0.0)`` mapped NaN to 0 and hid a diverged
        retrain behind a dead activation; ``np.maximum`` shows it."""
        x = np.array([[np.nan, -1.0, 2.0]], dtype=np.float32)
        out = ReLU().forward(x)
        assert np.isnan(out[0, 0])
        assert out[0, 1:].tolist() == [0.0, 2.0]

    def test_values(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0, 2.0]]

    def test_gradient_masks_negatives(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 3.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert grad.tolist() == [[0.0, 5.0]]

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros(3))


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(4, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 5))
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    @settings(max_examples=30, deadline=None)
    @given(
        logits=arrays(
            np.float64,
            (2, 6),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_probabilities_valid(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        assert np.all(probs <= 1)
        assert np.allclose(probs.sum(axis=-1), 1.0)
