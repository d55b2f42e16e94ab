"""Shared fixtures and numeric helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DriftModel, ImageGenerator, make_dataset
from repro.nn.config import set_default_dtype


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def float64_mode():
    """Run a test under float64 for tight gradient-check tolerances."""
    set_default_dtype(np.float64)
    yield
    set_default_dtype(np.float32)


@pytest.fixture
def physical_layouts():
    """``layouts(x)``: the same NCHW values in the three byte orders the
    conv stack produces — C-contiguous, channels-last (a conv output) and
    channel-major (a col2im gradient)."""

    def layouts(x: np.ndarray) -> dict[str, np.ndarray]:
        def stored_as(*axes: int) -> np.ndarray:
            return np.ascontiguousarray(x.transpose(axes)).transpose(
                np.argsort(axes)
            )

        return {
            "contiguous": x,
            "nhwc": stored_as(0, 2, 3, 1),
            "channel_major": stored_as(1, 0, 2, 3),
        }

    return layouts


@pytest.fixture
def generator(rng) -> ImageGenerator:
    return ImageGenerator(image_size=48, num_classes=4, rng=rng)


@pytest.fixture
def small_ideal_dataset(generator, rng):
    return make_dataset(48, generator=generator, rng=rng)


@pytest.fixture
def small_drifted_dataset(generator, rng):
    drift = DriftModel(0.5, rng=rng)
    return make_dataset(48, generator=generator, drift=drift, rng=rng)


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        plus = fn()
        flat_x[i] = original - eps
        minus = fn()
        flat_x[i] = original
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


@pytest.fixture
def gradcheck():
    """Check a layer's backward pass against numeric differentiation.

    Usage: ``gradcheck(layer, x)`` — verifies input gradient and every
    parameter gradient under a random linear functional of the output.
    """

    def check(layer, x: np.ndarray, tol: float = 1e-6) -> None:
        x = x.astype(np.float64)
        probe_rng = np.random.default_rng(99)
        out = layer.forward(x, training=True)
        probe = probe_rng.normal(size=out.shape)

        def loss() -> float:
            return float((layer.forward(x, training=True) * probe).sum())

        # Analytic gradients.
        layer.forward(x, training=True)
        for p in layer.parameters:
            p.zero_grad()
        grad_in = layer.backward(probe)

        num_in = numeric_gradient(loss, x)
        assert np.allclose(grad_in, num_in, atol=tol, rtol=1e-4), (
            f"input gradient mismatch: max err "
            f"{np.abs(grad_in - num_in).max()}"
        )
        for p in layer.parameters:
            num_p = numeric_gradient(loss, p.data)
            assert np.allclose(p.grad, num_p, atol=tol, rtol=1e-4), (
                f"{p.name} gradient mismatch: max err "
                f"{np.abs(p.grad - num_p).max()}"
            )

    return check


@pytest.fixture
def eval_conv_calls(monkeypatch):
    """``Conv2D.forward`` calls made inside each
    ``FleetRuntime.eval_accuracy`` call, in order: 0 means the prefix memo
    served every eval image's conv rows.  The memo starts empty, so rows
    an earlier test left cannot serve a first score."""
    from repro.fleet.simulation import FleetRuntime
    from repro.nn import prefix_memo
    from repro.nn.conv import Conv2D

    prefix_memo.clear()

    forward, score = Conv2D.forward, FleetRuntime.eval_accuracy
    calls, per_eval = [0], []

    def counting_forward(self, *args, **kwargs):
        calls[0] += 1
        return forward(self, *args, **kwargs)

    def counting_score(self, eval_data):
        before = calls[0]
        accuracy = score(self, eval_data)
        per_eval.append(calls[0] - before)
        return accuracy

    monkeypatch.setattr(Conv2D, "forward", counting_forward)
    monkeypatch.setattr(FleetRuntime, "eval_accuracy", counting_score)
    return per_eval


@pytest.fixture
def explain_divergence():
    """``explain(text_a, text_b, label_a=, label_b=)``: the rendered
    first-divergence report for two JSONL traces, or ``None`` when they
    are equal — a byte-identity assertion's failure message, in place of
    a bare ``a != b``."""
    from repro.obs.analyze import first_divergence, render_divergence

    def explain(text_a, text_b, *, label_a="a", label_b="b"):
        if text_a == text_b:
            return None
        div = first_divergence(text_a.splitlines(), text_b.splitlines())
        if div is None:
            return None
        return render_divergence(div, label_a=label_a, label_b=label_b)

    return explain
