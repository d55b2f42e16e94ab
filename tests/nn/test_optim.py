"""The SGD optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD
from repro.nn.tensor import Parameter


def make_param(value=1.0, grad=1.0):
    p = Parameter(np.array([value]))
    p.grad[...] = grad
    return p


class TestSGD:
    def test_plain_step(self):
        p = make_param(1.0, grad=2.0)
        SGD([p], lr=0.1).step()  # no velocity yet: a plain step
        assert p.data[0] == pytest.approx(0.8)

    def test_momentum_accumulates(self):
        p = make_param(0.0, grad=1.0)
        opt = SGD([p], lr=1.0)
        opt.step()  # v = -1,   x = -1
        p.grad[...] = 1.0
        opt.step()  # v = -1.9, x = -2.9 (momentum 0.9)
        assert p.data[0] == pytest.approx(-2.9)

    def test_frozen_parameter_untouched(self):
        p = make_param(5.0, grad=100.0)
        p.frozen = True
        SGD([p], lr=1.0).step()
        assert p.data[0] == 5.0

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)

    def test_converges_on_quadratic(self):
        """Minimize (x - 3)^2 — sanity of the whole update rule."""
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=0.1)
        for _ in range(300):
            p.zero_grad()
            p.accumulate(2.0 * (p.data - 3.0))
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-4)
