"""Cross-entropy loss and top-1 accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, accuracy
from tests_helpers_losses import numeric_loss_gradient


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction(self):
        loss = CrossEntropyLoss()
        logits = np.zeros((3, 4))
        assert loss(logits, np.array([0, 1, 2])) == pytest.approx(np.log(4))

    def test_gradient_matches_numeric(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        loss(logits, labels)
        grad = loss.backward()
        num = numeric_loss_gradient(
            lambda z: CrossEntropyLoss()(z, labels), logits
        )
        assert np.allclose(grad, num, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 3]))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))
