"""Fine-tuning with frozen-prefix acceleration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_classifier
from repro.nn import SGD, CrossEntropyLoss
from repro.transfer import (
    FreezePlan,
    evaluate,
    split_at_frozen_prefix,
    train_classifier,
)


class TestSplitAtFrozenPrefix:
    def test_no_frozen_layers(self, rng):
        net = build_classifier(4, rng)
        assert split_at_frozen_prefix(net) == 0

    def test_conv3_boundary(self, rng):
        net = build_classifier(4, rng)
        FreezePlan(3).apply(net)
        boundary = split_at_frozen_prefix(net)
        # Boundary layer must be conv4 (first trainable parameterized layer).
        assert net.layers[boundary].name == "conv4"
        # Everything before is parameter-free or frozen.
        for layer in net.layers[:boundary]:
            assert not layer.parameters or layer.frozen

    def test_conv5_boundary_reaches_fcn(self, rng):
        net = build_classifier(4, rng)
        FreezePlan(5).apply(net)
        boundary = split_at_frozen_prefix(net)
        assert net.layers[boundary].name in ("flatten", "fc6")


class TestTrainClassifier:
    def test_training_improves_accuracy(self, rng, small_ideal_dataset):
        net = build_classifier(4, rng)
        result = train_classifier(
            net,
            small_ideal_dataset,
            epochs=6,
            batch_size=16,
            lr=0.02,
            rng=rng,
            eval_data=small_ideal_dataset,
        )
        assert result.eval_accuracies[-1] > 0.5
        assert result.sample_steps == 6 * len(small_ideal_dataset)

    def test_frozen_prefix_trains_faster(self, rng, small_ideal_dataset):
        """CONV-3 locking with feature caching beats full training on wall
        time — the paper's 1.7X observation."""
        full = build_classifier(4, np.random.default_rng(0))
        locked = build_classifier(4, np.random.default_rng(0))
        r_full = train_classifier(
            full, small_ideal_dataset, epochs=4, rng=rng
        )
        r_locked = train_classifier(
            locked,
            small_ideal_dataset,
            epochs=4,
            rng=rng,
            freeze_plan=FreezePlan(3),
        )
        assert r_locked.wall_time_s < r_full.wall_time_s
        assert r_locked.compute_units < r_full.compute_units

    def test_frozen_weights_unchanged(self, rng, small_ideal_dataset):
        net = build_classifier(4, rng)
        before = net["conv2"].weight.data.copy()
        train_classifier(
            net,
            small_ideal_dataset,
            epochs=1,
            rng=rng,
            freeze_plan=FreezePlan(3),
        )
        assert np.array_equal(net["conv2"].weight.data, before)

    def test_trainable_weights_change(self, rng, small_ideal_dataset):
        net = build_classifier(4, rng)
        before = net["conv5"].weight.data.copy()
        train_classifier(
            net,
            small_ideal_dataset,
            epochs=1,
            rng=rng,
            freeze_plan=FreezePlan(3),
        )
        assert not np.array_equal(net["conv5"].weight.data, before)

    def test_cached_and_uncached_agree(self, small_ideal_dataset):
        """Feature caching is an optimization, not a semantic change: the
        cached run matches, bit for bit, a loop that runs the whole network
        per batch."""
        net_a = build_classifier(4, np.random.default_rng(1))
        net_b = build_classifier(4, np.random.default_rng(1))
        train_classifier(
            net_a,
            small_ideal_dataset,
            epochs=2,
            rng=np.random.default_rng(5),
            freeze_plan=FreezePlan(3),
        )
        FreezePlan(3).apply(net_b)
        optimizer = SGD(net_b.parameters, lr=0.02)
        loss_fn = CrossEntropyLoss()
        images, labels = small_ideal_dataset.images, small_ideal_dataset.labels
        rng_b = np.random.default_rng(5)
        for _ in range(2):
            order = rng_b.permutation(len(labels))
            for start in range(0, len(labels), 32):
                idx = order[start : start + 32]
                loss_fn(net_b.forward(images[idx], training=True), labels[idx])
                net_b.zero_grad()
                net_b.backward(loss_fn.backward())
                optimizer.step()
        x = small_ideal_dataset.images[:4]
        assert np.array_equal(net_a.predict(x), net_b.predict(x))
        for a, b in zip(net_a.parameters, net_b.parameters, strict=True):
            assert np.array_equal(a.data, b.data), a.name

    def test_tail_training_does_not_leak_skip_input_grad(
        self, rng, small_ideal_dataset
    ):
        """The tail run marks its first conv (conv4) ``skip_input_grad``;
        the mark must not outlive the run, or a later full backward under
        a shallower freeze plan feeds zeros to conv1..conv3."""
        net = build_classifier(4, rng)
        train_classifier(
            net,
            small_ideal_dataset,
            epochs=1,
            rng=rng,
            freeze_plan=FreezePlan(3),
        )
        assert net["conv4"].skip_input_grad is False
        assert net["conv1"].skip_input_grad is True  # the net's own first layer

        net.unfreeze_all()
        x = small_ideal_dataset.images[:4]
        logits = net.forward(x, training=True)
        net.zero_grad()
        net.backward(np.ones_like(logits))
        assert np.any(net["conv1"].weight.grad != 0.0)

    def test_skip_input_grad_restored_when_training_raises(
        self, rng, small_ideal_dataset
    ):
        net = build_classifier(4, rng)
        bad_labels = small_ideal_dataset.labels.copy()
        bad_labels[:] = 99  # out of range: the loss raises mid-epoch
        broken = type(small_ideal_dataset)(
            small_ideal_dataset.images, bad_labels
        )
        with pytest.raises(ValueError, match="labels out of range"):
            train_classifier(
                net, broken, epochs=1, rng=rng, freeze_plan=FreezePlan(3)
            )
        assert net["conv4"].skip_input_grad is False

    def test_empty_dataset_rejected(self, rng, small_ideal_dataset):
        net = build_classifier(4, rng)
        with pytest.raises(ValueError):
            train_classifier(net, small_ideal_dataset.take(0), rng=rng)

    def test_zero_epochs_rejected(self, rng, small_ideal_dataset):
        net = build_classifier(4, rng)
        with pytest.raises(ValueError):
            train_classifier(net, small_ideal_dataset, epochs=0, rng=rng)


class TestEvaluate:
    def test_range(self, rng, small_ideal_dataset):
        net = build_classifier(4, rng)
        acc = evaluate(net, small_ideal_dataset)
        assert 0.0 <= acc <= 1.0

    def test_empty_raises(self, rng, small_ideal_dataset):
        net = build_classifier(4, rng)
        with pytest.raises(ValueError):
            evaluate(net, small_ideal_dataset.take(0))
