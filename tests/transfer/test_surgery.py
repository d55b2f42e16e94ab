"""Network surgery: freeze plans, weight transfer, re-initialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import CONV_LAYER_NAMES, build_classifier, build_jigsaw_trunk
from repro.transfer import FreezePlan, reinitialize_above, transfer_conv_weights


class TestFreezePlan:
    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            FreezePlan(6)
        with pytest.raises(ValueError):
            FreezePlan(-1)

    def test_names_partition(self):
        plan = FreezePlan(3)
        assert plan.frozen_conv_names == ("conv1", "conv2", "conv3")

    def test_apply_freezes_prefix(self, rng):
        net = build_classifier(4, rng)
        FreezePlan(2).apply(net)
        assert net["conv1"].frozen and net["conv2"].frozen
        assert not net["conv3"].frozen
        assert not net["fc8"].frozen

    def test_apply_resets_previous_plan(self, rng):
        net = build_classifier(4, rng)
        FreezePlan(5).apply(net)
        FreezePlan(1).apply(net)
        assert [layer.name for layer in net if layer.frozen] == ["conv1"]

    def test_conv0_freezes_nothing(self, rng):
        net = build_classifier(4, rng)
        FreezePlan(0).apply(net)
        assert not any(layer.frozen for layer in net)


class TestTransfer:
    def test_copies_exactly_depth_layers(self, rng):
        trunk = build_jigsaw_trunk(rng)
        net = build_classifier(4, np.random.default_rng(9))
        copied = transfer_conv_weights(trunk, net, 3)
        assert copied == ["conv1", "conv2", "conv3"]
        assert np.array_equal(
            trunk["conv2"].weight.data, net["conv2"].weight.data
        )
        assert not np.array_equal(
            trunk["conv4"].weight.data, net["conv4"].weight.data
        )

    def test_depth_zero_copies_nothing(self, rng):
        trunk = build_jigsaw_trunk(rng)
        net = build_classifier(4, np.random.default_rng(9))
        before = net["conv1"].weight.data.copy()
        assert transfer_conv_weights(trunk, net, 0) == []
        assert np.array_equal(before, net["conv1"].weight.data)

    def test_depth_out_of_range(self, rng):
        trunk = build_jigsaw_trunk(rng)
        net = build_classifier(4, rng)
        with pytest.raises(ValueError):
            transfer_conv_weights(trunk, net, 7)


class TestReinitialize:
    def test_reinit_above_depth(self, rng):
        net = build_classifier(4, rng)
        kept = {
            name: net[name].weight.data.copy()
            for name in CONV_LAYER_NAMES[:3]
        }
        dropped = net["conv4"].weight.data.copy()
        fc = net["fc8"].weight.data.copy()
        touched = reinitialize_above(net, 3, np.random.default_rng(42))
        assert "conv4" in touched and "fc8" in touched
        for name, weights in kept.items():
            assert np.array_equal(net[name].weight.data, weights)
        assert not np.array_equal(net["conv4"].weight.data, dropped)
        assert not np.array_equal(net["fc8"].weight.data, fc)

    def test_reinit_zeroes_biases(self, rng):
        net = build_classifier(4, rng)
        net["fc8"].bias.data[...] = 5.0
        reinitialize_above(net, 5, np.random.default_rng(1))
        assert np.all(net["fc8"].bias.data == 0.0)
