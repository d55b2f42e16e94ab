"""IoT-scale trainable models: structure and weight compatibility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    CONV_LAYER_NAMES,
    MODEL_CONFIGS,
    build_classifier,
    build_jigsaw_trunk,
    build_model,
    trunk_feature_size,
)


def num_parameters(net):
    return sum(p.size for p in net.parameters)


class TestClassifier:
    def test_five_conv_layers(self, rng):
        net = build_classifier(6, rng)
        names = [layer.name for layer in net if layer.name.startswith("conv")]
        assert tuple(names) == CONV_LAYER_NAMES

    def test_output_matches_classes(self, rng):
        net = build_classifier(7, rng)
        assert net.output_shape == (7,)

    def test_forward_runs(self, rng):
        net = build_classifier(4, rng)
        out = net.predict(rng.normal(size=(2, 3, 48, 48)).astype(np.float32))
        assert out.shape == (2, 4)

    def test_width_scales_parameters(self, rng):
        small = build_classifier(4, rng, width=0.5)
        large = build_classifier(4, np.random.default_rng(0), width=1.5)
        assert num_parameters(large) > 2 * num_parameters(small)

    def test_min_classes(self, rng):
        with pytest.raises(ValueError):
            build_classifier(1, rng)


class TestJigsawTrunk:
    def test_flat_output(self, rng):
        trunk = build_jigsaw_trunk(rng)
        assert trunk.output_shape == (
            trunk_feature_size(input_size=16),
        )

    def test_conv_weights_compatible_with_classifier(self, rng):
        """The same conv weights must fit both the 16x16 trunk and the
        48x48 classifier — the foundation of the paper's weight sharing."""
        trunk = build_jigsaw_trunk(rng)
        net = build_classifier(5, np.random.default_rng(1))
        net.copy_layer_weights(trunk, list(CONV_LAYER_NAMES))
        for name in CONV_LAYER_NAMES:
            assert np.array_equal(
                trunk[name].weight.data, net[name].weight.data
            )

    def test_feature_size_formula(self):
        # 16 -> pool -> 8 -> pool -> 4 (no pool5 below 32), conv5 width 32.
        assert trunk_feature_size(input_size=16) == 32 * 4 * 4
        # 48 -> 24 -> 12 -> pool5 -> 6.
        assert trunk_feature_size(input_size=48) == 32 * 6 * 6


class TestRegistry:
    def test_three_capacities(self):
        assert set(MODEL_CONFIGS) == {
            "iot-alexnet", "iot-googlenet", "iot-vggnet",
        }

    def test_capacity_ordering(self, rng):
        nets = {
            name: build_model(name, 4, np.random.default_rng(0))
            for name in MODEL_CONFIGS
        }
        assert (
            num_parameters(nets["iot-alexnet"])
            < num_parameters(nets["iot-googlenet"])
            < num_parameters(nets["iot-vggnet"])
        )

    def test_unknown_model(self, rng):
        with pytest.raises(KeyError):
            build_model("iot-resnet", 4, rng)
