"""Sequential container: shapes, surgery, freezing, save/load."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Conv2D, Flatten, Linear, MaxPool2D, ReLU, Sequential


def tiny_net(rng, num_classes=3):
    return Sequential(
        [
            Conv2D(3, 4, 3, pad=1, rng=rng, name="conv1"),
            ReLU(name="relu1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(4, 6, 3, pad=1, rng=rng, name="conv2"),
            ReLU(name="relu2"),
            Flatten(name="flatten"),
            Linear(6 * 4 * 4, num_classes, rng=rng, name="fc"),
        ],
        input_shape=(3, 8, 8),
    )


class TestConstruction:
    def test_shapes_chain(self, rng):
        net = tiny_net(rng)
        assert net.output_shape == (3,)
        assert net.shape_at(1) == (4, 8, 8)  # out of conv1
        assert net.shape_at(3) == (4, 4, 4)  # out of pool1

    def test_duplicate_names_rejected(self, rng):
        with pytest.raises(ValueError, match="duplicate"):
            Sequential(
                [ReLU(name="a"), ReLU(name="a")], input_shape=(3, 8, 8)
            )

    def test_incompatible_shapes_fail_at_build(self, rng):
        with pytest.raises(ValueError):
            Sequential(
                [
                    Conv2D(3, 4, 3, rng=rng, name="c1"),
                    Linear(10, 2, rng=rng, name="fc"),  # wrong fan-in
                ],
                input_shape=(3, 8, 8),
            )

    def test_first_conv_skips_input_grad(self, rng):
        net = tiny_net(rng)
        assert net["conv1"].skip_input_grad is True
        assert net["conv2"].skip_input_grad is False

    def test_getitem_unknown_raises(self, rng):
        with pytest.raises(KeyError):
            tiny_net(rng)["nope"]


class TestExecution:
    def test_forward_backward_roundtrip(self, rng):
        net = tiny_net(rng)
        x = rng.normal(size=(2, 3, 8, 8))
        out = net.forward(x, training=True)
        assert out.shape == (2, 3)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_predict_matches_eval_forward(self, rng):
        net = tiny_net(rng)
        x = rng.normal(size=(1, 3, 8, 8))
        assert np.array_equal(net.predict(x), net.forward(x))


class TestFreezing:
    def test_freeze_layers(self, rng):
        net = tiny_net(rng)
        net.freeze_layers(["conv1"])
        assert net["conv1"].frozen
        assert not net["conv2"].frozen
        assert [layer.name for layer in net if layer.frozen] == ["conv1"]

    def test_unfreeze_all(self, rng):
        net = tiny_net(rng)
        net.freeze_layers(["conv1", "conv2"])
        net.unfreeze_all()
        assert not any(layer.frozen for layer in net)


class TestWeights:
    def test_state_dict_roundtrip(self, rng):
        net_a = tiny_net(rng)
        net_b = tiny_net(np.random.default_rng(999))
        net_b.load_state_dict(net_a.state_dict())
        x = rng.normal(size=(1, 3, 8, 8))
        assert np.allclose(net_a.predict(x), net_b.predict(x))

    def test_load_missing_key_raises(self, rng):
        net = tiny_net(rng)
        state = net.state_dict()
        state.pop("conv1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_copy_layer_weights(self, rng):
        donor = tiny_net(rng)
        target = tiny_net(np.random.default_rng(7))
        target.copy_layer_weights(donor, ["conv1", "conv2"])
        assert np.array_equal(
            donor["conv1"].weight.data, target["conv1"].weight.data
        )
        # fc untouched
        assert not np.array_equal(
            donor["fc"].weight.data, target["fc"].weight.data
        )

