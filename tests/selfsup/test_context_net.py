"""Context network: shared trunk, forward/backward, state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss
from repro.selfsup import (
    PermutationSet,
    build_context_head,
    build_context_network,
)
from repro.selfsup.context_net import ContextNetwork


@pytest.fixture
def permset(rng):
    return PermutationSet.generate(6, rng=rng)


@pytest.fixture
def net(permset, rng):
    return build_context_network(permset, rng=rng)


class TestContextNetwork:
    def test_forward_shape(self, net, rng):
        tiles = rng.random((4, 9, 3, 16, 16)).astype(np.float32)
        assert net.forward(tiles).shape == (4, 6)

    def test_rejects_wrong_tile_count(self, net, rng):
        with pytest.raises(ValueError):
            net.forward(rng.random((2, 4, 3, 16, 16)))

    def test_trunk_is_shared_across_tiles(self, net, rng):
        """Permuting which tile goes through the trunk changes only the
        concatenation order — tile features must be identical."""
        tile = rng.random((1, 3, 16, 16)).astype(np.float32)
        feat_a = net.trunk.predict(tile)
        feat_b = net.trunk.predict(tile)
        assert np.array_equal(feat_a, feat_b)

    def test_backward_accumulates_from_all_tiles(self, net, rng):
        tiles = rng.random((2, 9, 3, 16, 16)).astype(np.float32)
        labels = np.array([0, 1])
        loss_fn = CrossEntropyLoss()
        logits = net.forward(tiles, training=True)
        loss_fn(logits, labels)
        net.zero_grad()
        net.backward(loss_fn.backward())
        conv1 = net.trunk["conv1"]
        assert not np.all(conv1.weight.grad == 0.0)

    def test_training_reduces_loss(self, permset, rng):
        from repro.nn import SGD
        from repro.selfsup import JigsawSampler

        net = build_context_network(permset, rng=np.random.default_rng(3))
        sampler = JigsawSampler(permset, rng=rng)
        images = rng.random((32, 3, 48, 48)).astype(np.float32)
        tiles, labels = sampler.batch(images)
        loss_fn = CrossEntropyLoss()
        opt = SGD(net.parameters, lr=0.01)
        losses = []
        for _ in range(40):
            logits = net.forward(tiles, training=True)
            losses.append(loss_fn(logits, labels))
            net.zero_grad()
            net.backward(loss_fn.backward())
            opt.step()
        # Noise images make the task hard; memorizing a fixed batch must
        # still clearly reduce the loss.
        assert losses[-1] < losses[0] * 0.7

    def test_state_dict_roundtrip(self, permset, rng):
        net_a = build_context_network(permset, rng=np.random.default_rng(1))
        net_b = build_context_network(permset, rng=np.random.default_rng(2))
        net_b.load_state_dict(net_a.state_dict())
        tiles = rng.random((1, 9, 3, 16, 16)).astype(np.float32)
        assert np.allclose(net_a.forward(tiles), net_b.forward(tiles))

    def test_mismatched_head_rejected(self, rng):
        from repro.models import build_jigsaw_trunk

        trunk = build_jigsaw_trunk(rng)
        head = build_context_head(10, 9, 5, rng=rng)  # wrong feature size
        with pytest.raises(ValueError):
            ContextNetwork(trunk, head)

    def test_num_classes(self, net):
        assert net.head.output_shape == (6,)
