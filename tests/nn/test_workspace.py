"""The process-wide conv workspace: exactness, isolation, grow-only policy.

Everything :mod:`repro.nn.workspace` hands out is scratch, so the contract
is entirely negative: using it must change no bit of any result, must never
let one network's live training cache be overwritten by another's, and must
stop growing once the largest shapes have been seen.
"""

from __future__ import annotations

import copy
import os
import pickle

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Conv2D,
    CrossEntropyLoss,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    workspace,
)
from repro.models import build_classifier
from repro.nn.conv import BLOCK_BYTES
from repro.nn.reference import col2im_reference, im2col_reference
from tests_helpers_im2col import im2col_fresh

BATCH_CHURN = (5, 32, 12, 44, 5)


def sizes():
    """Bytes the workspace holds, per role and slot."""
    return {role: buf.nbytes for role, buf in workspace._BUFFERS.items()}


@pytest.fixture(autouse=True)
def fresh_workspace():
    workspace.reset()
    yield
    workspace.reset()


@pytest.fixture
def unpooled(monkeypatch):
    """The oracle: same code, every workspace request freshly allocated."""
    monkeypatch.setattr(
        workspace, "take", lambda role, shape, dtype: np.empty(shape, dtype)
    )
    monkeypatch.setattr(workspace, "checkout", lambda *args: None)


def small_net(seed: int = 7) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(3, 4, 3, pad=1, rng=rng, name="conv1"),
            ReLU(name="relu1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(4, 6, 3, pad=1, rng=rng, name="conv2"),
            ReLU(name="relu2"),
            Conv2D(6, 6, 5, stride=2, pad=2, rng=rng, name="conv3"),
            Flatten(name="flatten"),
            Linear(6 * 2 * 2, 3, rng=rng, name="fc"),
        ],
        input_shape=(3, 8, 8),
    )


def batch(size: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, size])
    return rng.normal(size=(size, 3, 8, 8)).astype(np.float32)


def train_step(net: Sequential, x: np.ndarray) -> dict[str, np.ndarray]:
    """One forward/backward; returns logits and every parameter gradient."""
    logits = net.forward(x, training=True)
    net.zero_grad()
    net.backward(np.cos(logits))
    grads = {p.name: p.grad.copy() for p in net.parameters}
    grads["logits"] = logits.copy()
    return grads


def assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def run_churn(net: Sequential) -> list[dict[str, np.ndarray]]:
    steps = []
    for size in BATCH_CHURN:
        steps.append(train_step(net, batch(size)))
        steps.append({"predict": net.predict(batch(size, seed=1)).copy()})
    return steps


class TestBitExactUnderShapeChurn:
    def test_net_matches_fresh_allocation(self, request):
        """(a) batch sizes 5 -> 32 -> 12 -> 44 -> 5 through shared buffers."""
        got = run_churn(small_net())
        request.getfixturevalue("unpooled")
        want = run_churn(small_net())
        for g, w in zip(got, want, strict=True):
            assert_same(g, w)

    @pytest.mark.parametrize("size", BATCH_CHURN)
    def test_layer_matches_reference_formulation(self, size):
        """Dense conv fwd+bwd equals the loop-based reference im2col/col2im
        fed through the same three GEMMs.  (At this toy shape BLAS's
        small-matrix kernels happen to agree across operand layouts; the
        shapes the workloads run are pinned, with the caveat spelled out,
        in ``test_hotpath_properties.py``.)"""
        layer = Conv2D(3, 5, 3, stride=2, pad=1, rng=np.random.default_rng(1))
        workspace.take("cols_infer", (1 << 16,), np.float64)  # dirty, oversize
        x = batch(size)
        out = layer.forward(x, training=True)
        grad_out = np.sin(out)
        grad_in = layer.backward(grad_out).copy()

        flat_w = layer.weight.data.reshape(5, -1)
        cols = im2col_reference(x, 3, 2, 1)
        want = cols @ flat_w.T
        want += layer.bias.data
        rows = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(
            -1, 5
        )
        assert np.array_equal(
            out, want.reshape(size, 4, 4, 5).transpose(0, 3, 1, 2)
        )
        assert np.array_equal(
            layer.weight.grad, (rows.T @ cols).reshape(layer.weight.data.shape)
        )
        assert np.array_equal(layer.bias.grad, rows.sum(axis=0))
        assert np.array_equal(
            grad_in, col2im_reference(rows @ flat_w, x.shape, 3, 2, 1)
        )


class TestLiveCachesNeverAlias:
    def test_interleaved_twin_networks(self):
        """(b) A.fwd, B.fwd, A.bwd, B.bwd with identical layer names."""
        xa, xb = batch(12, seed=2), batch(12, seed=3)
        want_a = train_step(small_net(1), xa)
        want_b = train_step(small_net(2), xb)

        net_a, net_b = small_net(1), small_net(2)
        logits_a = net_a.forward(xa, training=True)
        logits_b = net_b.forward(xb, training=True)
        net_a.zero_grad()
        net_a.backward(np.cos(logits_a))
        net_b.zero_grad()
        net_b.backward(np.cos(logits_b))
        got_a = {p.name: p.grad.copy() for p in net_a.parameters}
        got_b = {p.name: p.grad.copy() for p in net_b.parameters}
        assert_same({**got_a, "logits": logits_a}, want_a)
        assert_same({**got_b, "logits": logits_b}, want_b)
        # Both networks are between steps again: every slot is free.
        net_b.forward(xb, training=True)
        assert np.shares_memory(
            net_b["conv1"]._cache[0],
            workspace.take("cols_train/conv1", (1,), np.float32),
        )

    def test_second_network_falls_back_to_allocation(self):
        a = Conv2D(2, 3, 3, pad=1, rng=np.random.default_rng(0), name="c")
        b = Conv2D(2, 3, 3, pad=1, rng=np.random.default_rng(1), name="c")
        x = np.ones((2, 2, 5, 5), dtype=np.float32)
        a.forward(x, training=True)
        b.forward(x, training=True)
        cols_a, cols_b = a._cache[0], b._cache[0]
        assert not np.shares_memory(cols_a, cols_b)
        assert workspace.checkout("cols_train/c", b, (1,), np.float32) is None
        a.backward(np.ones((2, 3, 5, 5), dtype=np.float32))
        assert workspace.checkout("cols_train/c", b, (1,), np.float32) is not None

    def test_dangling_training_forward(self):
        """A training forward that never gets its backward must not corrupt
        a later step — on the same network or on a twin."""
        x1, x2 = batch(12, seed=4), batch(5, seed=5)
        want_same = train_step(small_net(1), x2)
        want_twin = train_step(small_net(2), x2)

        dangling = small_net(1)
        dangling.forward(x1, training=True)
        twin = small_net(2)
        assert_same(train_step(twin, x2), want_twin)
        assert_same(train_step(dangling, x2), want_same)
        # A holder that is garbage-collected frees its slots.
        dangling.forward(x1, training=True)
        del dangling
        twin.forward(x2, training=True)
        assert np.shares_memory(
            twin["conv1"]._cache[0],
            workspace.take("cols_train/conv1", (1,), np.float32),
        )
        assert_same(train_step(twin, x2), want_twin)


class TestGrowOnly:
    def test_second_pass_grows_nothing_and_total_is_sum_of_maxima(
        self, monkeypatch
    ):
        """(c) workspace bytes == sum over roles of the largest request."""
        largest: dict[str, int] = {}
        real_take = workspace.take

        def recording_take(role, shape, dtype):
            view = real_take(role, shape, dtype)
            largest[role] = max(largest.get(role, 0), view.nbytes)
            return view

        monkeypatch.setattr(workspace, "take", recording_take)
        net = small_net()
        run_churn(net)
        after_first = sizes()
        assert after_first == largest
        assert sum(after_first.values()) > 0
        run_churn(net)
        run_churn(small_net(3))  # a second network reuses the same bytes
        assert sizes() == after_first

    def test_layers_carry_no_scratch(self):
        """A copied or pickled layer is its parameters plus O(1)."""
        net = small_net()
        run_churn(net)
        layer = net["conv3"]
        param_bytes = sum(p.data.nbytes + p.grad.nbytes for p in layer.parameters)
        assert len(pickle.dumps(layer)) < param_bytes + 2048
        clone = copy.deepcopy(layer)
        arrays = [
            v for v in vars(clone).values() if isinstance(v, np.ndarray)
        ]
        assert arrays == []
        assert clone._cache is None

    def test_views_are_exact_shape_and_contiguous(self):
        big = workspace.take("role", (4, 6), np.float64)
        small = workspace.take("role", (3, 5), np.float32)
        assert small.shape == (3, 5) and small.dtype == np.float32
        assert small.flags.c_contiguous
        assert np.shares_memory(big, small)
        assert sizes() == {"role": 4 * 6 * 8}
        assert workspace.take("role", (0, 7), np.float32).size == 0


def test_inference_columns_stay_within_block_budget():
    """Inference fills one block of images' columns at a time: a batch-128
    sweep of the 48x48 classifier reserves at most ``BLOCK_BYTES`` of them,
    where conv1's whole-batch Dm alone would be 88 MB."""
    net = build_classifier(4, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(128, 3, 48, 48))
    net.predict(x.astype(np.float32))
    assert 0 < sizes()["cols_infer"] <= BLOCK_BYTES


class TestGradRowsZeroCopy:
    """A conv followed by a pool gets its output gradient back in its own
    ``(B, R, C, M)`` memory order, so backward reads it in place; only
    gradients arriving channel-major from a col2im are copied."""

    @staticmethod
    def five_steps(net: Sequential) -> dict[str, np.ndarray]:
        """Weights after five batch-32 SGD steps of the 48x48 classifier."""
        rng = np.random.default_rng(3)
        loss, opt = CrossEntropyLoss(), SGD(net.parameters, lr=0.01)
        for _ in range(5):
            x = rng.normal(size=(32, 3, 48, 48)).astype(np.float32)
            loss(net.forward(x, training=True), rng.integers(0, 4, 32))
            net.zero_grad()
            net.backward(loss.backward())
            opt.step()
        return {p.name: p.data.copy() for p in net.parameters}

    def test_weights_match_copying_oracle(self, request, monkeypatch):
        got = self.five_steps(build_classifier(4, np.random.default_rng(0)))
        request.getfixturevalue("unpooled")
        monkeypatch.setattr(
            Conv2D,
            "_grad_rows",
            lambda self, g: np.ascontiguousarray(
                g.transpose(0, 2, 3, 1)
            ).reshape(-1, g.shape[1]),
        )
        want = self.five_steps(build_classifier(4, np.random.default_rng(0)))
        assert_same(got, want)

    def test_role_is_sized_by_conv4_not_conv1(self):
        net = build_classifier(4, np.random.default_rng(0))
        x = np.random.default_rng(4).normal(size=(32, 3, 48, 48))
        train_step(net, x.astype(np.float32))
        conv1, conv4 = net["conv1"], net["conv4"]
        conv1_rows = 32 * 48 * 48 * conv1.out_channels * 4
        conv4_rows = 32 * 12 * 12 * conv4.out_channels * 4
        assert sizes()["grad_rows"] == conv4_rows < conv1_rows


class TestPadBuffer:
    def test_border_zero_after_larger_then_smaller(self):
        """(d) a big request dirties the pad buffer; the next, smaller
        request must still see an all-zero border."""
        big = np.full((4, 3, 12, 12), 7.0, dtype=np.float32)
        im2col_fresh(big, 3, 1, 2)
        small = np.arange(1, 151, dtype=np.float32).reshape(2, 3, 5, 5)
        cols = im2col_fresh(small, 3, 1, 1)
        assert np.array_equal(cols, im2col_reference(small, 3, 1, 1))
        # Same role, same shape: a view of what that call left behind —
        # the channel-major (N, B, H+2p, W+2p) padded copy.
        padded = workspace.take("im2col_pad", (3, 2, 7, 7), np.float32)
        assert np.array_equal(
            padded.transpose(1, 0, 2, 3),
            np.pad(small, ((0, 0), (0, 0), (1, 1), (1, 1))),
        )


class TestSmallPages:
    """Importing the workspace switches numpy's MADV_HUGEPAGE hint off:
    where huge-page faults are synchronous their cost swings a hundredfold
    from one run to the next (see ``_keep_arrays_on_small_pages``)."""

    @pytest.fixture
    def hint(self):
        """numpy's private setter (returns the previous state); whatever a
        test does, the package's own choice is put back afterwards."""
        core = getattr(np, "_core", None) or np.core
        setter = getattr(core.multiarray, "_set_madvise_hugepage", None)
        if setter is None:
            pytest.skip("this numpy has no madvise switch")
        before = setter(False)
        setter(before)
        yield setter
        setter(before)

    def test_off_once_imported(self, hint):
        if "NUMPY_MADVISE_HUGEPAGE" in os.environ:
            pytest.skip("explicit numpy switch in the environment")
        assert hint(False) is False

    def test_switches_off_and_explicit_numpy_setting_wins(
        self, hint, monkeypatch
    ):
        monkeypatch.delenv("NUMPY_MADVISE_HUGEPAGE", raising=False)
        hint(True)
        workspace._keep_arrays_on_small_pages()
        assert hint(True) is False
        monkeypatch.setenv("NUMPY_MADVISE_HUGEPAGE", "1")
        workspace._keep_arrays_on_small_pages()
        assert hint(False) is True
