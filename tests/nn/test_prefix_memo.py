"""One frozen-prefix pass per (weights, batch): the memo is exact or absent.

A memoised sweep (``predict_logits``) must be ``tobytes()``-equal to the same
slices pushed through the layers one by one with no memo in sight, whatever
was swept, loaded, frozen or trained before; a changed byte anywhere a prefix
reads must miss; stored arrays are read-only and alias nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ImageGenerator, make_dataset
from repro.data.datasets import Dataset
from repro.models import build_classifier
from repro.nn import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    Linear,
    ReLU,
    Sequential,
    prefix_memo,
    workspace,
)
from repro.transfer import FreezePlan, evaluate, predict_logits, train_classifier
from repro.transfer.finetune import reuse_depths


@pytest.fixture(autouse=True)
def empty_memo():
    prefix_memo.clear()
    yield
    prefix_memo.clear()


@pytest.fixture(scope="module")
def pool() -> Dataset:
    rng = np.random.default_rng(11)
    generator = ImageGenerator(image_size=48, num_classes=4, rng=rng)
    return make_dataset(300, generator=generator, rng=rng)


def counts() -> dict[str, int]:
    """The memo's process-lifetime counters: tests read them as deltas."""
    names = ("hits", "resumes", "misses", "evictions")
    return {
        n: prefix_memo.METRICS.counter(f"prefix_memo.{n}").value for n in names
    }


def moved(before: dict[str, int]) -> dict[str, int]:
    """Counters that went up since ``before``, by how much."""
    return {n: v - before[n] for n, v in counts().items() if v != before[n]}


def memo_free_logits(net, data: Dataset, batch_size: int = 128) -> np.ndarray:
    """The sweep's slices through the layers one by one: no Sequential
    forward, hence no memo."""
    rows = []
    for start in range(0, len(data), batch_size):
        out = data.images[start : start + batch_size]
        for layer in net.layers:
            out = layer.forward(out, training=False)
        rows.append(out)
    return np.concatenate(rows)


def variants(pool: Dataset, count: int) -> dict[str, Dataset]:
    """The same ``count`` images as differently held arrays."""
    images, labels = pool.images[:count], pool.labels[:count]
    strided = np.repeat(images, 2, axis=0)[::2]
    wide = np.concatenate([images, images], axis=3)[:, :, :, :48]
    assert not strided.flags.c_contiguous and not wide.flags.c_contiguous
    return {
        "owning": Dataset(images.copy(), labels),
        "view": Dataset(images, labels),
        "strided_rows": Dataset(strided, labels),
        "strided_pixels": Dataset(wide, labels),
        "subset": pool.subset(np.arange(count)),
    }


class TestExactness:
    @pytest.mark.parametrize(
        "batch_size,count", [(1, 7), (5, 23), (130, 300), (300, 300)]
    )
    def test_sweeps_equal_the_memo_free_formulation(
        self, pool, batch_size, count
    ):
        net = build_classifier(4, np.random.default_rng(4))
        before = counts()
        for name, data in variants(pool, count).items():
            reference = memo_free_logits(net, data, batch_size)
            kept = reference.tobytes()
            swept = predict_logits(net, data, batch_size=batch_size)
            assert swept.tobytes() == kept, name
            assert reference.tobytes() == kept, name  # nothing written back
        # same bytes however they are held: only the first variant computed
        batches = -(-count // batch_size)
        assert moved(before) == {"misses": batches, "hits": 4 * batches}

    def test_interleaved_loads_freezes_and_training(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        other = build_classifier(4, np.random.default_rng(5)).state_dict()
        first = net.state_dict()
        eval_data, train_data = pool.take(130), pool.subset(np.arange(130, 170))

        def check(expect: str) -> None:
            before = counts()
            swept = predict_logits(net, eval_data)
            assert swept.tobytes() == memo_free_logits(net, eval_data).tobytes()
            assert set(moved(before)) == {expect}, (expect, moved(before))

        check("misses")
        check("hits")
        net.load_state_dict(other)
        check("misses")
        net.load_state_dict(first)
        check("hits")  # the bytes are back, so is the entry
        for depth, expect in ((5, "hits"), (3, "resumes"), (0, "misses")):
            train_classifier(
                net,
                train_data,
                epochs=1,
                rng=np.random.default_rng(depth),
                freeze_plan=FreezePlan(depth),
            )
            check(expect)
            check("hits")

    def test_every_sweep_still_enters_forward(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(130)
        seen: list[int] = []
        forward = net.forward

        def counting(x, *, training=False):
            seen.append(len(x))
            return forward(x, training=training)

        net.forward = counting
        cold = predict_logits(net, data)
        warm = predict_logits(net, data)
        assert seen == [128, 2, 128, 2]
        assert warm.tobytes() == cold.tobytes()
        assert net._reuse_depths == ()  # the seam closes behind the sweep

    def test_plain_predict_never_touches_the_memo(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        before = counts()
        net.predict(pool.images[:8])
        net.forward(pool.images[:8], training=True)
        assert moved(before) == {} and not prefix_memo._ENTRIES


class TestStaleness:
    def test_prefix_weight_write_misses_at_both_depths(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(64)
        predict_logits(net, data)
        net["conv2"].weight.data[0, 0, 0, 0] += 1.0
        before = counts()
        swept = predict_logits(net, data)
        assert moved(before) == {"misses": 1}
        assert swept.tobytes() == memo_free_logits(net, data).tobytes()

    def test_head_write_hits_the_trunk_and_changes_logits(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(64)
        old = predict_logits(net, data)
        net["fc8"].bias.data[0] += 1.0
        before = counts()
        new = predict_logits(net, data)
        assert moved(before) == {"hits": 1}
        assert new.tobytes() == memo_free_logits(net, data).tobytes()
        assert not np.array_equal(new, old)

    def test_conv4_write_resumes_from_conv3(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(64)
        predict_logits(net, data)
        net["conv4"].bias.data[0] += 1.0
        before = counts()
        swept = predict_logits(net, data)
        assert moved(before) == {"resumes": 1}
        assert swept.tobytes() == memo_free_logits(net, data).tobytes()

    def test_batchnorm_running_statistic_is_part_of_the_key(self, rng):
        bn = BatchNorm2D(3, name="bn0")
        layers = [
            bn,
            Conv2D(3, 4, 3, pad=1, rng=rng, name="conv3"),
            ReLU(name="relu3"),
            Flatten(name="flatten"),
            Linear(4 * 8 * 8, 2, rng=rng, name="fc"),
        ]
        net = Sequential(layers, input_shape=(3, 8, 8))
        data = Dataset(
            rng.normal(size=(6, 3, 8, 8)), np.zeros(6, dtype=np.int64)
        )
        assert reuse_depths(net) == (4,)  # bn0 sits inside the prefix
        predict_logits(net, data)
        before = counts()
        predict_logits(net, data)
        assert moved(before) == {"hits": 1}
        bn.running_mean[1] += 0.5  # not in ``parameters``
        before = counts()
        swept = predict_logits(net, data)
        assert moved(before) == {"misses": 1}
        assert swept.tobytes() == memo_free_logits(net, data).tobytes()
        net.forward(data.images, training=True)  # rebinds both statistics
        before = counts()
        swept = predict_logits(net, data)
        assert moved(before) == {"misses": 1}
        assert swept.tobytes() == memo_free_logits(net, data).tobytes()

    def test_digest_reads_hyper_parameters_but_not_marks(self):
        def conv(**kwargs):
            return Conv2D(3, 4, 3, rng=np.random.default_rng(0), **kwargs)

        same = prefix_memo.params_digest([conv(pad=1)])
        assert prefix_memo.params_digest([conv(pad=1)]) == same
        assert prefix_memo.params_digest([conv(pad=0)]) != same
        assert prefix_memo.params_digest([conv(pad=1, stride=2)]) != same
        marked = conv(pad=1)
        marked.skip_input_grad = True  # a training-time mark, not a reading
        assert prefix_memo.params_digest([marked]) == same

    def test_batch_dtype_and_shape_are_part_of_the_key(self, rng):
        layers = [ReLU(name="conv3")]
        x = rng.normal(size=(2, 8)).astype(np.float32)
        prefix_memo.infer(layers, [1], x)
        before = counts()
        prefix_memo.infer(layers, [1], x.reshape(4, 4))
        prefix_memo.infer(layers, [1], x.view(np.int32))
        assert moved(before) == {"misses": 2}


class TestBoundAndHygiene:
    def test_eviction_keeps_answers_exact(self, pool, monkeypatch):
        net = build_classifier(4, np.random.default_rng(4))
        sets = [pool.subset(np.arange(s, s + 40)) for s in (0, 40, 80)]
        predict_logits(net, sets[0])
        one_sweep = prefix_memo.METRICS.gauge("prefix_memo.bytes").value
        prefix_memo.clear()
        monkeypatch.setattr(prefix_memo, "MAX_BYTES", int(1.5 * one_sweep))
        held = prefix_memo.METRICS.gauge("prefix_memo.bytes")
        before = counts()
        for _ in range(2):
            for data in sets:
                swept = predict_logits(net, data)
                assert swept.tobytes() == memo_free_logits(net, data).tobytes()
                assert held.value <= prefix_memo.MAX_BYTES
                assert held.value == sum(
                    a.nbytes for a in prefix_memo._ENTRIES.values()
                )
        assert moved(before)["evictions"] >= 4

    def test_an_output_over_the_bound_is_not_stored(self, pool, monkeypatch):
        net = build_classifier(4, np.random.default_rng(4))
        monkeypatch.setattr(prefix_memo, "MAX_BYTES", 1024)
        data = pool.take(8)
        before = counts()
        swept = predict_logits(net, data)
        assert swept.tobytes() == memo_free_logits(net, data).tobytes()
        assert not prefix_memo._ENTRIES and moved(before) == {"misses": 1}

    def test_stored_arrays_are_read_only_and_alias_nothing(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(130)
        train_classifier(  # grow the training-side workspace roles too
            net, pool.take(16), epochs=1, rng=np.random.default_rng(0)
        )
        predict_logits(net, data)
        assert len(prefix_memo._ENTRIES) == 4  # two batches, two depths
        for entry in prefix_memo._ENTRIES.values():
            assert entry.flags.owndata and not entry.flags.writeable
            assert not np.shares_memory(entry, data.images)
            for block in workspace._BUFFERS.values():
                assert not np.shares_memory(entry, block)
            with pytest.raises(ValueError, match="read-only"):
                entry[...] = 0.0

    def test_returned_prefix_output_is_read_only_with_the_layers_strides(
        self, pool
    ):
        net = build_classifier(4, np.random.default_rng(4))
        (conv3_end, _) = reuse_depths(net)
        prefix, x = net.layers[:conv3_end], pool.images[:5]
        plain = x
        for layer in prefix:
            plain = layer.forward(plain, training=False)
        for _ in range(2):  # computed, then handed back
            out = prefix_memo.infer(prefix, [conv3_end], x)
            assert out.tobytes() == plain.tobytes()
            assert out.strides == plain.strides  # what conv4's im2col reads
            with pytest.raises(ValueError, match="read-only"):
                out[0, 0, 0, 0] = 1.0

    def test_clear_forgets_entries_and_bytes(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        predict_logits(net, pool.take(8))
        assert prefix_memo.METRICS.gauge("prefix_memo.bytes").value > 0
        prefix_memo.clear()
        assert not prefix_memo._ENTRIES
        assert prefix_memo.METRICS.gauge("prefix_memo.bytes").value == 0
        before = counts()
        predict_logits(net, pool.take(8))
        assert moved(before) == {"misses": 1}


class TestTrainerPrefixPass:
    def test_head_update_reuses_the_sweep_before_it(self, pool, monkeypatch):
        """evaluate -> FreezePlan(5) train -> evaluate on one small set: the
        trunk runs once (scenario.heads' shape)."""
        group = pool.take(48)
        calls: list[str] = []
        conv_forward = Conv2D.forward

        def counting(self, x, *, training=False):
            calls.append(self.name)
            return conv_forward(self, x, training=training)

        monkeypatch.setattr(Conv2D, "forward", counting)

        def head_update(net, between=lambda: None):
            between()
            shared = evaluate(net, group)
            between()
            result = train_classifier(
                net,
                group,
                epochs=2,
                rng=np.random.default_rng(9),
                freeze_plan=FreezePlan(5),
            )
            between()
            return shared, result.losses, evaluate(net, group), net.state_dict()

        before = counts()
        reused = head_update(build_classifier(4, np.random.default_rng(4)))
        assert calls == [f"conv{i}" for i in range(1, 6)]
        assert moved(before) == {"misses": 1, "hits": 2}

        calls.clear()
        recomputed = head_update(
            build_classifier(4, np.random.default_rng(4)), prefix_memo.clear
        )
        assert calls == [f"conv{i}" for i in range(1, 6)] * 3
        assert reused[:3] == recomputed[:3]
        for name, value in reused[3].items():
            assert np.array_equal(value, recomputed[3][name]), name

    def test_features_are_stored_only_at_the_depths_sweeps_use(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(32)
        for depth, stored in ((0, 0), (2, 0), (3, 1), (4, 1), (5, 2)):
            prefix_memo.clear()
            train_classifier(
                net,
                data,
                epochs=1,
                rng=np.random.default_rng(0),
                freeze_plan=FreezePlan(depth),
            )
            assert len(prefix_memo._ENTRIES) == stored, depth
