"""One conv-prefix pass per (weights, image): the memo is exact or absent.

A memoised sweep (``predict_logits``) must be ``tobytes()``-equal to the same
slices pushed through the layers one by one with no memo in sight, whatever
was swept, loaded, frozen or trained before, and however the images were
grouped into batches; a changed byte anywhere a prefix reads must miss;
stored rows are read-only and alias nothing.  The BLAS property the row store
and the per-block trunk rest on is pinned by name:
:func:`test_conv_prefix_rows_invariant_to_batch_composition`; the blocked
inference pass itself by
:func:`test_blocked_trunk_inference_matches_whole_batch_forward`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ImageGenerator, make_dataset
from repro.data.datasets import Dataset
from repro.models import build_classifier, build_jigsaw_trunk
from repro.nn import Conv2D, Linear, ReLU, accuracy, prefix_memo, workspace
from repro.selfsup.jigsaw import grid_tiles
from repro.transfer import (
    FreezePlan,
    evaluate,
    evaluate_on_classes,
    predict_logits,
    train_classifier,
)
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


def swept_logits(net, data: Dataset, batch_size: int) -> np.ndarray:
    """``predict_logits``'s sweep (memo on) at any slice size: it runs
    128-image slices, these tests run the sizes on both sides of a block."""
    with net.reusing_prefix(reuse_depths(net)):
        return np.concatenate([net.predict(x) for x, _ in data.batches(batch_size)])


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


@pytest.fixture
def conv_calls(monkeypatch) -> list[tuple[str, int]]:
    """``(layer name, batch rows)`` of every ``Conv2D.forward`` from here on."""
    calls: list[tuple[str, int]] = []
    conv_forward = Conv2D.forward

    def counting(self, x, *, training=False):
        calls.append((self.name, len(x)))
        return conv_forward(self, x, training=training)

    monkeypatch.setattr(Conv2D, "forward", counting)
    return calls


@pytest.fixture
def fc_calls(monkeypatch) -> list[tuple[str, int]]:
    """``(layer name, batch rows)`` of every ``Linear.forward`` from here on."""
    calls: list[tuple[str, int]] = []
    linear_forward = Linear.forward

    def counting(self, x, *, training=False):
        calls.append((self.name, len(x)))
        return linear_forward(self, x, training=training)

    monkeypatch.setattr(Linear, "forward", counting)
    return calls


CONVS = tuple(f"conv{i}" for i in range(1, 6))


def trunk_pass(net, images: np.ndarray, convs=CONVS) -> list[tuple[str, int]]:
    """The conv calls of one inference pass over ``images``: in-order blocks
    of consecutive images covering the whole batch, each through ``convs``."""
    block = prefix_memo._block_images(net.layers[: net._index_of("fc6")], images)
    return [
        (name, len(images[start : start + block]))
        for start in range(0, len(images), block)
        for name in convs
    ]


def test_conv_prefix_rows_invariant_to_batch_composition(pool):
    """The BLAS property the row store rests on: an image's conv-prefix rows
    at both reuse depths do not depend on the batch it was computed in.

    Holds on this repo's BLAS unpinned and at one thread; if a BLAS build
    breaks it, per-image reuse is no longer exact and this test says so by
    name.  FC outputs are *not* batch-invariant, so the memo never stacks
    anything past the conv trunk's flatten.
    """
    net = build_classifier(4, np.random.default_rng(4))
    depths = reuse_depths(net)
    checked = 200  # pool images past these only mix into batches

    def rows(batch: np.ndarray) -> list[np.ndarray]:
        out, kept = batch, []
        for depth, layer in enumerate(net.layers[: max(depths)], 1):
            out = layer.forward(out, training=False)
            if depth in depths:
                kept.append(out.copy(order="K"))
        return kept

    def check(groups: list[np.ndarray], label) -> None:
        """One batch of pool images per index array in ``groups``."""
        for group in groups:
            for at, reference in zip(rows(pool.images[group]), alone):
                for row, image in zip(at, group):
                    if image < checked:
                        assert row.tobytes() == reference[image].tobytes(), (
                            label,
                            image,
                        )

    try:
        per_image = [rows(pool.images[i : i + 1]) for i in range(checked)]
        alone = [np.concatenate(at) for at in zip(*per_image)]
        order = np.arange(checked)
        for size in (2, 5, 31, 32, 64, 128, 200):
            check(np.array_split(order, range(size, checked, size)), size)
        shuffled = np.random.default_rng(0).permutation(order)
        check([shuffled], "permuted")
        check(np.array_split(shuffled, [64, 128]), "permuted slices")
        mixed = np.random.default_rng(1).permutation(
            np.r_[order[:100], checked : len(pool)]
        )
        check(np.array_split(mixed, [7, 71, 199]), "mixed with other images")
    finally:
        workspace.reset()  # batch 200's conv1 columns: 0.3 GB


def test_blocked_trunk_inference_matches_whole_batch_forward(pool):
    """Inference runs the conv trunk one block of ``b`` images at a time and
    the FC layers on the whole batch; at batch sizes on both sides of ``b``
    and over several blocks with a ragged tail, every value equals the whole
    batch pushed through the layers one by one, memo on or off, and so does
    the jigsaw trunk's on folded tiles."""
    net = build_classifier(4, np.random.default_rng(4))
    trunk = net.layers[: net._index_of("fc6")]
    b = prefix_memo._block_images(trunk, pool.images[:1])
    assert 1 < b < len(pool) // 3
    data = pool.take(3 * b + 5)
    for size in (1, b - 1, b, b + 1, 3 * b + 5):
        reference = memo_free_logits(net, data, size)
        prefix_memo.clear()  # the memo on, computing: no sweep before it
        on = swept_logits(net, data, size)
        assert on.tobytes() == reference.tobytes(), size
        off = np.concatenate([net.predict(x) for x, _ in data.batches(size)])
        assert off.tobytes() == reference.tobytes(), size

    tile_trunk = build_jigsaw_trunk(np.random.default_rng(5))
    tiles = grid_tiles(pool.images[:100]).reshape(-1, 3, 16, 16)
    b = prefix_memo._block_images(tile_trunk.layers, tiles)
    assert 1 < b < len(tiles) // 3
    for size in (1, b - 1, b, b + 1, 3 * b + 5):
        reference = tiles[:size]
        for layer in tile_trunk.layers:
            reference = layer.forward(reference, training=False)
        assert tile_trunk.predict(tiles[:size]).tobytes() == reference.tobytes()


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
            swept = swept_logits(net, data, batch_size)
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
        assert moved(before) == {} and not prefix_memo._ROWS


class TestRowReuse:
    """The same images grouped differently: no conv prefix runs again."""

    def test_class_subsets_after_a_full_sweep_run_no_conv(
        self, pool, conv_calls
    ):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(200)
        evaluate(net, data)
        conv_calls.clear()
        before = counts()
        groups = ((0,), (1, 3), (0, 1, 2))
        scores = [evaluate_on_classes(net, data, classes) for classes in groups]
        assert conv_calls == []
        assert set(moved(before)) == {"hits"}
        for classes, score in zip(groups, scores):
            subset = data.subset(np.flatnonzero(np.isin(data.labels, classes)))
            logits = memo_free_logits(net, subset)
            assert score == accuracy(logits, subset.labels), classes

    def test_concatenated_swept_batches_hit(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        first, second = pool.take(40), pool.subset(np.arange(40, 100))
        predict_logits(net, first)
        predict_logits(net, second)
        both = Dataset.concat([second, first])
        before = counts()
        swept = predict_logits(net, both)
        assert moved(before) == {"hits": 1}
        assert swept.tobytes() == memo_free_logits(net, both).tobytes()

    def test_one_unseen_image_computes_the_whole_batch(
        self, pool, conv_calls, fc_calls
    ):
        net = build_classifier(4, np.random.default_rng(4))
        seen = pool.take(40)
        predict_logits(net, seen)
        batch = pool.subset(np.r_[np.arange(39), 250])
        conv_calls.clear()
        fc_calls.clear()
        before = counts()
        swept = predict_logits(net, batch)
        assert moved(before) == {"misses": 1}
        # every image in in-order blocks, never a sub-batch of only the one
        # missed image; the FC layers see the batch at once
        trunk = trunk_pass(net, batch.images)
        assert len(trunk) > len(CONVS)  # more than one block
        assert conv_calls == trunk
        assert fc_calls == [("fc6", 40), ("fc7", 40), ("fc8", 40)]
        assert swept.tobytes() == memo_free_logits(net, batch).tobytes()

    def test_frozen_prefix_trainer_pass_hits_after_node_sweeps(
        self, pool, conv_calls
    ):
        """System d's shape: nodes sweep their stage data with the deployed
        copy, the Cloud retrains ``FreezePlan(3)`` on uploads + archive."""
        stages = [pool.subset(np.arange(s, s + 30)) for s in (0, 30, 60)]
        archive = pool.subset(np.arange(90, 130))
        uploads = Dataset.concat([s.subset(np.arange(0, 30, 3)) for s in stages])
        train_data = Dataset.concat([uploads, archive])

        def retrain(sweep: bool):
            cloud = build_classifier(4, np.random.default_rng(4))
            deployed = build_classifier(4, np.random.default_rng(4))
            if sweep:
                for data in (*stages, archive):
                    predict_logits(deployed, data)
            conv_calls.clear()
            before = counts()
            result = train_classifier(
                cloud,
                train_data,
                epochs=2,
                rng=np.random.default_rng(9),
                freeze_plan=FreezePlan(3),
            )
            prefix = [c for c in conv_calls if c[0] in CONVS[:3]]
            return result.losses, cloud.state_dict(), prefix, moved(before)

        losses, state, prefix, outcome = retrain(sweep=True)
        assert prefix == [] and outcome == {"hits": 1}
        prefix_memo.clear()
        cold_losses, cold_state, cold_prefix, cold = retrain(sweep=False)
        cloud = build_classifier(4, np.random.default_rng(4))
        assert cold_prefix == trunk_pass(cloud, train_data.images, CONVS[:3])
        assert len(cold_prefix) > 3 and cold == {"misses": 1}
        assert losses == cold_losses
        for name, value in state.items():
            assert value.tobytes() == cold_state[name].tobytes(), name


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
                    a.nbytes for a in prefix_memo._ROWS.values()
                )
        assert moved(before)["evictions"] >= 4

    def test_a_repeatedly_hit_eval_set_outlives_one_off_batches(
        self, pool, monkeypatch
    ):
        """Least recently used out first: a stream of node batches that never
        recur cannot push out the eval set every decision re-scores."""
        net = build_classifier(4, np.random.default_rng(4))
        eval_data = pool.take(20)
        stream = [pool.subset(np.arange(s, s + 20)) for s in range(20, 300, 20)]
        predict_logits(net, eval_data)
        one_set = prefix_memo.METRICS.gauge("prefix_memo.bytes").value
        prefix_memo.clear()
        monkeypatch.setattr(prefix_memo, "MAX_BYTES", int(2.5 * one_set))
        held = prefix_memo.METRICS.gauge("prefix_memo.bytes")
        predict_logits(net, eval_data)
        before = counts()
        for batch in stream:
            assert predict_logits(net, batch).tobytes() == (
                memo_free_logits(net, batch).tobytes()
            )
            hit = counts()
            swept = predict_logits(net, eval_data)
            assert moved(hit) == {"hits": 1}
            assert swept.tobytes() == memo_free_logits(net, eval_data).tobytes()
            assert held.value <= prefix_memo.MAX_BYTES
            assert held.value == sum(a.nbytes for a in prefix_memo._ROWS.values())
        # at least half of the stream's rows were pushed out, none of eval's
        assert moved(before)["evictions"] >= 20 * len(stream)

    def test_an_output_over_the_bound_is_not_stored(self, pool, monkeypatch):
        net = build_classifier(4, np.random.default_rng(4))
        monkeypatch.setattr(prefix_memo, "MAX_BYTES", 1024)
        data = pool.take(8)
        before = counts()
        swept = predict_logits(net, data)
        assert swept.tobytes() == memo_free_logits(net, data).tobytes()
        assert not prefix_memo._ROWS and moved(before) == {"misses": 1}

    def test_stored_arrays_are_read_only_and_alias_nothing(self, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(130)
        train_classifier(  # grow the training-side workspace roles too
            net, pool.take(16), epochs=1, rng=np.random.default_rng(0)
        )
        predict_logits(net, data)
        # one row per image at each of the two depths, from two batches
        assert len(prefix_memo._ROWS) == 2 * len(data)
        for entry in prefix_memo._ROWS.values():
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
        assert not prefix_memo._ROWS
        assert prefix_memo.METRICS.gauge("prefix_memo.bytes").value == 0
        before = counts()
        predict_logits(net, pool.take(8))
        assert moved(before) == {"misses": 1}


class TestTrainerPrefixPass:
    def test_head_update_reuses_the_sweep_before_it(self, pool, conv_calls):
        """evaluate -> FreezePlan(5) train -> evaluate on one small set: the
        trunk runs once (scenario.heads' shape)."""
        group = pool.take(48)
        trunk = trunk_pass(build_classifier(4, np.random.default_rng(4)), group.images)
        assert len(trunk) > len(CONVS)  # more than one block

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
        assert conv_calls == trunk
        assert moved(before) == {"misses": 1, "hits": 2}

        conv_calls.clear()
        recomputed = head_update(
            build_classifier(4, np.random.default_rng(4)), prefix_memo.clear
        )
        assert conv_calls == trunk * 3
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
            assert len(prefix_memo._ROWS) == stored * len(data), depth
