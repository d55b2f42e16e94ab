"""Gateway-side state: upload buffering and the second-opinion model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_dataset
from repro.data.images import ImageGenerator
from repro.hw import TX1
from repro.topology import AggregationPolicy, GatewayBuffer, SecondOpinion


@pytest.fixture(scope="module")
def generator():
    return ImageGenerator(16, 4, rng=np.random.default_rng(0))


def dataset(n, generator, seed=0):
    return make_dataset(n, generator=generator, rng=np.random.default_rng(seed))


@pytest.fixture
def buffer():
    return GatewayBuffer(
        policy=AggregationPolicy(flush_images=8, max_age_stages=2)
    )


class TestGatewayBuffer:
    def test_empty_buffer_never_flushes(self, buffer):
        # the "empty flush at the horizon" edge case: a forced flush of
        # an empty buffer is a no-op, not a zero-byte WAN transfer
        assert not buffer.should_flush(99)
        assert buffer.flush() == []

    def test_empty_offer_dropped(self, buffer, generator):
        d = dataset(4, generator).subset(np.array([], dtype=int))
        buffer.offer(0, 0, d)
        assert buffer.buffered_images == 0
        assert not buffer.should_flush(0)

    def test_below_threshold_holds(self, buffer, generator):
        buffer.offer(0, 0, dataset(7, generator))
        assert not buffer.should_flush(0)

    def test_threshold_exactly_met_flushes(self, buffer, generator):
        # >= at exactly flush_images, not strictly greater
        buffer.offer(0, 0, dataset(5, generator))
        buffer.offer(0, 1, dataset(3, generator))
        assert buffer.buffered_images == 8
        assert buffer.should_flush(0)

    def test_age_trigger(self, buffer, generator):
        buffer.offer(0, 0, dataset(1, generator))
        assert not buffer.should_flush(1)  # age 1 < max_age_stages
        assert buffer.should_flush(2)  # oldest entry is 2 stages old

    def test_disabled_policy_flushes_immediately(self, generator):
        # a one-image threshold is no aggregation
        buffer = GatewayBuffer(policy=AggregationPolicy(flush_images=1))
        buffer.offer(0, 0, dataset(1, generator))
        assert buffer.should_flush(0)

    def test_flush_sorted_and_clears(self, buffer, generator):
        buffer.offer(1, 3, dataset(2, generator))
        buffer.offer(0, 2, dataset(2, generator))
        buffer.offer(1, 1, dataset(2, generator))
        entries = buffer.flush()
        assert [(e.stage_index, e.node_id) for e in entries] == [
            (0, 2), (1, 1), (1, 3),
        ]
        assert buffer.buffered_images == 0
        assert buffer.flush() == []

    def test_single_child_gateway_passes_everything(self, generator):
        # fan-out 1 with aggregation off: the buffer is a pure relay
        buffer = GatewayBuffer(policy=AggregationPolicy(flush_images=1))
        d = dataset(5, generator)
        buffer.offer(0, 0, d)
        assert buffer.should_flush(0)
        (entry,) = buffer.flush()
        assert len(entry.data) == 5


class TestSecondOpinion:
    def test_zero_fraction_is_free_passthrough(self, generator):
        so = SecondOpinion(0.0)
        d = dataset(6, generator)
        res = so.resolve(0, 0, 1, d)
        assert res.resolved_images == 0
        assert res.time_s == 0.0
        assert res.energy_j == 0.0
        assert len(res.escalated) == 6

    def test_partition_and_cost(self, generator):
        so = SecondOpinion(0.5)
        d = dataset(8, generator)
        res = so.resolve(0, 3, 2, d)
        assert res.resolved_images == 4
        assert len(res.escalated) == 4
        assert res.time_s == pytest.approx(
            8 * so.spec.total_ops / TX1.max_ops
        )
        assert res.energy_j == pytest.approx(res.time_s * TX1.peak_power_w)

    def test_deterministic_per_key(self, generator):
        d = dataset(10, generator)
        a = SecondOpinion(0.3).resolve(1, 2, 3, d)
        b = SecondOpinion(0.3).resolve(1, 2, 3, d)
        assert np.array_equal(a.escalated.labels, b.escalated.labels)

    def test_key_changes_selection(self, generator):
        d = dataset(32, generator)
        so = SecondOpinion(0.5)
        by_stage = [
            so.resolve(0, 0, stage, d).escalated.labels for stage in (1, 2, 3)
        ]
        assert not all(
            np.array_equal(by_stage[0], other) for other in by_stage[1:]
        )

    def test_empty_dataset_costs_nothing(self, generator):
        so = SecondOpinion(0.5)
        d = dataset(4, generator).subset(np.array([], dtype=int))
        res = so.resolve(0, 0, 1, d)
        assert res.time_s == 0.0
        assert res.resolved_images == 0
