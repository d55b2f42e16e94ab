"""Metrics registry: instruments, determinism, ambient scoping."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    active,
    use,
)


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        c = registry.counter("images")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        c = MetricsRegistry().counter("images")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_name_and_labels_return_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("images", system="d")
        b = registry.counter("images", system="d")
        assert a is b
        assert registry.counter("images", system="a") is not a


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0


class TestHistogram:
    def test_boundary_values_land_in_their_edge_bucket(self):
        h = MetricsRegistry().histogram("lat")
        one = DEFAULT_BUCKETS.index(1.0)
        assert DEFAULT_BUCKETS[one + 1] == 2.5
        h.observe(1.0)  # exactly on an edge: upper-inclusive
        h.observe(1.5)
        h.observe(2.5)
        h.observe(1e12)  # beyond every edge: implicit +inf bucket
        assert h.counts[one] == 1
        assert h.counts[one + 1] == 2
        assert h.counts[-1] == 1
        assert len(h.counts) == len(DEFAULT_BUCKETS) + 1
        assert h.count == sum(h.counts) == 4
        assert h.sum == pytest.approx(1e12 + 5.0)
        assert h.min == 1.0 and h.max == 1e12

    def test_bucket_membership_is_order_independent(self):
        a = MetricsRegistry().histogram("lat")
        b = MetricsRegistry().histogram("lat")
        for v in (0.5, 3.0, 1.5):
            a.observe(v)
        for v in (1.5, 0.5, 3.0):
            b.observe(v)
        assert a.counts == b.counts

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_dump_is_sorted_and_byte_deterministic(self):
        def build() -> str:
            registry = MetricsRegistry()
            registry.counter("b", system="d").inc(2)
            registry.counter("a").inc()
            registry.histogram("h").observe(0.5)
            return registry.to_json()

        assert build() == build()
        obj = json.loads(build())
        assert obj["v"] == 1
        names = [m["name"] for m in obj["metrics"]]
        assert names == sorted(names)

    def test_write_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("images").inc(3)
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text()) == registry.to_dict()


class TestAmbientRegistry:
    def test_active_is_none_by_default(self):
        assert active() is None

    def test_use_installs_and_restores(self):
        registry = MetricsRegistry()
        with use(registry):
            assert active() is registry
            inner = MetricsRegistry()
            with use(inner):
                assert active() is inner
            assert active() is registry
        assert active() is None

    def test_use_none_is_a_noop(self):
        with use(None) as installed:
            assert installed is None
            assert active() is None
