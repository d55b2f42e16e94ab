"""Profiling hooks: opt-in stats, guaranteed no-op when disabled."""

from __future__ import annotations

import pytest

from repro.obs.profile import (
    disable_profiling,
    enable_profiling,
    profile_stats,
    profiled,
    profiling_enabled,
    reset_profiling,
)


@pytest.fixture(autouse=True)
def clean_profiler():
    disable_profiling()
    reset_profiling()
    yield
    disable_profiling()
    reset_profiling()


@profiled("test.square")
def square(x):
    return x * x


class TestProfiledDecorator:
    def test_disabled_records_nothing(self):
        assert square(3) == 9
        assert profile_stats() == {}

    def test_enabled_accumulates_per_section(self):
        enable_profiling()
        for i in range(4):
            square(i)
        stats = profile_stats()["test.square"]
        assert stats["calls"] == 4
        assert stats["total_s"] >= 0.0
        assert stats["min_s"] <= stats["max_s"]

    def test_records_even_when_the_function_raises(self):
        @profiled("test.boom")
        def boom():
            raise RuntimeError("x")

        enable_profiling()
        with pytest.raises(RuntimeError):
            boom()
        assert profile_stats()["test.boom"]["calls"] == 1

    def test_wraps_preserves_identity(self):
        assert square.__name__ == "square"


class TestDeterministicOrdering:
    def test_stats_sorted_by_section_name(self):
        """profile_stats() order is sorted, not insertion order."""
        enable_profiling()
        for name in ("zeta.section", "alpha.section", "mid.section"):
            profiled(name)(int)()
        assert list(profile_stats()) == [
            "alpha.section",
            "mid.section",
            "zeta.section",
        ]

    def test_order_is_insertion_independent(self):
        enable_profiling()
        profiled("b.section")(int)()
        profiled("a.section")(int)()
        first = list(profile_stats())
        reset_profiling()
        profiled("a.section")(int)()
        profiled("b.section")(int)()
        assert list(profile_stats()) == first == ["a.section", "b.section"]


class TestToggles:
    def test_enable_disable_round_trip(self):
        assert not profiling_enabled()
        enable_profiling()
        assert profiling_enabled()
        disable_profiling()
        assert not profiling_enabled()

    def test_reset_clears_stats_but_not_enabled_state(self):
        enable_profiling()
        square(2)
        reset_profiling()
        assert profile_stats() == {}
        assert profiling_enabled()

    def test_hot_paths_are_instrumented(self):
        """The PR-3 hot paths carry the decorator (names pinned here)."""
        import numpy as np

        from repro.nn.conv import Conv2D

        enable_profiling()
        conv = Conv2D(1, 2, 3, rng=np.random.default_rng(0))
        out = conv.forward(np.zeros((1, 1, 6, 6)), training=True)
        conv.backward(out)
        recorded = set(profile_stats())
        assert {
            "conv.forward",
            "conv.backward",
            "nn.im2col",
            "nn.col2im",
        } <= recorded
