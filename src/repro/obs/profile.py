"""Opt-in profiling hooks for the hot paths (conv, im2col, batch render).

Design constraint: instrumentation must be a guaranteed no-op when
profiling is off.  The decorator's fast path is one module-global
attribute check (``_PROFILER.enabled``) before calling through — no
dict lookups, no clock reads — and the perf-smoke gate
(``benchmarks/bench_hotpath.py --obs-overhead``) fails CI if the
enabled-but-idle overhead on the conv hot path exceeds 3%.

Timings here are *host wall time* (via the sanctioned
:mod:`repro.obs.clock`), so profile stats are diagnostic only and are
never serialized into the deterministic trace/metrics channels.
"""

from __future__ import annotations

import functools

from repro.obs.clock import perf_counter

__all__ = [
    "disable_profiling",
    "enable_profiling",
    "profile_stats",
    "profiled",
    "profiling_enabled",
    "reset_profiling",
]


class _SectionStats:
    """Aggregate wall-time stats for one named section."""

    __slots__ = ("calls", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total_s += elapsed
        if elapsed < self.min_s:
            self.min_s = elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.calls if self.calls else 0.0,
            "min_s": self.min_s if self.calls else 0.0,
            "max_s": self.max_s,
        }


class _Profiler:
    __slots__ = ("enabled", "stats")

    def __init__(self) -> None:
        self.enabled = False
        self.stats: dict[str, _SectionStats] = {}

    def record(self, name: str, elapsed: float) -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = _SectionStats()
        stats.add(elapsed)


_PROFILER = _Profiler()


def enable_profiling() -> None:
    _PROFILER.enabled = True


def disable_profiling() -> None:
    _PROFILER.enabled = False


def profiling_enabled() -> bool:
    return _PROFILER.enabled


def reset_profiling() -> None:
    _PROFILER.stats.clear()


def profile_stats() -> dict[str, dict]:
    """Snapshot of accumulated stats, keyed by section name (sorted)."""
    return {
        name: _PROFILER.stats[name].as_dict()
        for name in sorted(_PROFILER.stats)
    }


def profiled(name: str):
    """Decorator: time every call under ``name`` when profiling is on.

    The disabled path is a single attribute check and a tail call —
    cheap enough to leave on the innermost hot loops permanently.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _PROFILER.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _PROFILER.record(name, perf_counter() - start)

        return wrapper

    return decorate

