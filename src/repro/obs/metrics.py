"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately boring: plain Python accumulators, no
background threads, no wall-clock anywhere in the math.  Everything a
metric records during a seeded run derives from simulated state, so the
serialized dump (:meth:`MetricsRegistry.to_json`) is byte-identical
across reruns and worker counts — the same contract the trace's
virtual-time channel honors.

Instrumented modules look up the ambient registry via :func:`active`
(installed by :func:`use` around a run).  When no registry is active
the lookup returns ``None`` and instrumentation sites skip recording,
so un-instrumented runs pay one function call plus a None check.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "render_json",
    "use",
]

#: Every histogram's upper-inclusive bucket edges: a geometric 1-2.5-5
#: ladder spanning sub-millisecond timings to large byte counts, fixed so
#: identical observations always land in identical buckets regardless of
#: what else was recorded.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    base * 10.0**exp for exp in range(-4, 10) for base in (1.0, 2.5, 5.0)
)

_LabelKey = tuple[tuple[str, str], ...]


class Counter:
    """Monotonically increasing count (events, bytes, images)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def payload(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-write-wins instantaneous value (queue depth, active flows)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def payload(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram of observed values.

    Bucket edges are :data:`DEFAULT_BUCKETS` plus a final implicit +inf
    bucket, so bucket membership is a pure function of the observed value
    — never of arrival order, wall time, or other observations.
    """

    __slots__ = ("name", "labels", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(DEFAULT_BUCKETS, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def payload(self) -> dict:
        return {
            "buckets": list(DEFAULT_BUCKETS),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Keyed store of metric instruments for one run.

    Instruments are identified by ``(kind, name, sorted labels)``;
    repeated lookups return the same object.  Asking for an existing
    name with a different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}

    @staticmethod
    def _key(name: str, labels: dict[str, object]) -> tuple[str, _LabelKey]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _get(self, kind: str, name: str, labels: dict[str, object]):
        name_key, label_key = self._key(name, labels)
        key = (kind, name_key, label_key)
        instrument = self._instruments.get(key)
        if instrument is None:
            for other_kind in _KINDS:
                if other_kind != kind and (
                    (other_kind, name_key, label_key) in self._instruments
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as {other_kind}"
                    )
            instrument = _KINDS[kind](name, label_key)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # ------------------------------------------------------------------
    # Serialization (schema v1, deterministic byte-for-byte)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        entries = []
        for (kind, name, labels), instrument in sorted(
            self._instruments.items()
        ):
            entries.append(
                {
                    "kind": kind,
                    "name": name,
                    "labels": dict(labels),
                    **instrument.payload(),
                }
            )
        return {"v": 1, "metrics": entries}

    def to_json(self) -> str:
        return render_json(self.to_dict())

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def render_json(obj) -> str:
    """Byte-stable JSON text: the metrics dump and every ``obs`` report."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Ambient registry: instrumentation sites record into whatever `use()`
# installed, with a single None check when observability is off.

_ACTIVE: list[MetricsRegistry] = []


def active() -> MetricsRegistry | None:
    """The innermost registry installed by :func:`use`, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def use(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry | None]:
    """Install ``registry`` as the ambient sink for the enclosed block.

    ``use(None)`` is a no-op context, so call sites can thread an
    optional registry without branching.
    """
    if registry is None:
        yield None
        return
    _ACTIVE.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE.pop()
