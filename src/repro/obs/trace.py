"""Structured tracing: typed span/event records with deterministic export.

Schema v1 (one JSON object per line, keys sorted):

``{"attrs": {...}, "cat": "...", "kind": "span"|"event", "name": "...",
"t0": <virtual s>, "t1": <virtual s>|null, "v": 1}``

Timestamps are **virtual** seconds, stamped from the fleet engine's
kernel clock (``Simulator.now``).  Two runs at the same seed therefore
produce byte-identical JSONL — that is a tested invariant, across
reruns, modes, and any ``workers=N``.

Wall-clock stamps are the one legal nondeterminism: a tracer built with
``wall_clock=True`` stamps each record's emission with
:func:`repro.obs.clock.wall_time`, but those stamps live in a separate
optional channel (``channel="wall"``) and never contaminate the virtual
channel's bytes.

The Chrome exporter emits the ``trace_event`` JSON array format —
complete (``ph: "X"``) and instant (``ph: "i"``) events in microseconds
— which ``chrome://tracing`` and Perfetto open directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.clock import wall_time

__all__ = ["TraceFormatError", "TraceRecord", "Tracer", "iter_jsonl"]


class TraceFormatError(ValueError):
    """A trace file (or, for ``obs health --metrics``, a metrics dump)
    violates schema v1; the message is anchored at its path (and line)."""

_Attrs = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class TraceRecord:
    """One span (``t1`` set) or instant event (``t1`` None).

    Frozen and tuple-keyed so records pickle cleanly back from the
    scenario engine's replicate workers and merge deterministically in
    the parent.
    """

    kind: str  # "span" | "event"
    cat: str
    name: str
    t0: float
    t1: float | None
    attrs: _Attrs = ()
    wall: float | None = None  # emission wall stamp; wall channel only

    def to_obj(self, *, channel: str = "virtual") -> dict:
        obj = {
            "v": 1,
            "kind": self.kind,
            "cat": self.cat,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": dict(self.attrs),
        }
        if channel == "wall":
            obj["wall"] = self.wall
        return obj

    def to_json(self, *, channel: str = "virtual") -> str:
        return json.dumps(
            self.to_obj(channel=channel), sort_keys=True, separators=(",", ":")
        )

    @property
    def duration_s(self) -> float:
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def attr(self, key: str):
        """The value of attribute ``key``, or None when it is absent."""
        for k, v in self.attrs:
            if k == key:
                return v
        return None


def _freeze_attrs(attrs: dict[str, object]) -> _Attrs:
    return tuple(sorted(attrs.items()))


@dataclass
class Tracer:
    """Collects :class:`TraceRecord` objects for one run.

    ``enabled=False`` makes every emit a cheap no-op returning ``None``,
    so instrumented code can hold a disabled tracer instead of branching
    on ``tracer is not None`` everywhere.
    """

    enabled: bool = True
    wall_clock: bool = False
    records: list[TraceRecord] = field(default_factory=list)

    def span(
        self, cat: str, name: str, t0: float, t1: float, **attrs
    ) -> TraceRecord | None:
        if not self.enabled:
            return None
        if t1 < t0:
            raise ValueError(f"span {cat}/{name}: t1 {t1} precedes t0 {t0}")
        return self._emit("span", cat, name, t0, float(t1), attrs)

    def event(
        self, cat: str, name: str, t: float, **attrs
    ) -> TraceRecord | None:
        if not self.enabled:
            return None
        return self._emit("event", cat, name, t, None, attrs)

    def _emit(
        self, kind: str, cat: str, name: str, t0: float, t1: float | None,
        attrs: dict[str, object],
    ) -> TraceRecord:
        record = TraceRecord(
            kind=kind,
            cat=cat,
            name=name,
            t0=float(t0),
            t1=t1,
            attrs=_freeze_attrs(attrs),
            wall=wall_time() if self.wall_clock else None,
        )
        self.records.append(record)
        return record

    def extend(self, records) -> None:
        """Merge records emitted elsewhere (replicate-worker buffers)."""
        if self.enabled:
            self.records.extend(records)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self, *, channel: str = "virtual") -> str:
        if channel not in ("virtual", "wall"):
            raise ValueError("channel must be 'virtual' or 'wall'")
        return "".join(
            r.to_json(channel=channel) + "\n" for r in self.records
        )

    def write_jsonl(self, path, *, channel: str = "virtual") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl(channel=channel))

    def write_chrome(self, path) -> None:
        """Chrome ``trace_event`` JSON (times in microseconds).

        Rows (tids) map to node ids where a record carries a ``node``
        attr; cloud/link records land on tid 0.
        """
        events = []
        for r in self.records:
            node = r.attr("node")
            base = {
                "name": r.name,
                "cat": r.cat,
                "ts": r.t0 * 1e6,
                "pid": 0,
                "tid": 0 if node is None else int(node),
                "args": dict(r.attrs),
            }
            if r.kind == "span":
                events.append({**base, "ph": "X", "dur": (r.t1 - r.t0) * 1e6})
            else:
                events.append({**base, "ph": "i", "s": "t"})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                fh,
                sort_keys=True,
            )
            fh.write("\n")


_REQUIRED_KEYS = ("kind", "cat", "name", "t0", "t1")


def _parse_line(path, line_no: int, line: str) -> TraceRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise TraceFormatError(
            f"{path}:{line_no}: malformed trace line "
            f"({err.msg} at column {err.colno})"
        ) from None
    if not isinstance(obj, dict):
        raise TraceFormatError(
            f"{path}:{line_no}: trace line is not a JSON object"
        )
    if obj.get("v") != 1:
        raise TraceFormatError(
            f"{path}:{line_no}: unsupported trace schema "
            f"version {obj.get('v')!r}"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise TraceFormatError(
            f"{path}:{line_no}: trace line lacks required "
            f"key(s) {', '.join(missing)}"
        )
    for key in ("t0", "t1"):
        value = obj[key]
        if value is None and key == "t1":
            continue  # an instant event
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TraceFormatError(
                f"{path}:{line_no}: {key} is not a number ({value!r})"
            )
    attrs = obj.get("attrs", {})
    if not isinstance(attrs, dict):
        raise TraceFormatError(
            f"{path}:{line_no}: attrs is not a JSON object"
        )
    for key, value in attrs.items():
        if isinstance(value, (dict, list)):
            raise TraceFormatError(
                f"{path}:{line_no}: attr {key!r} is not a scalar ({value!r})"
            )
    return TraceRecord(
        kind=obj["kind"],
        cat=obj["cat"],
        name=obj["name"],
        t0=obj["t0"],
        t1=obj["t1"],
        attrs=_freeze_attrs(attrs),
        wall=obj.get("wall"),
    )


def _text_lines(path):
    """``path``'s lines; bytes that are not UTF-8 are a format error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            raise TraceFormatError(
                f"{path}: not UTF-8 text ({err.reason})"
            ) from None


def iter_jsonl(path):
    """Stream a schema-v1 JSONL trace one record at a time.

    Constant memory: never materializes the record list, so analyses
    built on it scale to arbitrarily long traces.  Malformed lines
    (bad JSON, wrong schema version, missing keys, a non-numeric ``t0`` or
    ``t1`` (``t1`` is null on an instant event), non-object ``attrs`` or an
    attr value that is an array or object) raise
    :class:`TraceFormatError` anchored as ``path:line_no: message``, and
    bytes that are not UTF-8 as ``path: message``.
    """
    for line_no, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        yield _parse_line(path, line_no, line)
