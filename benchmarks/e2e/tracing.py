"""In-memory span recorder and outside-in wrappers for the layer callables.

Nothing in ``src/repro`` knows about this module: a traced run swaps the
layers' *public* callables (class attributes, module attributes) for
wrappers that open a span, and swaps the originals back afterwards.
Spans are ``[name, start, end, parent, run_id]`` rows kept in one list —
``parent`` is the row index of the span that was open when this one
started, ``run_id`` names the phase (``setup`` / ``run`` / ``twin``) —
and are written out only when the child exits.

The event engines drive nodes and the Cloud as generators, but every
generator is resumed synchronously inside ``Simulator.step``, so the
open-span stack is a true call stack there as well.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

NAME, START, END, PARENT, RUN_ID = range(5)
SPAN_COLUMNS = ("name", "start", "end", "parent", "run_id")


class SpanRecorder:
    """Span rows, an open-span stack and named counters for one child."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.run_id = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Open ``name`` around a block (the harness's own root spans)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, self.clock(), 0.0, parent, self.run_id]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row[END] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span named ``name`` around every call.

        ``observe(counters, result)`` runs after a call that returned, so
        ratios are counted where the work happens.
        """
        spans, stack, clock, counters = (
            self.spans, self._stack, self.clock, self.counters,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return wrapper

    def count_calls(self, name: str, fn):
        """``fn`` with a call counter and no span (for per-event callables)."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": SPAN_COLUMNS,
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0


def aggregate(spans: list[list]) -> dict[str, SpanStats]:
    """Per-name calls, self time and inclusive time.

    Self time of a span is its duration minus the part its direct child
    spans cover (children run one at a time, so that part is the sum of
    their durations).  Inclusive time of a *name* counts a span only when
    no ancestor carries the same name, so recursion is not counted twice.
    """
    child_s = [0.0] * len(spans)
    for row in spans:
        if row[PARENT] >= 0:
            child_s[row[PARENT]] += row[END] - row[START]
    # Rows are appended in start order, so a parent always precedes its
    # children and one forward pass sees every ancestor set first.
    ancestors: list[frozenset] = []
    stats: dict[str, SpanStats] = {}
    for index, row in enumerate(spans):
        name, parent = row[NAME], row[PARENT]
        above = ancestors[parent] if parent >= 0 else frozenset()
        duration = row[END] - row[START]
        entry = stats.setdefault(name, SpanStats())
        entry.calls += 1
        entry.self_s += duration - child_s[index]
        if name not in above:
            entry.incl_s += duration
        ancestors.append(above if name in above else above | {name})
    return stats


@dataclass(frozen=True)
class Patch:
    """One attribute swapped for a wrapper, with what it replaced."""

    owner: object  # class or module
    attr: str
    original: object

    def restored(self) -> bool:
        return vars(self.owner).get(self.attr) is self.original


def resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> ``(owner, attr)``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(target: str, make_wrapper) -> list[Patch]:
    """Swap ``target`` for ``make_wrapper(original)`` wherever it is bound.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name (``from repro.nn.im2col import
    im2col`` leaves a second binding in ``repro.nn.conv``), otherwise
    those callers would keep reaching the unwrapped original.
    """
    owner, attr = resolve(target)
    original = vars(owner)[attr]
    wrapper = make_wrapper(original)
    owners = [owner]
    if not isinstance(owner, type):
        owners += [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("repro")
            and module is not owner
            and vars(module).get(attr) is original
        ]
    patches = []
    for bound_in in owners:
        setattr(bound_in, attr, wrapper)
        patches.append(Patch(bound_in, attr, original))
    return patches


def remove(patches: list[Patch]) -> None:
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)
