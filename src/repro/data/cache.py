"""Seed-keyed cache for procedurally generated datasets.

The data of :func:`repro.fleet.simulation.prepare_assets` (one scenario
stream, :func:`repro.core.simulation.scenario_data`) and of
:func:`repro.fleet.simulation.prepare_fleet_assets` (one stream per node,
plus an eval set) is a pure function of its arguments: every RNG it
consumes is constructed locally from scenario seeds.  Experiment sweeps
(the four system variants over one scenario, fleet-size sweeps sharing
node seeds, benchmark reruns) therefore regenerate literally identical
stage streams and eval sets.  This module memoizes those
generation segments on a process-wide LRU cache.

Correctness rules for anything stored here:

* the key must cover **every** input the builder reads — scenario fields,
  seeds, the framework default dtype (datasets cast to it on
  construction), and any generation schedule (a fleet node stream's key
  carries its class schedule, ``None`` for a plain fleet);
* the builder must consume only RNGs it creates itself; if a live generator
  outlives the cached segment, its end-of-segment ``bit_generator.state``
  belongs in the payload so a hit can restore the stream position;
* the payload is immutable and shared: every ndarray reachable through
  its containers and attributes is marked read-only when it is stored, and
  a miss and every later hit return that one stored object, with no copy.
  An in-place write into a payload array raises instead of corrupting
  later hits or coupling two runs; a consumer that needs to write takes
  its own copy, and none may rebind a payload object's attributes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

__all__ = ["DatasetCache", "dataset_cache"]

#: segments kept before the least recently used one is dropped
MAXSIZE = 16


class DatasetCache:
    """Process-wide LRU memoization for dataset-generation segments."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get_or_build(
        self, key: Hashable, builder: Callable[[], Any]
    ) -> Any:
        """Return the cached payload, building and freezing it on a miss.

        The builder runs outside the lock; if two threads race on the same
        missing key the second build simply overwrites the first with an
        identical payload.
        """
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
        value = builder()
        _freeze(value)
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            while len(self._entries) > MAXSIZE:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


def _freeze(value: Any) -> None:
    """Mark every ndarray reachable through ``value``'s dicts, lists,
    tuples and instance attributes read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _freeze(item)
    elif hasattr(value, "__dict__"):
        _freeze(vars(value))


#: shared cache used by the core and fleet asset-preparation paths
dataset_cache = DatasetCache()
