"""The one sanctioned wall-clock source in the codebase.

The determinism contract bans wall-clock reads inside ``src/repro``
(lint rule RPR011): simulated components take their time from the event
kernel's virtual clock, so trajectories stay bit-identical across
machines and reruns.  Observability is the deliberate exception — host
timings for profiling and reporting are *useful*, they just must never
feed back into simulated state.  Every such read routes through this
module, which is the only place RPR011 permits the stdlib timing calls.

Keeping the exception to one tiny module makes the contract auditable:
``grep`` for ``obs.clock`` imports and you have the complete list of
wall-time consumers.
"""

from __future__ import annotations

import time as _time

__all__ = ["perf_counter", "wall_time"]


def perf_counter() -> float:
    """Monotonic high-resolution timer for durations (seconds)."""
    return _time.perf_counter()


def wall_time() -> float:
    """Epoch wall time in seconds, for the optional trace wall channel."""
    return _time.time()
