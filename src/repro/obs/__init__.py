"""repro.obs — deterministic observability: tracing, metrics, profiling.

Three pillars, one contract:

* :class:`Tracer` (:mod:`repro.obs.trace`) — typed span/event records
  stamped with *virtual* time, exported as JSONL (schema v1) or Chrome
  ``trace_event``.  Same seed -> byte-identical trace bytes, across
  fleet modes and worker counts.
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — process-local
  counters/gauges/fixed-bucket histograms; the serialized dump is
  equally deterministic.
* :func:`repro.obs.profile.profiled` — opt-in wall-time hooks on the
  hot paths, a guaranteed near-no-op while disabled.

:mod:`repro.obs.analyze` and :mod:`repro.obs.cli` read traces back
(``python -m repro obs``).  Wall-clock access is confined to
:mod:`repro.obs.clock` (lint rule RPR011 enforces this), keeping host
time out of every simulated code path.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["MetricsRegistry", "Tracer"]
