"""Discrete-event simulation kernel shared by every virtual-time model.

``repro.events`` is the one event engine in the repo: the hardware
pipeline simulator (:mod:`repro.hw.eventsim`), the shared-backhaul flow
model (:mod:`repro.fleet.uplink`), and the asynchronous fleet simulation
(:mod:`repro.fleet.async_sim`) all schedule on the same kernel: a virtual
clock, one-shot events, generator processes and a FIFO :class:`Store`,
plus the max-min-fair links of :mod:`repro.events.flows`.
"""

from repro.events.flows import FlowLink, FlowRecord, max_min_rates
from repro.events.kernel import Event, Process, Simulator, Store

__all__ = [
    "Event",
    "FlowLink",
    "FlowRecord",
    "Process",
    "Simulator",
    "Store",
    "max_min_rates",
]
