"""Minimal deterministic discrete-event simulation kernel.

Everything in this repo that advances a virtual clock — the WSS->NWS
pipeline simulator, the GPU co-run simulator's cousin, and the fleet's
shared-backhaul flows — used to carry its own bespoke event loop.  This
module is the one kernel they all run on: a virtual clock, a priority
event queue, and generator-based processes in the style of SimPy, kept
deliberately small (no interrupts, no priorities beyond FIFO-at-equal-
time) so behavior is easy to reason about and trivially deterministic.

Determinism contract: events scheduled for the same virtual time fire in
the order they were scheduled (a monotonically increasing sequence number
breaks heap ties), and nothing in the kernel consults a wall clock or an
RNG.  Two runs of the same process graph produce identical traces.

Usage sketch::

    sim = Simulator()

    def worker(sim, store):
        item = yield store.get()          # suspend until an item arrives
        yield sim.timeout(item.cost)      # advance virtual time
        return item                       # becomes the process's value

    proc = sim.process(worker(sim, store))
    sim.run()
    print(sim.now, proc.value)
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator

__all__ = ["Event", "Process", "Simulator", "Store"]

_PENDING = 0  # not yet triggered
_TRIGGERED = 1  # in the event queue, callbacks not yet run
_PROCESSED = 2  # callbacks have run; value is final


class Event:
    """A one-shot occurrence in virtual time.

    Processes wait on events by ``yield``-ing them; arbitrary callbacks
    may also be attached.  An event fires at the simulator's *current*
    time when :meth:`succeed` is called, or at a future time when created
    via :meth:`Simulator.timeout`.
    """

    __slots__ = ("sim", "callbacks", "value", "_state")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self.value: Any = None
        self._state = _PENDING

    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event (at the current virtual time) with ``value``."""
        if self._state != _PENDING:
            raise RuntimeError("event already triggered")
        self.value = value
        self.sim._schedule(0.0, self)
        return self


class Process(Event):
    """A generator executing in virtual time.

    The generator yields :class:`Event` instances; each yield suspends the
    process until the event fires, and the event's value is sent back in.
    The process itself is an event that fires with the generator's return
    value, so processes can wait on each other.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator) -> None:
        super().__init__(sim)
        self._gen = gen
        sim._call_soon(lambda: self._step(None))

    def _step(self, send_value: Any) -> None:
        try:
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"processes must yield Event instances, got {target!r}"
            )
        if target.processed:
            # Already fired: resume on the next queue slot at this time so
            # same-time FIFO ordering is preserved.
            self.sim._call_soon(lambda: self._step(target.value))
        else:
            target.callbacks.append(lambda ev: self._step(ev.value))


class Simulator:
    """Virtual clock plus the deterministic event queue."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._processes: list[Process] = []

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        event._state = _TRIGGERED
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def _call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current time, after pending callbacks."""
        ev = Event(self)
        ev.callbacks.append(lambda _: callback())
        self._schedule(0.0, ev)

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` virtual seconds from now."""
        ev = Event(self)
        ev.value = value
        self._schedule(delay, ev)
        return ev

    def process(self, gen: Generator) -> Process:
        """Start a generator as a process; begins at the current time."""
        proc = Process(self, gen)
        self._processes.append(proc)
        return proc

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the next event (advancing the clock to it)."""
        time, _, event = heapq.heappop(self._heap)
        self.now = time
        event._state = _PROCESSED
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until: float | None = None) -> float:
        """Drain the queue; with ``until``, stop the world at that time.

        Events scheduled at exactly ``until`` still fire; later ones stay
        queued (frozen mid-flight), which is how horizon-bounded fleet
        runs cut off in-progress epochs.  Returns the final clock.
        """
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def close(self) -> None:
        """End the simulation: close every process still suspended and
        drop the queue.

        A process parked on an event that will never fire (a consumer
        whose producers are done, a flow a horizon froze) holds its
        generator's frame, and with it whatever the frame references,
        until the cycle collector runs; closing it frees that now.
        """
        for proc in self._processes:
            proc._gen.close()
        self._processes.clear()
        self._heap.clear()


class Store:
    """Unbounded FIFO item queue connecting producer and consumer processes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the longest-waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item (FIFO)."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
