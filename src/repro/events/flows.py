"""Dynamic fluid flows over a shared bottleneck link.

A static uplink model starts a batch of transfers at the same instant
and advances completion-to-completion.  Real fleets are not that
polite: flows *join while others are mid-transfer* as nodes finish
epochs at their own pace.  :class:`FlowLink` models exactly that on the
event kernel — at every flow arrival and completion the max-min fair
rate allocation is recomputed over the flows currently on the link, each
flow additionally capped by its own access-link rate.  A flow leaves the
link only by draining: every started transfer completes and delivers all
its bytes.

The rate allocator (:func:`max_min_rates`, progressive filling) is the
single implementation shared by this dynamic model and the static view,
:meth:`~repro.fleet.uplink.SharedUplink.transfer_times`, so the two agree
whenever all flows happen to start simultaneously.

Flow counts, queue depth and throughput go to the ambient metrics
registry (:func:`repro.obs.metrics.active`), labelled with the link's
name; with none installed the link records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.kernel import Event, Simulator
from repro.obs import metrics as obs_metrics

__all__ = ["FlowRecord", "FlowLink", "max_min_rates"]

#: residual bits below which a flow counts as drained (well under one
#: byte, well over accumulated float error across reallocations)
_EPS_BITS = 1e-3


def max_min_rates(caps: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` across flows with rate caps.

    Progressive filling: flows whose cap is below the equal share keep
    their cap; the leftover is re-split among the rest.
    """
    rates = [0.0] * len(caps)
    remaining = capacity
    active = list(range(len(caps)))
    while active:
        share = remaining / len(active)
        bottlenecked = [i for i in active if caps[i] <= share]
        if not bottlenecked:
            for i in active:
                rates[i] = share
            break
        for i in bottlenecked:
            rates[i] = caps[i]
            remaining -= caps[i]
        active = [i for i in active if caps[i] > share]
    return rates


@dataclass(frozen=True)
class FlowRecord:
    """Completed-transfer receipt delivered as the flow event's value."""

    tag: object
    num_bytes: int
    start_s: float  # when the flow joined the link
    drain_s: float  # when its last bit left the link
    done_s: float  # drain + access-link latency


class _Flow:
    __slots__ = ("tag", "num_bytes", "bits", "cap", "latency", "start", "done")

    def __init__(self, tag, num_bytes, cap, latency, start, done):
        self.tag = tag
        self.num_bytes = num_bytes
        self.bits = num_bytes * 8.0
        self.cap = cap
        self.latency = latency
        self.start = start
        self.done = done


class FlowLink:
    """A shared bottleneck carrying dynamic max-min fair fluid flows.

    Parameters
    ----------
    sim:
        The event kernel this link lives on.
    capacity_bps:
        Bottleneck bandwidth in bits/s shared by all concurrent flows.
    name:
        Label distinguishing this link's metrics (e.g. ``uplink``): queue
        depth (active flows), completed-flow counts/bytes and a per-flow
        achieved-throughput histogram, all derived from virtual time, so
        the dump stays deterministic.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        *,
        name: str = "link",
    ) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.name = name
        self._flows: list[_Flow] = []
        self._rates: list[float] = []
        self._last = 0.0  # clock at the last reallocation
        self._token = 0  # invalidates stale completion ticks

    def transfer(
        self,
        num_bytes: int,
        cap_bps: float,
        *,
        latency_s: float = 0.0,
        tag: object = None,
    ) -> Event:
        """Start a flow now; returns the event firing with a :class:`FlowRecord`.

        ``cap_bps`` is the flow's own access-link rate; the flow gets
        ``min`` of its fair share and that cap.  ``latency_s`` is charged
        once, after the last bit drains (matching the static model).
        Zero-byte transfers complete immediately and never touch the link.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        if cap_bps <= 0:
            raise ValueError("cap_bps must be positive")
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        done = Event(self.sim)
        now = self.sim.now
        if num_bytes == 0:
            done.succeed(FlowRecord(tag, 0, now, now, now))
            return done
        self._apply_progress()
        self._flows.append(_Flow(tag, num_bytes, cap_bps, latency_s, now, done))
        m = obs_metrics.active()
        if m is not None:
            m.counter("flows.started", link=self.name).inc()
            m.gauge("flows.active", link=self.name).set(len(self._flows))
        self._reallocate()
        return done

    # ------------------------------------------------------------------
    # Fluid bookkeeping
    # ------------------------------------------------------------------
    def _apply_progress(self) -> None:
        """Drain bits at the current rates since the last reallocation."""
        dt = self.sim.now - self._last
        if dt > 0:
            for flow, rate in zip(self._flows, self._rates):
                flow.bits -= rate * dt
        self._last = self.sim.now

    def _reallocate(self) -> None:
        """Recompute fair rates and schedule the next completion tick."""
        self._token += 1
        if not self._flows:
            self._rates = []
            return
        self._rates = max_min_rates(
            [f.cap for f in self._flows], self.capacity_bps
        )
        dt = min(
            f.bits / r for f, r in zip(self._flows, self._rates) if r > 0
        )
        token = self._token
        tick = self.sim.timeout(max(dt, 0.0))
        tick.callbacks.append(lambda _: self._on_tick(token))

    def _on_tick(self, token: int) -> None:
        if token != self._token:  # a join/leave superseded this tick
            return
        self._apply_progress()
        now = self.sim.now
        finished = [f for f in self._flows if f.bits <= _EPS_BITS]
        self._flows = [f for f in self._flows if f.bits > _EPS_BITS]
        m = obs_metrics.active() if finished else None
        if m is not None:
            m.gauge("flows.active", link=self.name).set(len(self._flows))
            completed = m.counter("flows.completed", link=self.name)
            moved = m.counter("flows.bytes", link=self.name)
            throughput = m.histogram("flows.throughput_bps", link=self.name)
            for flow in finished:
                completed.inc()
                moved.inc(flow.num_bytes)
                drain_time = now - flow.start
                if drain_time > 0:
                    throughput.observe(flow.num_bytes * 8.0 / drain_time)
        for flow in finished:
            record = FlowRecord(
                tag=flow.tag,
                num_bytes=flow.num_bytes,
                start_s=flow.start,
                drain_s=now,
                done_s=now + flow.latency,
            )
            if flow.latency > 0:
                delay = self.sim.timeout(flow.latency, record)
                delay.callbacks.append(
                    lambda ev, done=flow.done: done.succeed(ev.value)
                )
            else:
                flow.done.succeed(record)
        self._reallocate()
