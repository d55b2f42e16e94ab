"""The gateway tier of the event engine: flushes as backhaul flows.

:func:`repro.fleet.async_sim.run_fleet_event` runs one event engine; what
a topology changes is *transport*, and :class:`GatewayEventTier` is that
transport, with the same surface as the flat
:class:`~repro.fleet.async_sim.DirectEventTier`.  The one class both
decides (who sits under which gateway, when the second opinion runs,
when a buffer leaves for the Cloud, what a WAN frame weighs) and moves
the bytes through time:

* **transport** — a node's upload rides the uncontended local hop to its
  gateway (a plain timeout) instead of a shared-backhaul flow;
* **gateway processes** — one kernel process per gateway runs the
  second-opinion model, parks uploads in a :class:`GatewayBuffer`, and
  flushes them as one framed flow on the shared WAN backhaul
  (:class:`~repro.events.FlowLink`); epoch-0 uploads force-flush so the
  Cloud's initialization barrier sees every node's data;
* **push-down** — one WAN flow per gateway per wave, then local copies
  fan out to the children.

In ``barrier`` mode — the lockstep reference, and what ``python -m repro
fleet --topology fan-out`` runs by default — gateways synchronize on the
same round events as the nodes and report to the Cloud once per round
(flushed or not), so the Cloud's round barrier survives aggregation:
buffered rounds simply contribute an empty report.  With no horizon, the
final round force-flushes so no data is stranded; horizon-bounded runs
may end with images still parked (reported in
``gateway_leftover_images``).  ``gateway_resolved_images`` counts what
each gateway's second opinion settled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.link import JPEG_IMAGE_BYTES, NetworkLink
from repro.events import Store
from repro.fleet.async_sim import _Arrival
from repro.obs import metrics as obs_metrics
from repro.topology.gateway import (
    GatewayBuffer,
    SecondOpinion,
    SecondOpinionResult,
)

__all__ = ["GatewayEventTier", "GatewayFlushRecord"]


@dataclass(frozen=True)
class GatewayFlushRecord:
    """One gateway WAN flush in an event-driven run."""

    gateway_id: int
    round_index: int  # round (barrier) or triggering epoch (async)
    images: int
    payload_bytes: int  # image payload + framing overhead
    overhead_bytes: int
    start_s: float
    done_s: float


class _GatewayRound:
    """A gateway's per-round report to the barrier Cloud."""

    __slots__ = ("gateway_id", "entries", "accuracies")

    def __init__(self, gateway_id, entries, accuracies):
        self.gateway_id = gateway_id
        self.entries = entries  # BufferedUpload list flushed this round
        self.accuracies = accuracies  # [(node_id, accuracy)] alive children


class GatewayEventTier:
    """Edge -> gateway -> Cloud transport for one event-driven run."""

    node_tag = "edge"
    cloud_attrs = {"tier": "cloud"}

    def __init__(self, topology, config, assets) -> None:
        self.topology = topology
        self.uploads_everything = config.uploads_everything
        self.profiles = assets.profiles
        #: rollouts canary regionally, on the canary gateway's children
        self.canary_ids = topology.canary_node_ids
        self.gateway_by_id = {g.gateway_id: g for g in topology.gateways}
        self.gateway_of = {
            p.node_id: topology.gateway_of(p.node_id) for p in self.profiles
        }
        self.buffers = {
            gid: GatewayBuffer(policy=topology.aggregation)
            for gid in self.gateway_by_id
        }
        #: one model serves every gateway: ``resolve`` is seeded per
        #: ``(gateway, node, stage)``
        self.opinion = SecondOpinion(topology.second_opinion_fraction)
        self.resolved = {gid: 0 for gid in sorted(self.gateway_by_id)}

    def node_link(self, i: int) -> NetworkLink:
        """The local hop node ``i``'s radio pays for."""
        return self.gateway_of[self.profiles[i].node_id].local_link

    def start(self, engine) -> None:
        """Start one process per gateway.

        The tier keeps no reference to the engine; the async gateway
        processes never return, and the engine closes them as its run
        ends.
        """
        if engine.round_based and not engine.barrier:
            raise ValueError(
                "a round-based Cloud over gateways needs barrier=True"
            )
        self.inbox = {gid: Store(engine.sim) for gid in self.gateway_by_id}
        self.reports = Store(engine.sim)
        # The round the Cloud is collecting; gateway processes read it on
        # entering a round (the engine opens a round before they resume).
        self._alive_ids: tuple[int, ...] = ()
        for g in self.topology.gateways:
            engine.sim.process(
                self._gateway_proc_barrier(engine, g)
                if engine.barrier
                else self._gateway_proc_async(engine, g)
            )

    def finish(self, report) -> None:
        report.gateway_leftover_images = {
            gateway_id: buffer.buffered_images
            for gateway_id, buffer in sorted(self.buffers.items())
        }
        report.gateway_resolved_images = dict(self.resolved)

    # ------------------------------------------------------------------
    # Node -> gateway -> Cloud
    # ------------------------------------------------------------------
    def transport(self, engine, i, stage, epoch, upload_data, count, accuracy):
        """Ship the upload one hop, to the node's gateway (uncontended)."""
        node_id = engine.profiles[i].node_id
        g = self.gateway_of[node_id]
        num_bytes = count * JPEG_IMAGE_BYTES
        upload_start = engine.sim.now
        yield engine.sim.timeout(g.local_link.transfer_time_s(num_bytes))
        if count:
            engine.tracer.span(
                "net",
                "upload",
                upload_start,
                engine.sim.now,
                node=node_id,
                stage=stage.index,
                epoch=epoch,
                system=engine.config.system_id,
                bytes=num_bytes,
                tier="edge",
                gateway=g.gateway_id,
            )
        engine.report.ledger.record_tier(
            epoch,
            edge_up_bytes=num_bytes,
            edge_up_transfers=1 if count else 0,
        )
        self.inbox[g.gateway_id].put(
            _Arrival(node_id, epoch, stage.index, upload_data, accuracy)
        )

    def collect_round(self, engine, round_index: int, alive_ids: tuple[int, ...]):
        """Collect one report per gateway; flatten flushes into arrivals."""
        self._alive_ids = alive_ids
        reports = []
        for _ in self.gateway_by_id:
            reports.append((yield self.reports.get()))
        reports.sort(key=lambda r: r.gateway_id)
        entries = [e for r in reports for e in r.entries]
        entries.sort(key=lambda e: (e.stage_index, e.node_id))
        accuracy_by_node = {}
        for r in reports:
            for node_id, accuracy in r.accuracies:
                accuracy_by_node[node_id] = accuracy
        ordered = [
            accuracy_by_node[n] for n in sorted(accuracy_by_node)
        ]
        return self._as_arrivals(entries), float(np.mean(ordered))

    @staticmethod
    def _as_arrivals(entries) -> list[_Arrival]:
        """Flushed buffer entries in the shape the Cloud pools."""
        return [
            _Arrival(e.node_id, e.stage_index, e.stage_index, e.data, 0.0)
            for e in entries
        ]

    # ------------------------------------------------------------------
    # Gateway processes
    # ------------------------------------------------------------------
    def _second_opinion(self, engine, g, msgs, stage_key: int):
        """Settle ``msgs`` at the gateway, then park what escalates.

        The gateway model skips stage 0 (the initialization upload),
        systems that upload everything (no flagged subset to settle) and
        empty uploads.  Seeded per ``(gateway, node, stage)``, so barrier
        and async runs escalate the same images.
        """
        consult = not (
            stage_key == 0
            or self.uploads_everything
            or self.opinion.fraction == 0.0
        )
        results = [
            self.opinion.resolve(g.gateway_id, m.node_id, stage_key, m.data)
            if consult and len(m.data)
            else SecondOpinionResult(m.data, 0, 0.0, 0.0)
            for m in msgs
        ]
        so_time = sum(r.time_s for r in results)
        resolved = sum(r.resolved_images for r in results)
        self.resolved[g.gateway_id] += resolved
        if so_time > 0:
            so_start = engine.sim.now
            yield engine.sim.timeout(so_time)
            engine.tracer.span(
                "gateway",
                "second_opinion",
                so_start,
                engine.sim.now,
                gateway=g.gateway_id,
                stage=stage_key,
                system=engine.config.system_id,
                tier="gateway",
                offered=sum(len(m.data) for m in msgs),
                resolved=resolved,
            )
        m = obs_metrics.active()
        if m is not None:
            m.counter(
                "topology.images.resolved",
                system=engine.config.system_id,
                tier="gateway",
            ).inc(resolved)
        for m, result in zip(msgs, results):
            self.buffers[g.gateway_id].offer(
                stage_key, m.node_id, result.escalated
            )

    def _flush(self, gateway_id: int, stage: int, *, final: bool):
        """What leaves this gateway for the Cloud at ``stage``, if anything.

        Stage 0 forces a flush, so the Cloud always initializes from the
        full stage-0 pool; so does the ``final`` stage of a run with a
        known end, so no data is stranded.  Otherwise the aggregation
        policy decides.  ``[]`` means nothing crosses the WAN.
        """
        buffer = self.buffers[gateway_id]
        if stage == 0 or final or buffer.should_flush(stage):
            return buffer.flush()
        return []

    def _wan_flush(self, engine, g, entries, round_index: int):
        """One framed WAN transfer carrying a flushed buffer upstream."""
        images = sum(len(e.data) for e in entries)
        overhead = self.topology.per_transfer_overhead_bytes
        payload = images * JPEG_IMAGE_BYTES + overhead
        wan = g.wan_link
        start = engine.sim.now
        yield engine.uplink.transfer(
            payload,
            wan.bandwidth_bps,
            latency_s=wan.latency_s,
            tag=g.gateway_id,
        )
        engine.tracer.span(
            "net",
            "flush",
            start,
            engine.sim.now,
            gateway=g.gateway_id,
            stage=round_index,
            system=engine.config.system_id,
            bytes=payload,
            images=images,
            tier="gateway",
        )
        engine.report.gateway_flushes.append(
            GatewayFlushRecord(
                gateway_id=g.gateway_id,
                round_index=round_index,
                images=images,
                payload_bytes=payload,
                overhead_bytes=overhead,
                start_s=start,
                done_s=engine.sim.now,
            )
        )
        engine.report.ledger.record_tier(
            round_index,
            wan_up_bytes=payload,
            wan_up_transfers=1,
            overhead_bytes=overhead,
        )
        m = obs_metrics.active()
        if m is not None:
            labels = dict(system=engine.config.system_id, tier="gateway")
            m.counter("topology.flushes", **labels).inc()
            m.counter("topology.wan_bytes", **labels).inc(payload)
            m.counter("topology.overhead_bytes", **labels).inc(overhead)

    def _gateway_proc_barrier(self, engine, g):
        """Round-synchronized gateway: report to the Cloud every round."""
        inbox = self.inbox[g.gateway_id]
        num_stages = len(engine.assets.node_stages[0])
        round_index = 0
        while True:
            msgs = []
            for _ in [c for c in g.child_ids if c in self._alive_ids]:
                msgs.append((yield inbox.get()))
            msgs.sort(key=lambda m: m.node_id)
            yield from self._second_opinion(engine, g, msgs, round_index)
            entries = self._flush(
                g.gateway_id,
                round_index,
                final=engine.horizon_s is None
                and round_index == num_stages - 1,
            )
            if entries:
                yield from self._wan_flush(engine, g, entries, round_index)
            self.reports.put(
                _GatewayRound(
                    g.gateway_id,
                    entries,
                    [(m.node_id, m.accuracy) for m in msgs],
                )
            )
            keep_going = yield engine.round_event(round_index)
            if not keep_going:
                return
            round_index += 1

    def _gateway_proc_async(self, engine, g):
        """Free-running gateway: flush on threshold/age, per message.

        Epoch-0 messages force an immediate flush so the Cloud's one
        required synchronization point — initialization on every node's
        first upload — is never starved by the aggregation policy.
        """
        inbox = self.inbox[g.gateway_id]
        while True:
            msg = yield inbox.get()
            yield from self._second_opinion(engine, g, [msg], msg.epoch)
            entries = self._flush(g.gateway_id, msg.epoch, final=False)
            if entries:
                yield from self._wan_flush(engine, g, entries, msg.epoch)
                for arrival in self._as_arrivals(entries):
                    engine.arrivals.put(arrival)

    # ------------------------------------------------------------------
    # Two-hop push-down
    # ------------------------------------------------------------------
    def push_wave(self, engine, pushes, state, stage_hint: int):
        """One WAN copy per gateway, then local fan-out to the children."""
        by_gateway: dict[int, list] = {}
        for node_id, num_bytes in pushes:
            gid = self.gateway_of[node_id].gateway_id
            by_gateway.setdefault(gid, []).append((node_id, num_bytes))
        procs = [
            engine.sim.process(
                self._gateway_push_proc(engine, gid, items, state, stage_hint)
            )
            for gid, items in sorted(by_gateway.items())
        ]
        for proc in procs:
            yield proc

    def _gateway_push_proc(self, engine, gateway_id, items, state, stage_hint):
        g = self.gateway_by_id[gateway_id]
        wan = g.wan_link
        unit = max(num_bytes for _, num_bytes in items)
        start = engine.sim.now
        yield engine.downlink.transfer(
            unit,
            wan.bandwidth_bps,
            latency_s=wan.latency_s,
            tag=gateway_id,
        )
        engine.tracer.span(
            "net",
            "push",
            start,
            engine.sim.now,
            gateway=gateway_id,
            stage=stage_hint,
            system=engine.config.system_id,
            bytes=unit,
            tier="gateway",
        )
        engine.report.ledger.record_tier(stage_hint, wan_down_bytes=unit)
        procs = [
            engine.sim.process(
                self._local_push_proc(
                    engine, g, node_id, num_bytes, state, stage_hint
                )
            )
            for node_id, num_bytes in items
        ]
        for proc in procs:
            yield proc

    def _local_push_proc(self, engine, g, node_id, num_bytes, state, stage_hint):
        start = engine.sim.now
        yield engine.sim.timeout(g.local_link.model_push_time_s(num_bytes))
        engine.tracer.span(
            "net",
            "push",
            start,
            engine.sim.now,
            node=node_id,
            stage=stage_hint,
            system=engine.config.system_id,
            bytes=num_bytes,
            tier="edge",
            gateway=g.gateway_id,
        )
        engine.land_download(
            engine.index_of[node_id], num_bytes, state, stage_hint
        )
        engine.report.ledger.record_tier(stage_hint, edge_down_bytes=num_bytes)
