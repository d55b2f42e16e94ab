"""Event-driven fleet with a gateway tier: flushes as backhaul flows.

:class:`TopologyEventFleet` subclasses the flat event engine and swaps
three things, leaving the node/cloud machinery untouched:

* **transport** — a node's upload rides the uncontended local hop to its
  gateway (a plain timeout) instead of a shared-backhaul flow;
* **gateway processes** — one kernel process per gateway runs the
  second-opinion model, parks uploads in a :class:`GatewayBuffer`, and
  flushes them as one framed flow on the shared WAN backhaul
  (:class:`~repro.events.FlowLink`); epoch-0 uploads force-flush so the
  Cloud's initialization barrier sees every node's data;
* **push-down** — one WAN flow per gateway per wave, then local copies
  fan out to the children.

In ``barrier`` mode gateways synchronize on the same round events as
the nodes and report to the Cloud once per round (flushed or not), so
the Cloud's round barrier — and therefore the lockstep-equivalence
guarantee — survives aggregation: buffered rounds simply contribute an
empty report.  With no horizon, the final round force-flushes, matching
the lockstep gateway tier's horizon flush; horizon-bounded runs may end with
images still parked (reported in ``gateway_leftover_images``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.link import JPEG_IMAGE_BYTES
from repro.fleet.async_sim import _Arrival, _EventFleet
from repro.fleet.simulation import (
    FleetAssets,
    FleetRuntime,
    build_fleet_runtime,
)
from repro.events import Store
from repro.topology.gateway import GatewayBuffer, SecondOpinion
from repro.topology.model import Topology

__all__ = ["GatewayFlushRecord", "TopologyEventFleet"]


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


class _GatewayMsg:
    """One node's upload, landed at its gateway over the local hop."""

    __slots__ = ("node_id", "epoch", "stage_index", "data", "accuracy")

    def __init__(self, node_id, epoch, stage_index, data, accuracy):
        self.node_id = node_id
        self.epoch = epoch
        self.stage_index = stage_index
        self.data = data
        self.accuracy = accuracy


class _GatewayRound:
    """A gateway's per-round report to the barrier Cloud."""

    __slots__ = ("gateway_id", "round_index", "entries", "accuracies")

    def __init__(self, gateway_id, round_index, entries, accuracies):
        self.gateway_id = gateway_id
        self.round_index = round_index
        self.entries = entries  # BufferedUpload list flushed this round
        self.accuracies = accuracies  # [(node_id, accuracy)] all children


class TopologyEventFleet(_EventFleet):
    """The flat event engine with gateway processes interposed."""

    def __init__(self, config, assets: FleetAssets, *, topology: Topology,
                 **kwargs) -> None:
        # Set before super().__init__: _make_runtime consults it.
        self.topology = topology
        super().__init__(config, assets, **kwargs)
        self.report.topology = topology
        self.gateway_by_id = {
            g.gateway_id: g for g in topology.gateways
        }
        self.gateway_of = {
            node_id: topology.gateway_of(node_id)
            for node_id in self.all_node_ids
        }
        self.gateway_inbox = {
            g.gateway_id: Store(self.sim) for g in topology.gateways
        }
        self.gateway_reports = Store(self.sim)
        self.buffers = {
            g.gateway_id: GatewayBuffer(policy=topology.aggregation)
            for g in topology.gateways
        }
        self.opinions = {
            g.gateway_id: SecondOpinion(
                topology.second_opinion_fraction, topology.seed, g.device
            )
            for g in topology.gateways
        }

    # ------------------------------------------------------------------
    # Hook overrides
    # ------------------------------------------------------------------
    def _make_runtime(self, config, assets) -> FleetRuntime:
        return build_fleet_runtime(
            config,
            assets,
            metrics=self.metrics,
            canary_ids=self.topology.canary_node_ids,
        )

    def _canary_ids(self) -> tuple[int, ...]:
        return self.topology.canary_node_ids

    def _transport(
        self, i, profile, stage, epoch, upload_data, count, node_report
    ):
        """Ship the upload one hop, to the node's gateway (uncontended)."""
        g = self.gateway_of[profile.node_id]
        num_bytes = count * JPEG_IMAGE_BYTES
        upload_start = self.sim.now
        yield self.sim.timeout(g.local_link.transfer_time_s(num_bytes))
        upload_done = self.sim.now
        if count:
            self.tracer.span(
                "net",
                "upload",
                upload_start,
                upload_done,
                node=profile.node_id,
                stage=stage.index,
                epoch=epoch,
                system=self.config.system_id,
                bytes=num_bytes,
                tier="edge",
                gateway=g.gateway_id,
            )
        self.report.ledger.record_tier(
            epoch,
            edge_up_bytes=num_bytes,
            edge_up_transfers=1 if count else 0,
        )
        self.gateway_inbox[g.gateway_id].put(
            _GatewayMsg(
                profile.node_id,
                epoch,
                stage.index,
                upload_data,
                node_report.accuracy_before_update,
            )
        )
        return (
            upload_start,
            upload_done,
            g.local_link.transfer_energy_j(num_bytes),
        )

    def _collect_round(self, round_index: int):
        """Collect one report per gateway; flatten flushes into arrivals."""
        reports = []
        for _ in range(len(self.topology.gateways)):
            reports.append((yield self.gateway_reports.get()))
        reports.sort(key=lambda r: r.gateway_id)
        entries = [e for r in reports for e in r.entries]
        entries.sort(key=lambda e: (e.stage_index, e.node_id))
        arrivals = [
            _Arrival(e.node_id, e.stage_index, e.stage_index, e.data, 0.0)
            for e in entries
        ]
        accuracy_by_node = {}
        for r in reports:
            for node_id, accuracy in r.accuracies:
                accuracy_by_node[node_id] = accuracy
        ordered = [
            accuracy_by_node[n] for n in sorted(accuracy_by_node)
        ]
        return arrivals, float(np.mean(ordered))

    def _spawn_processes(self) -> None:
        for i in range(len(self.profiles)):
            self.sim.process(self._node_proc(i))
        for g in self.topology.gateways:
            self.sim.process(
                self._gateway_proc_barrier(g)
                if self.barrier
                else self._gateway_proc_async(g)
            )
        self.sim.process(
            self._cloud_barrier() if self.barrier else self._cloud_async()
        )

    # ------------------------------------------------------------------
    # Gateway processes
    # ------------------------------------------------------------------
    def _apply_second_opinion(self, g, node_id: int, stage_key: int, data):
        """Run the gateway model over one upload; returns escalated data.

        The modeled inference time is returned for the caller to spend as
        virtual time.  Seeded per ``(gateway, node, stage)``, exactly like
        the lockstep gateway tier, so both modes escalate the same subsets.
        """
        if (
            stage_key == 0
            or self.config.uploads_everything
            or self.topology.second_opinion_fraction == 0.0
            or not len(data)
        ):
            return data, 0, 0.0
        result = self.opinions[g.gateway_id].resolve(
            g.gateway_id, node_id, stage_key, data
        )
        return result.escalated, result.resolved_images, result.time_s

    def _wan_flush(self, g, entries, round_index: int):
        """One framed WAN transfer carrying a flushed buffer upstream."""
        images = sum(len(e.data) for e in entries)
        payload = (
            images * JPEG_IMAGE_BYTES + self.topology.per_transfer_overhead_bytes
        )
        wan = g.wan_link(self.profiles)
        start = self.sim.now
        yield self.uplink.transfer(
            payload,
            wan.bandwidth_bps,
            latency_s=wan.latency_s,
            tag=g.gateway_id,
        )
        self.tracer.span(
            "net",
            "flush",
            start,
            self.sim.now,
            gateway=g.gateway_id,
            stage=round_index,
            system=self.config.system_id,
            bytes=payload,
            images=images,
            tier="gateway",
        )
        self.report.gateway_flushes.append(
            GatewayFlushRecord(
                gateway_id=g.gateway_id,
                round_index=round_index,
                images=images,
                payload_bytes=payload,
                overhead_bytes=self.topology.per_transfer_overhead_bytes,
                start_s=start,
                done_s=self.sim.now,
            )
        )
        self.report.ledger.record_tier(
            round_index,
            wan_up_bytes=payload,
            wan_up_transfers=1,
            overhead_bytes=self.topology.per_transfer_overhead_bytes,
        )
        m = self.metrics
        if m is not None:
            sys_id = self.config.system_id
            m.counter("topology.flushes", system=sys_id, tier="gateway").inc()
            m.counter(
                "topology.wan_bytes", system=sys_id, tier="gateway"
            ).inc(payload)
            m.counter(
                "topology.overhead_bytes", system=sys_id, tier="gateway"
            ).inc(self.topology.per_transfer_overhead_bytes)

    def _gateway_proc_barrier(self, g):
        """Round-synchronized gateway: report to the Cloud every round."""
        inbox = self.gateway_inbox[g.gateway_id]
        buffer = self.buffers[g.gateway_id]
        num_stages = len(self.assets.node_stages[0])
        round_index = 0
        while True:
            msgs = []
            for _ in range(len(g.child_ids)):
                msgs.append((yield inbox.get()))
            msgs.sort(key=lambda m: m.node_id)
            accuracies = [(m.node_id, m.accuracy) for m in msgs]
            so_time = 0.0
            resolved = 0
            for m in msgs:
                data, k, time_s = self._apply_second_opinion(
                    g, m.node_id, round_index, m.data
                )
                so_time += time_s
                resolved += k
                buffer.offer(round_index, m.node_id, data)
            if so_time > 0:
                so_start = self.sim.now
                yield self.sim.timeout(so_time)
                self.tracer.span(
                    "gateway",
                    "second_opinion",
                    so_start,
                    self.sim.now,
                    gateway=g.gateway_id,
                    stage=round_index,
                    system=self.config.system_id,
                    tier="gateway",
                    resolved=resolved,
                )
            force = round_index == 0 or (
                self.horizon_s is None and round_index == num_stages - 1
            )
            entries = []
            if force or buffer.should_flush(round_index):
                entries = buffer.flush()
            if entries:
                yield from self._wan_flush(g, entries, round_index)
            self.gateway_reports.put(
                _GatewayRound(g.gateway_id, round_index, entries, accuracies)
            )
            keep_going = yield self._round_event(round_index)
            if not keep_going:
                return
            round_index += 1

    def _gateway_proc_async(self, g):
        """Free-running gateway: flush on threshold/age, per message.

        Epoch-0 messages force an immediate flush so the Cloud's one
        required synchronization point — initialization on every node's
        first upload — is never starved by the aggregation policy.
        """
        inbox = self.gateway_inbox[g.gateway_id]
        buffer = self.buffers[g.gateway_id]
        while True:
            msg = yield inbox.get()
            data, resolved, so_time = self._apply_second_opinion(
                g, msg.node_id, msg.epoch, msg.data
            )
            if so_time > 0:
                so_start = self.sim.now
                yield self.sim.timeout(so_time)
                self.tracer.span(
                    "gateway",
                    "second_opinion",
                    so_start,
                    self.sim.now,
                    gateway=g.gateway_id,
                    stage=msg.epoch,
                    system=self.config.system_id,
                    tier="gateway",
                    resolved=resolved,
                )
            buffer.offer(msg.epoch, msg.node_id, data)
            if msg.epoch == 0 or buffer.should_flush(msg.epoch):
                entries = buffer.flush()
                if entries:
                    yield from self._wan_flush(g, entries, msg.epoch)
                    for e in entries:
                        self.arrivals.put(
                            _Arrival(
                                e.node_id,
                                e.stage_index,
                                e.stage_index,
                                e.data,
                                0.0,
                            )
                        )

    # ------------------------------------------------------------------
    # Two-hop push-down
    # ------------------------------------------------------------------
    def _push_wave(self, pushes, stage_hint: int):
        """One WAN copy per gateway, then local fan-out to the children."""
        state = self.runtime.registry.active.state
        by_gateway: dict[int, list] = {}
        for node_id, num_bytes in pushes:
            gid = self.gateway_of[node_id].gateway_id
            by_gateway.setdefault(gid, []).append((node_id, num_bytes))
        procs = [
            self.sim.process(
                self._gateway_push_proc(gid, items, state, stage_hint)
            )
            for gid, items in sorted(by_gateway.items())
        ]
        for proc in procs:
            yield proc

    def _gateway_push_proc(self, gateway_id, items, state, stage_hint):
        g = self.gateway_by_id[gateway_id]
        wan = g.wan_link(self.profiles)
        unit = max(num_bytes for _, num_bytes in items)
        start = self.sim.now
        yield self.downlink.transfer(
            unit,
            wan.downlink_bps,
            latency_s=wan.latency_s,
            tag=gateway_id,
        )
        self.tracer.span(
            "net",
            "push",
            start,
            self.sim.now,
            gateway=gateway_id,
            stage=stage_hint,
            system=self.config.system_id,
            bytes=unit,
            tier="gateway",
        )
        self.report.ledger.record_tier(stage_hint, wan_down_bytes=unit)
        procs = [
            self.sim.process(
                self._local_push_proc(g, node_id, num_bytes, state, stage_hint)
            )
            for node_id, num_bytes in items
        ]
        for proc in procs:
            yield proc

    def _local_push_proc(self, g, node_id, num_bytes, state, stage_hint):
        i = self.index_of[node_id]
        start = self.sim.now
        yield self.sim.timeout(g.local_link.model_push_time_s(num_bytes))
        self.tracer.span(
            "net",
            "push",
            start,
            self.sim.now,
            node=node_id,
            stage=stage_hint,
            system=self.config.system_id,
            bytes=num_bytes,
            tier="edge",
            gateway=g.gateway_id,
        )
        self._land_download(i, num_bytes, state, stage_hint, link=g.local_link)
        self.report.ledger.record_tier(stage_hint, edge_down_bytes=num_bytes)

    # ------------------------------------------------------------------
    def run(self):
        report = super().run()
        report.gateway_leftover_images = {
            gateway_id: buffer.buffered_images
            for gateway_id, buffer in sorted(self.buffers.items())
        }
        return report
