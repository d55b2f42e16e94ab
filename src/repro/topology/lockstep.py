"""The gateway uplink tier of the lockstep stage loop.

:func:`repro.fleet.simulation.run_fleet` runs one stage loop; what a
topology changes is *transport*, and :class:`GatewayTier` is that
transport, with the same surface as the flat
:class:`~repro.fleet.uplink.DirectTier`:

1. every node ships its (full or flagged) stage data to its gateway over
   the uncontended local link;
2. the gateway optionally settles a fraction of flagged inputs with its
   second-opinion model, parks the rest in its :class:`GatewayBuffer`,
   and — when the aggregation policy fires — flushes the buffer as one
   framed WAN transfer contending on the shared backhaul.

Stage 0 (the initialization upload) and the final stage (the horizon)
force a flush, so the Cloud always initializes from the full stage-0
pool — in exactly the flat fleet's node order — and no data is stranded
at the end of a run.

Model push-downs travel two hops in reverse: one WAN copy per gateway
per rollout wave (the amortization win), then one local copy per child.
All per-node accounting (records, ledgers) stays denominated at the
node's own hop, so flat and hierarchical reports remain comparable;
tier attribution lands in the fleet ledger's ``record_tier`` overlay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.comm.link import JPEG_IMAGE_BYTES, NetworkLink
from repro.fleet.uplink import SharedUplink, StageUplink, Transfer
from repro.topology.gateway import GatewayPolicy, GatewayStageRecord

if TYPE_CHECKING:  # pragma: no cover - typing only (model imports us lazily)
    from repro.topology.model import Topology

__all__ = ["GatewayTier"]


class GatewayTier:
    """Edge -> gateway -> Cloud transport for one lockstep run."""

    node_tag = "edge"
    cloud_attrs = {"tier": "cloud"}

    def __init__(
        self, topology: "Topology", config, assets, backhaul: SharedUplink
    ) -> None:
        self.topology = topology
        self.policy = GatewayPolicy(topology, config, assets)
        self.system_id = config.system_id
        self.profiles = assets.profiles
        self.last_stage = len(assets.node_stages[0]) - 1
        self.backhaul = backhaul
        self.canary_ids = self.policy.canary_ids
        self.gateways = topology.gateways
        self.gateway_of = self.policy.gateway_of
        self.buffers = self.policy.buffers
        # What upload()/push() did this stage, for close_stage().
        self._stage: dict = {}

    def node_link(self, i: int) -> NetworkLink:
        return self.policy.node_link(i)

    # ------------------------------------------------------------------
    def upload(self, s, nodes, uploads, counts, t0, *, tracer):
        """Local hop, second opinion, buffer, then framed WAN flushes."""
        gateways = self.gateways
        # --- node -> gateway: uncontended local hop -------------------
        local_times = {}
        for i in nodes:
            node_id = self.profiles[i].node_id
            g = self.gateway_of[node_id]
            num_bytes = counts[i] * JPEG_IMAGE_BYTES
            local_times[i] = g.local_link.transfer_time_s(num_bytes)
            if counts[i]:
                tracer.span(
                    "net",
                    "upload",
                    t0,
                    t0 + local_times[i],
                    node=node_id,
                    stage=s,
                    system=self.system_id,
                    bytes=num_bytes,
                    tier="edge",
                    gateway=g.gateway_id,
                )

        # --- gateway: second opinion, then buffer ---------------------
        so_start = t0 + max(local_times.values(), default=0.0)
        so_times = {g.gateway_id: 0.0 for g in gateways}
        so_energies = {g.gateway_id: 0.0 for g in gateways}
        offered = {g.gateway_id: 0 for g in gateways}
        resolved = {g.gateway_id: 0 for g in gateways}
        for i in nodes:
            node_id = self.profiles[i].node_id
            gid = self.gateway_of[node_id].gateway_id
            offered[gid] += len(uploads[i])
            result = self.policy.second_opinion(gid, node_id, s, uploads[i])
            so_times[gid] += result.time_s
            so_energies[gid] += result.energy_j
            resolved[gid] += result.resolved_images
            self.buffers[gid].offer(s, node_id, result.escalated)
        for g in gateways:
            if so_times[g.gateway_id] > 0:
                tracer.span(
                    "gateway",
                    "second_opinion",
                    so_start,
                    so_start + so_times[g.gateway_id],
                    gateway=g.gateway_id,
                    stage=s,
                    system=self.system_id,
                    tier="gateway",
                    offered=offered[g.gateway_id],
                    resolved=resolved[g.gateway_id],
                )

        # --- gateway -> cloud: amortized WAN flushes ------------------
        entries = []
        flushes = []  # (gateway, images, payload+overhead bytes)
        for g in gateways:
            flushed = self.policy.flush(
                g.gateway_id, s, final=s == self.last_stage
            )
            if not flushed:
                continue  # horizon flush on an idle gateway: no-op
            entries.extend(flushed)
            flushes.append((g, *self.policy.wan_payload(flushed)))
        # Sorted by (stage, node_id) the forced stage-0 pool matches the
        # flat fleet's node order exactly, so v1 is the identical model.
        entries.sort(key=lambda e: (e.stage_index, e.node_id))
        wan_times, wan_makespan = self.backhaul.stage_upload_times(
            [
                Transfer(
                    node_id=g.gateway_id,
                    link=g.wan_link(self.profiles),
                    num_bytes=num_bytes,
                )
                for g, _, num_bytes in flushes
            ]
        )
        wan_start = so_start + max(so_times.values(), default=0.0)
        for (g, images, num_bytes), wan_time in zip(flushes, wan_times):
            tracer.span(
                "net",
                "flush",
                wan_start,
                wan_start + wan_time,
                gateway=g.gateway_id,
                stage=s,
                system=self.system_id,
                bytes=num_bytes,
                images=images,
                tier="gateway",
            )
        self._stage = dict(
            edge_up_bytes=sum(counts.values()) * JPEG_IMAGE_BYTES,
            edge_up_transfers=sum(1 for c in counts.values() if c),
            flushed={
                g.gateway_id: (images, num_bytes, wan_time)
                for (g, images, num_bytes), wan_time in zip(flushes, wan_times)
            },
            offered=offered,
            resolved=resolved,
            so_times=so_times,
            so_energies=so_energies,
        )
        return StageUplink(
            times=local_times,
            solo_times=local_times,  # LAN hop: uncontended
            makespan_s=wan_makespan,
            arrival_s=wan_start + wan_makespan,
            entries=entries,
        )

    # ------------------------------------------------------------------
    def push(self, s, nodes, push_bytes, t0, *, tracer) -> float:
        """One WAN copy per gateway, then local fan-out to its children."""
        tail = 0.0
        wan_down_bytes = 0
        for g in self.gateways:
            # One copy of each pushed wave crosses the WAN per gateway; a
            # node's push_bytes already count every wave it received, so
            # the max over children is the per-gateway WAN payload.
            wan_bytes = max(
                (push_bytes.get(c, 0) for c in g.child_ids), default=0
            )
            wan_down_bytes += wan_bytes
            wan_push_s = g.wan_link(self.profiles).model_push_time_s(wan_bytes)
            if wan_bytes:
                tracer.span(
                    "net",
                    "push",
                    t0,
                    t0 + wan_push_s,
                    gateway=g.gateway_id,
                    stage=s,
                    system=self.system_id,
                    bytes=wan_bytes,
                    tier="gateway",
                )
            local_tail = 0.0
            for c in g.child_ids:
                down = push_bytes.get(c, 0)
                local_s = g.local_link.model_push_time_s(down)
                local_tail = max(local_tail, local_s)
                if down:
                    tracer.span(
                        "net",
                        "push",
                        t0 + wan_push_s,
                        t0 + wan_push_s + local_s,
                        node=c,
                        stage=s,
                        system=self.system_id,
                        bytes=down,
                        tier="edge",
                        gateway=g.gateway_id,
                    )
            tail = max(tail, wan_push_s + local_tail)
        self._stage["edge_down_bytes"] = sum(push_bytes.values())
        self._stage["wan_down_bytes"] = wan_down_bytes
        return tail

    # ------------------------------------------------------------------
    def close_stage(self, s, report, metrics) -> None:
        """Tier overlay, per-gateway records, and ``topology.*`` counters."""
        stage = self._stage
        overhead_each = self.topology.per_transfer_overhead_bytes
        flushed = stage["flushed"]
        wan_up_bytes = sum(num_bytes for _, num_bytes, _ in flushed.values())
        overhead = len(flushed) * overhead_each
        report.ledger.record_tier(
            s,
            edge_up_bytes=stage["edge_up_bytes"],
            wan_up_bytes=wan_up_bytes,
            edge_down_bytes=stage["edge_down_bytes"],
            wan_down_bytes=stage["wan_down_bytes"],
            edge_up_transfers=stage["edge_up_transfers"],
            wan_up_transfers=len(flushed),
            overhead_bytes=overhead,
        )
        for g in self.gateways:
            gid = g.gateway_id
            images, num_bytes, wan_time = flushed.get(gid, (0, 0, 0.0))
            report.gateway_stages.append(
                GatewayStageRecord(
                    stage_index=s,
                    gateway_id=gid,
                    offered_images=stage["offered"][gid],
                    resolved_images=stage["resolved"][gid],
                    flushed_images=images,
                    flushed_bytes=num_bytes,
                    overhead_bytes=overhead_each if images else 0,
                    buffered_images=self.buffers[gid].buffered_images,
                    flushed=gid in flushed,
                    wan_time_s=wan_time,
                    wan_energy_j=g.wan_link(self.profiles).transfer_energy_j(
                        num_bytes
                    ),
                    second_opinion_time_s=stage["so_times"][gid],
                    second_opinion_energy_j=stage["so_energies"][gid],
                )
            )
        if metrics is not None:
            labels = dict(system=self.system_id, tier="gateway")
            metrics.counter("topology.images.resolved", **labels).inc(
                sum(stage["resolved"].values())
            )
            metrics.counter("topology.flushes", **labels).inc(len(flushed))
            metrics.counter("topology.wan_bytes", **labels).inc(wan_up_bytes)
            metrics.counter("topology.overhead_bytes", **labels).inc(overhead)
