"""Shared-uplink contention model for fleet simulation.

``comm.link.NetworkLink`` models one node alone on its radio.  A fleet
shares backhaul: when many nodes upload flagged data at once the
aggregate capacity is split between them, and every transfer stretches.

Contention runs on the dynamic max-min fluid flows of
:class:`repro.events.FlowLink`.  Every fleet run binds :data:`BACKHAUL_BPS`
to its own event kernel as two such links, one per direction (the engine
in :mod:`repro.fleet.async_sim` builds them), so flows join and leave
mid-transfer as the fleet produces them, rates recomputed at every
arrival/completion event.  :meth:`SharedUplink.transfer_times` is the
static view: a batch of transfers starts at virtual time zero on a
throwaway kernel and the per-flow completion times come back as plain
floats (the steady-state behavior of per-flow fair queuing at the
bottleneck).

Energy stays per-byte at each node's radio (the existing
:class:`~repro.comm.link.NetworkLink` model): contention stretches *time*,
not bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.link import NetworkLink
from repro.events import FlowLink, Simulator

__all__ = [
    "BACKHAUL_BPS",
    "SharedUplink",
    "Transfer",
    "model_state_bytes",
]


def model_state_bytes(state: dict[str, np.ndarray]) -> int:
    """Wire size of a model state dict (raw parameter bytes)."""
    return int(sum(v.nbytes for v in state.values()))


@dataclass(frozen=True)
class Transfer:
    """One node's transfer demand through the shared link."""

    node_id: int
    link: NetworkLink
    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")


#: aggregate backhaul capacity every node of a fleet shares
BACKHAUL_BPS = 40e6


class SharedUplink:
    """Aggregate link capacity shared by concurrent transfers.

    Parameters
    ----------
    capacity_bps:
        Bottleneck bandwidth in bits/s, shared by every concurrent flow.
        Individual flows are additionally capped by their own access
        link's bandwidth.
    """

    def __init__(self, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bps = capacity_bps

    def transfer_times(self, transfers: list[Transfer]) -> list[float]:
        """Per-transfer completion times for concurrent flows.

        All transfers start at virtual time zero; each flow's finish time
        includes its own access-link latency.  Zero-byte transfers finish
        instantly and consume no capacity.  An empty transfer list is a
        legal no-op.
        """
        if not transfers:
            return []
        sim = Simulator()
        link = FlowLink(sim, self.capacity_bps)
        events = [
            link.transfer(
                t.num_bytes,
                t.link.bandwidth_bps,
                latency_s=t.link.latency_s,
                tag=t.node_id,
            )
            for t in transfers
        ]
        sim.run()
        return [ev.value.done_s for ev in events]

    def stage_upload_times(
        self, transfers: list[Transfer]
    ) -> tuple[list[float], float]:
        """(per-node upload time, stage makespan) for one stage's uploads."""
        times = self.transfer_times(transfers)
        return times, max(times, default=0.0)

    def push_times(
        self, links: list[NetworkLink], model_bytes: int
    ) -> list[float]:
        """Concurrent model push-down to many nodes over the same backhaul.

        The downlink shares the same bottleneck capacity (symmetric
        backhaul), so a fleet-wide rollout is itself a contended event.
        """
        transfers = [
            Transfer(node_id=i, link=link, num_bytes=model_bytes)
            for i, link in enumerate(links)
        ]
        return self.transfer_times(transfers)
