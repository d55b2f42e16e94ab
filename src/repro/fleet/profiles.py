"""Per-node heterogeneity profiles for fleet simulation.

A real deployment is never N copies of the same node: camera traps sit in
different micro-climates (distinct drift severities), run different boards
(a TX1 at full clock next to a thermally throttled one), and reach the
Cloud over different radios (WiFi backhaul vs. LTE).  A
:class:`NodeProfile` captures one node's slice of that heterogeneity and a
:class:`FleetScenario` deterministically expands a seed into N profiles, so
the same scenario always produces the same fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm.link import LTE, WIFI, NetworkLink
from repro.core.simulation import Scenario
from repro.data.stream import default_severities
from repro.hw.specs import TX1, GPUSpec

__all__ = ["LOW_POWER_TX1", "NodeProfile", "FleetScenario"]

#: a thermally throttled TX1: ~60% clock, proportionally lower peak power —
#: the board a node in direct sunlight actually sustains
LOW_POWER_TX1 = replace(
    TX1,
    name="NVIDIA Jetson TX1 (low-power)",
    frequency_hz=TX1.frequency_hz * 0.6,
    peak_power_w=10.0,
)

#: device classes a profile may draw from
_DEVICES: dict[str, GPUSpec] = {
    "tx1": TX1,
    "tx1-lowpower": LOW_POWER_TX1,
}

#: link classes a profile may draw from
_LINKS: dict[str, NetworkLink] = {
    "wifi": WIFI,
    "lte": LTE,
}


@dataclass(frozen=True)
class NodeProfile:
    """One node's identity inside the fleet."""

    node_id: int
    device_kind: str  # "tx1" | "tx1-lowpower"
    link_kind: str  # "wifi" | "lte"
    severities: tuple[float, ...]  # per-stage drift severity
    seed: int  # all node-local randomness derives from this

    def __post_init__(self) -> None:
        if self.device_kind not in _DEVICES:
            raise ValueError(
                f"unknown device {self.device_kind!r}; "
                f"available: {sorted(_DEVICES)}"
            )
        if self.link_kind not in _LINKS:
            raise ValueError(
                f"unknown link {self.link_kind!r}; available: {sorted(_LINKS)}"
            )
        if any(s < 0 for s in self.severities):
            raise ValueError("severities must be >= 0")

    @property
    def device(self) -> GPUSpec:
        return _DEVICES[self.device_kind]

    @property
    def link(self) -> NetworkLink:
        return _LINKS[self.link_kind]


@dataclass(frozen=True)
class FleetScenario:
    """A fleet of heterogeneous nodes around one base :class:`Scenario`.

    The base scenario fixes everything node-independent (schedule, model
    sizes, training hyper-parameters); the fleet knobs control how much the
    N nodes differ from each other and how the update scheduler behaves.
    """

    base: Scenario = field(default_factory=Scenario)
    num_nodes: int = 4
    lte_fraction: float = 0.5  # fraction of nodes on LTE instead of WiFi
    low_power_fraction: float = 0.25  # fraction on the throttled TX1
    severity_jitter: float = 0.1  # per-node drift-severity spread
    scheduler_policy: str = "per-stage"  # see fleet.scheduler
    upload_threshold: int = 64  # images pooled before a threshold update
    canary_fraction: float = 0.25  # fraction of nodes updated first
    max_regression: float = 0.02  # guard tolerance for canary promotion
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("fleet needs at least one node")
        for name in ("lte_fraction", "low_power_fraction", "canary_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.severity_jitter < 0:
            raise ValueError("severity_jitter must be >= 0")
        if self.seed < 0:
            # numpy's SeedSequence would refuse it later, deep in a run
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")

    def profiles(self) -> list[NodeProfile]:
        """Deterministically expand the seed into N node profiles.

        Link and device classes are assigned by quota (exact fractions, not
        sampling) so small fleets still contain every class the fractions
        ask for; drift severities jitter around the base scenario's
        schedule per node.
        """
        rng = np.random.default_rng(self.seed)
        base_sev = self.base.severities
        if base_sev is None:
            base_sev = default_severities(len(self.base.schedule_k))
        num_lte = int(round(self.lte_fraction * self.num_nodes))
        num_low = int(round(self.low_power_fraction * self.num_nodes))
        link_kinds = ["lte"] * num_lte + ["wifi"] * (self.num_nodes - num_lte)
        device_kinds = ["tx1-lowpower"] * num_low + ["tx1"] * (
            self.num_nodes - num_low
        )
        rng.shuffle(link_kinds)
        rng.shuffle(device_kinds)
        profiles = []
        for node_id in range(self.num_nodes):
            jitter = rng.uniform(
                -self.severity_jitter, self.severity_jitter, len(base_sev)
            )
            severities = tuple(
                float(np.clip(s + j, 0.05, 0.95))
                for s, j in zip(base_sev, jitter)
            )
            profiles.append(
                NodeProfile(
                    node_id=node_id,
                    device_kind=device_kinds[node_id],
                    link_kind=link_kinds[node_id],
                    severities=severities,
                    seed=int(
                        rng.integers(0, np.iinfo(np.int32).max)
                    ),
                )
            )
        return profiles
