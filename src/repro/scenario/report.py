"""Scenario run reports and the helpers both engines share.

The engine-agnostic pieces live here on purpose: the lockstep hooks and
the event engine must call :func:`configure_cloud` and
:func:`finalize_report` in the same order with the same arguments, so
every RNG stream they touch advances identically — that is the
mechanism behind the lockstep ≡ event-barrier equivalence the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.registry import ModelRegistry
from repro.data.datasets import Dataset
from repro.fleet.simulation import FleetAssets, FleetRuntime
from repro.scenario.heads import HeadUpdate
from repro.scenario.processes import ScenarioPlans
from repro.scenario.schema import ScenarioSpec
from repro.transfer.finetune import evaluate, evaluate_on_classes
from repro.transfer.incremental import ReplayBuffer

__all__ = [
    "ScenarioStageInfo",
    "ScenarioReport",
    "configure_cloud",
    "canary_pool",
    "strip_state",
    "finalize_report",
]

#: seed-sequence salt for the exemplar replay buffer's reservoir RNG
_REPLAY_SALT = 77171


@dataclass(frozen=True)
class ScenarioStageInfo:
    """Scenario-level view of one stage, identical across engines."""

    stage_index: int
    phase: str | None  # class-incremental phase name, if that process runs
    alive: tuple[int, ...]  # node ids that participated
    reconciled: tuple[int, ...]  # rejoined nodes that re-downloaded a model
    reconcile_bytes: int  # total stale-version catch-up download bytes
    head_versions: tuple[int, ...]  # head-track versions published this stage


@dataclass
class ScenarioReport:
    """Full outcome of one scenario replicate on either engine."""

    spec: ScenarioSpec
    mode: str  # "lockstep" | "event" | "event-barrier"
    fleet: object  # FleetReport or FleetEventReport
    registry: ModelRegistry
    stage_info: list[ScenarioStageInfo] = field(default_factory=list)
    head_updates: list[HeadUpdate] = field(default_factory=list)
    final_eval_accuracy: float = 0.0
    #: final active model's accuracy on eval images of each class group
    phase_accuracies: dict[str, float] = field(default_factory=dict)
    #: each group's latest specialized head on the full eval set
    head_accuracies: dict[str, float] = field(default_factory=dict)

    @property
    def promotions(self) -> int:
        return sum(1 for r in self.fleet.rollouts if r.promoted)

    @property
    def rejections(self) -> int:
        return sum(1 for r in self.fleet.rollouts if not r.promoted)

    @property
    def reconciliations(self) -> int:
        return sum(len(info.reconciled) for info in self.stage_info)

    @property
    def total_reconcile_bytes(self) -> int:
        return sum(info.reconcile_bytes for info in self.stage_info)

    def head_version_map(self) -> dict[int, tuple[int, ...]]:
        """Registry versions per head group, in publish order."""
        by_group: dict[int, list[int]] = {}
        for update in self.head_updates:
            if update.version is not None:
                by_group.setdefault(update.group, []).append(update.version)
        return {g: tuple(v) for g, v in sorted(by_group.items())}


def configure_cloud(runtime: FleetRuntime, spec: ScenarioSpec) -> None:
    """Arm the cloud's class-incremental machinery, if configured.

    Must be called right after :func:`build_fleet_runtime` in both
    engines: the replay buffer's RNG is seeded here, so call order is
    part of the determinism contract.
    """
    ci = spec.class_incremental
    if ci is None:
        return
    cloud = runtime.cloud
    cloud.distill_weight = ci.distill_weight
    cloud.distill_temperature = ci.temperature
    cloud.exemplar_buffer = ReplayBuffer(
        ci.exemplar_capacity,
        rng=np.random.default_rng(
            np.random.SeedSequence((spec.fleet.seed, _REPLAY_SALT))
        ),
    )


def canary_pool(
    assets: FleetAssets, stage_index: int, canaries: tuple[int, ...]
) -> Dataset:
    """Fresh stage data of the canary nodes (validation set for the guard)."""
    return Dataset.concat(
        [assets.node_stages[i][stage_index].new_data for i in canaries]
    )


def strip_state(update: HeadUpdate) -> HeadUpdate:
    """Drop the merged weights before archiving an update in the report."""
    return replace(update, state=None)


def finalize_report(
    report: ScenarioReport,
    runtime: FleetRuntime,
    assets: FleetAssets,
    plans: ScenarioPlans,
) -> None:
    """Final-model evaluations shared by both engines (RNG-free)."""
    spec = report.spec
    registry = runtime.registry
    net = runtime.cloud.inference_net
    net.load_state_dict(registry.active.state)
    report.final_eval_accuracy = float(evaluate(net, assets.eval_data))
    if plans.phases is not None:
        for k, group in enumerate(plans.phases.groups):
            report.phase_accuracies[f"p{k}"] = float(
                evaluate_on_classes(net, assets.eval_data, group)
            )
    if spec.heads is not None and plans.heads is not None:
        for group in range(plans.heads.num_groups):
            latest = registry.latest(f"head-{group}")
            if latest is None:
                continue
            net.load_state_dict(latest.state)
            report.head_accuracies[f"head-{group}"] = float(
                evaluate(net, assets.eval_data)
            )
        net.load_state_dict(registry.active.state)
