"""Scenario run reports and the scenario-level state of one run.

:class:`ScenarioState` holds every scenario-level decision (who is
alive, what a rejoining node downloads, which heads were accepted, the
per-stage info); the event hooks in :mod:`repro.scenario.event` only
move the resulting bytes through time.  :func:`configure_cloud` runs
right after the runtime is built and :func:`finalize_report` after the
last round, so every RNG stream they touch advances in one fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.registry import ModelRegistry
from repro.core.systems import system_by_id
from repro.fleet.simulation import FleetAssets, FleetRuntime, build_fleet_runtime
from repro.obs.trace import Tracer
from repro.scenario.assets import prepare_scenario_assets
from repro.scenario.heads import HeadUpdate, build_head_net, run_head_updates
from repro.scenario.processes import ScenarioPlans, build_plans
from repro.scenario.schema import ScenarioSpec
from repro.transfer.finetune import evaluate, evaluate_on_classes
from repro.transfer.incremental import ReplayBuffer

__all__ = [
    "ScenarioStageInfo",
    "ScenarioReport",
    "ScenarioState",
    "configure_cloud",
    "finalize_report",
]

#: seed-sequence salt for the exemplar replay buffer's reservoir RNG
_REPLAY_SALT = 77171


@dataclass(frozen=True)
class ScenarioStageInfo:
    """Scenario-level view of one stage (one event-engine round)."""

    stage_index: int
    phase: str | None  # class-incremental phase name, if that process runs
    alive: tuple[int, ...]  # node ids that participated
    reconciled: tuple[int, ...]  # rejoined nodes that re-downloaded a model
    reconcile_bytes: int  # total stale-version catch-up download bytes
    head_versions: tuple[int, ...]  # head-track versions published this stage


@dataclass
class ScenarioReport:
    """Full outcome of one scenario replicate."""

    spec: ScenarioSpec
    mode: str  # "event" | "event-barrier"
    fleet: object  # FleetEventReport
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

    Must be called right after :func:`build_fleet_runtime`: the replay
    buffer's RNG is seeded here, so call order is part of the
    determinism contract.
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


class ScenarioState:
    """Scenario-level state of one run, behind the event hooks."""

    def __init__(self, spec, plans, assets, runtime, report, tracer) -> None:
        self.spec = spec
        self.plans = plans
        self.assets = assets
        self.runtime = runtime
        self.report = report
        self.tracer = tracer
        self.profiles = assets.profiles
        self.index_of = {p.node_id: i for i, p in enumerate(self.profiles)}
        self.system_id = runtime.config.system_id
        self.head_net = build_head_net(spec) if spec.heads is not None else None
        # Main-track version each node's trunk is based on (0 = the
        # pre-registry warm-start state every node boots with).
        self.node_version = [0] * len(self.profiles)
        # group -> (base main version, merged full state) of the latest
        # accepted head, so rejoining members reconcile to their own head.
        self.group_state: dict[int, tuple[int, dict]] = {}
        #: stage -> {node index: bytes} of rejoin catch-up downloads
        self.caught_up: dict[int, dict[int, int]] = {}
        #: head-track versions published by the stage now closing
        self.head_versions: list[int] = []

    @classmethod
    def open(cls, spec, assets, *, mode: str, tracer) -> "ScenarioState":
        """Everything a run builds before the engine starts, in one order.

        Plans, runtime, :func:`configure_cloud` (right after the runtime:
        the replay buffer's RNG is seeded there) and the empty report.
        """
        if assets is None:
            assets = prepare_scenario_assets(spec)
        plans = build_plans(spec, assets.profiles)
        runtime = build_fleet_runtime(system_by_id("d"), assets)
        configure_cloud(runtime, spec)
        report = ScenarioReport(
            spec=spec, mode=mode, fleet=None, registry=runtime.registry
        )
        if tracer is None:
            tracer = Tracer(enabled=False)
        return cls(spec, plans, assets, runtime, report, tracer)

    def alive(self, i: int, s: int) -> bool:
        churn = self.plans.churn
        return churn is None or churn.alive(i, s)

    def phase_attrs(self, s: int) -> dict:
        """The ``phase`` trace attribute of stage ``s``, when phases run."""
        phase = self.plans.phase_name(s)
        return {} if phase is None else {"phase": phase}

    def reconcile_target(self, i: int):
        """``(version, state)`` node ``i`` must download first, or ``None``.

        A node that slept through a promotion holds a stale version; it
        catches up to the current model — its group head when one exists
        for the active version — before computing.
        """
        registry = self.runtime.registry
        active_version = registry.active.version if len(registry) else 0
        if self.node_version[i] == active_version:
            return None
        target = (
            registry.active.state if len(registry) else self.assets.initial_state
        )
        if self.plans.heads is not None:
            held = self.group_state.get(self.plans.heads.group_of(i))
            if held is not None and held[0] == active_version:
                target = held[1]
        return active_version, target

    def reconciled(self, i: int, s: int, version: int, num_bytes: int) -> None:
        """Node ``i`` finished its stage-``s`` catch-up download."""
        self.node_version[i] = version
        self.caught_up.setdefault(s, {})[i] = num_bytes

    def accept_heads(self, s: int, alive_ids: tuple[int, ...], outcome) -> list:
        """Note the landed main-track pushes; specialize heads on a promotion.

        Returns the accepted :class:`HeadUpdate` s (state attached), whose
        head bytes the caller still has to move to ``member_ids``.
        """
        registry = self.runtime.registry
        active_version = registry.active.version
        for node_id, num_bytes in outcome.push_bytes_per_node.items():
            if num_bytes:
                self.node_version[self.index_of[node_id]] = active_version
        accepted = []
        if outcome.promoted and self.spec.heads is not None:
            for update in run_head_updates(
                self.spec,
                self.plans,
                self.assets,
                registry,
                self.head_net,
                stage_index=s,
                alive_ids=alive_ids,
            ):
                # The archived copy drops the merged weights.
                self.report.head_updates.append(replace(update, state=None))
                if update.accepted:
                    self.group_state[update.group] = (
                        active_version,
                        update.state,
                    )
                    accepted.append(update)
        self.head_versions = [update.version for update in accepted]
        return accepted

    def close_stage(self, s: int, alive_ids: tuple[int, ...], at_s: float) -> None:
        """Stage info and the ``scenario/stage`` event."""
        caught_up = dict(sorted(self.caught_up.pop(s, {}).items()))
        attrs = self.phase_attrs(s)
        reconcile_bytes = sum(caught_up.values())
        self.report.stage_info.append(
            ScenarioStageInfo(
                stage_index=s,
                phase=attrs.get("phase"),
                alive=alive_ids,
                reconciled=tuple(self.profiles[i].node_id for i in caught_up),
                reconcile_bytes=reconcile_bytes,
                head_versions=tuple(self.head_versions),
            )
        )
        self.tracer.event(
            "scenario",
            "stage",
            at_s,
            stage=s,
            system=self.system_id,
            alive=len(alive_ids),
            reconciled=len(caught_up),
            **attrs,
        )


def finalize_report(
    report: ScenarioReport,
    runtime: FleetRuntime,
    assets: FleetAssets,
    plans: ScenarioPlans,
) -> None:
    """Final-model evaluations (RNG-free)."""
    spec = report.spec
    registry = runtime.registry
    net = runtime.cloud.inference_net
    net.load_state_dict(registry.active.state)
    report.final_eval_accuracy = runtime.eval_accuracy(assets.eval_data)
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
