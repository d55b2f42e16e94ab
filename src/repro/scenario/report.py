"""Scenario run reports: one replicate's outcome and its per-stage view.

:class:`~repro.scenario.event.ScenarioEventHooks` fills one
:class:`ScenarioReport` as the run goes (a :class:`ScenarioStageInfo`
per closed round, every head update) and
:func:`~repro.scenario.event.run_scenario_event` adds the final-model
evaluations after the last round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.registry import ModelRegistry
from repro.scenario.heads import HeadUpdate
from repro.scenario.schema import ScenarioSpec

__all__ = ["ScenarioStageInfo", "ScenarioReport"]


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
