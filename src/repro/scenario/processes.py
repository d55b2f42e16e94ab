"""Seeded scenario processes: churn, class phases, and head groups.

Each plan is a *pure function of the spec and the fleet seed*, fully
materialized before the engine starts.  That is what lets the barrier
and async modes agree on the plan: they consume identical precomputed
plans instead of sampling mid-run, so engine-internal event ordering can
never perturb who crashes, which classes arrive, or which nodes share a
head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fleet.profiles import NodeProfile
from repro.scenario.schema import (
    ChurnSpec,
    ClassIncrementalSpec,
    HeadSpec,
    ScenarioSpec,
)

__all__ = [
    "ChurnPlan",
    "ClassPhasePlan",
    "HeadGroupPlan",
    "ScenarioPlans",
    "build_plans",
]

#: salt mixed into the churn SeedSequence so churn draws never collide
#: with node/cloud streams derived from the same scenario seed
_CHURN_SALT = 99991


@dataclass(frozen=True)
class ChurnPlan:
    """Materialized crash/rejoin timetable: ``down[node][stage]``."""

    down: tuple[tuple[bool, ...], ...]

    @classmethod
    def build(
        cls, spec: ChurnSpec, *, num_nodes: int, num_stages: int, seed: int
    ) -> "ChurnPlan":
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, _CHURN_SALT))
        )
        down = [[False] * num_stages for _ in range(num_nodes)]
        # Stage 0 always runs the full fleet: initialization needs every
        # node's first uploads, matching cloud_initialize's contract.
        for stage in range(1, num_stages):
            for node in range(num_nodes):
                if down[node][stage]:
                    continue
                if rng.random() >= spec.rate:
                    continue
                outage = int(rng.integers(1, spec.max_outage_stages + 1))
                outage = min(outage, num_stages - stage)
                window = range(stage, stage + outage)
                # Never let a crash empty a stage: the cloud needs at
                # least one alive node to pool uploads from.
                if any(
                    sum(
                        1
                        for other in range(num_nodes)
                        if other != node and not down[other][s]
                    )
                    < 1
                    for s in window
                ):
                    continue
                for s in window:
                    down[node][s] = True
        return cls(down=tuple(tuple(row) for row in down))

    def alive(self, node: int, stage: int) -> bool:
        return not self.down[node][stage]


@dataclass(frozen=True)
class ClassPhasePlan:
    """Which class ids the stream may draw from at each stage."""

    groups: tuple[tuple[int, ...], ...]
    phase_stages: tuple[int, ...]

    @classmethod
    def build(cls, spec: ClassIncrementalSpec) -> "ClassPhasePlan":
        return cls(groups=spec.groups, phase_stages=spec.phase_stages)

    def phase_index(self, stage: int) -> int:
        idx = 0
        for k, start in enumerate(self.phase_stages):
            if stage >= start:
                idx = k
        return idx

    def phase_name(self, stage: int) -> str:
        return f"p{self.phase_index(stage)}"

    def allowed(self, stage: int) -> tuple[int, ...]:
        upto = self.phase_index(stage)
        classes: list[int] = []
        for group in self.groups[: upto + 1]:
            classes.extend(group)
        return tuple(sorted(classes))

    def schedule(self, num_stages: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.allowed(s) for s in range(num_stages))


@dataclass(frozen=True)
class HeadGroupPlan:
    """Deterministic node -> head-group assignment by drift profile."""

    assignment: tuple[int, ...]
    num_groups: int

    @classmethod
    def build(
        cls, spec: HeadSpec, profiles: list[NodeProfile]
    ) -> "HeadGroupPlan":
        # Nodes with similar drift exposure share a head: order by mean
        # severity (rounded so float noise cannot flip the sort), then by
        # node id for a total order, and chunk contiguously.
        order = sorted(
            range(len(profiles)),
            key=lambda i: (
                round(float(np.mean(profiles[i].severities)), 6),
                profiles[i].node_id,
            ),
        )
        assignment = [0] * len(profiles)
        chunk = -(-len(profiles) // spec.num_groups)  # ceil division
        for pos, node in enumerate(order):
            assignment[node] = min(pos // chunk, spec.num_groups - 1)
        return cls(assignment=tuple(assignment), num_groups=spec.num_groups)

    def group_of(self, node: int) -> int:
        return self.assignment[node]

    def members(self, group: int) -> tuple[int, ...]:
        return tuple(
            i for i, g in enumerate(self.assignment) if g == group
        )


@dataclass(frozen=True)
class ScenarioPlans:
    """The three composable processes, each optional."""

    churn: ChurnPlan | None
    phases: ClassPhasePlan | None
    heads: HeadGroupPlan | None

    def phase_name(self, stage: int) -> str | None:
        if self.phases is None:
            return None
        return self.phases.phase_name(stage)


def build_plans(
    spec: ScenarioSpec, profiles: list[NodeProfile]
) -> ScenarioPlans:
    """Materialize every configured process for one replicate."""
    churn = None
    if spec.churn is not None:
        churn = ChurnPlan.build(
            spec.churn,
            num_nodes=spec.fleet.num_nodes,
            num_stages=spec.num_stages,
            seed=spec.fleet.seed,
        )
    phases = None
    if spec.class_incremental is not None:
        phases = ClassPhasePlan.build(spec.class_incremental)
    heads = None
    if spec.heads is not None:
        heads = HeadGroupPlan.build(spec.heads, profiles)
    return ScenarioPlans(churn=churn, phases=phases, heads=heads)
