"""Materialized process plans: pure functions of (spec, seed).

Both engines consume these plans as data, so the invariants that keep a
run well-formed live here: stage 0 never loses a node, no stage ever
empties, phases partition the stage axis, and head groups partition the
fleet — all reproducible from the seed alone.
"""

from __future__ import annotations

from repro.fleet import prepare_fleet_assets
from repro.scenario import build_plans, load_spec
from repro.scenario.processes import ChurnPlan, ClassPhasePlan, HeadGroupPlan
from repro.scenario.schema import ChurnSpec, ClassIncrementalSpec, HeadSpec


def churn(seed: int, *, rate=0.5, nodes=4, stages=6, max_outage=2):
    return ChurnPlan.build(
        ChurnSpec(rate=rate, max_outage_stages=max_outage),
        num_nodes=nodes,
        num_stages=stages,
        seed=seed,
    )


class TestChurnPlan:
    def test_deterministic_in_seed(self):
        assert churn(3) == churn(3)
        assert any(churn(s) != churn(s + 1) for s in range(5))

    def test_stage_zero_never_down(self):
        for seed in range(20):
            plan = churn(seed)
            assert all(plan.alive(node, 0) for node in range(4))

    def test_every_stage_keeps_one_alive(self):
        for seed in range(20):
            plan = churn(seed, rate=0.9)
            for stage in range(6):
                assert any(
                    plan.alive(node, stage) for node in range(4)
                ), f"seed {seed} stage {stage}"

    def test_full_rate_still_leaves_survivors(self):
        # even at rate 1.0 the plan refuses any crash that would empty a
        # stage, so the cloud always has uploads to pool
        for seed in range(10):
            plan = churn(seed, rate=1.0)
            for stage in range(6):
                assert any(plan.alive(node, stage) for node in range(4))

    def test_zero_rate_means_nobody_crashes(self):
        assert not any(any(row) for row in churn(5, rate=0.0).down)


class TestClassPhasePlan:
    def plan(self):
        return ClassPhasePlan.build(
            ClassIncrementalSpec(
                groups=((0, 1), (2, 3)),
                phase_stages=(0, 2),
                exemplar_capacity=32,
                distill_weight=1.0,
                temperature=2.0,
            )
        )

    def test_phase_boundaries(self):
        plan = self.plan()
        assert [plan.phase_index(s) for s in range(4)] == [0, 0, 1, 1]
        assert plan.phase_name(3) == "p1"

    def test_allowed_classes_accumulate(self):
        plan = self.plan()
        assert plan.allowed(0) == (0, 1)
        assert plan.allowed(1) == (0, 1)
        assert plan.allowed(2) == (0, 1, 2, 3)

    def test_schedule_is_per_stage_allowed_tuple(self):
        plan = self.plan()
        assert plan.schedule(4) == (
            (0, 1),
            (0, 1),
            (0, 1, 2, 3),
            (0, 1, 2, 3),
        )


class TestHeadGroupPlan:
    def test_groups_partition_the_fleet(self, tiny_spec, tiny_assets):
        plan = HeadGroupPlan.build(
            HeadSpec(num_groups=2, epochs=1),
            tiny_assets.profiles,
        )
        members = [plan.members(g) for g in range(2)]
        assert all(members)
        flat = sorted(i for group in members for i in group)
        assert flat == list(range(len(tiny_assets.profiles)))
        for g, group in enumerate(members):
            for node in group:
                assert plan.group_of(node) == g


class TestBuildPlans:
    def test_plans_cover_exactly_the_configured_processes(
        self, tiny_spec, tiny_assets
    ):
        plans = build_plans(tiny_spec, tiny_assets.profiles)
        assert plans.churn is not None
        assert plans.phases is not None
        assert plans.heads is not None

    def test_absent_processes_stay_none(self):
        spec = load_spec(
            "scenario:\n  name: flat\nfleet:\n  nodes: 2\n  stages: 2\n"
        )
        assets = prepare_fleet_assets(spec.fleet)
        plans = build_plans(spec, assets.profiles)
        assert (plans.churn, plans.phases, plans.heads) == (None, None, None)
        assert plans.phase_name(0) is None
