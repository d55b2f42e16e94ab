"""Churn meets the canary guard: rejoins only ever see promoted models.

Seed 12's churn plan downs node 1 for stages 1-2 (both promote) and
rejoins it at stage 3.  Poisoning the non-canary uploads of stage 2
(labels shifted, canary data left clean, ``max_regression: 0``) makes
the stage-3 candidate fail its canary — so the run contains, in one
trajectory: missed canary pushes, a reconciliation to the promoted
active version, and a rejected candidate that must never surface as a
registry version or a reconcile target.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.fleet.uplink import model_state_bytes
from repro.scenario import (
    load_spec,
    prepare_scenario_assets,
    run_scenario_event,
)

YAML = """\
scenario:
  name: rollback-rejoin
  seed: 12
fleet:
  nodes: 3
  stages: 4
  max_regression: 0.0
  base:
    stream_scale: 0.02
    pretrain_images: 32
    pretrain_epochs: 1
    init_epochs: 2
    update_epochs: 2
    eval_images: 32
processes:
  churn:
    rate: 0.5
"""


def poison_stage(assets, stage: int, num_classes: int, skip: set[int]):
    """Shift every label of the non-canary uploads at ``stage``."""
    node_stages = []
    for i, row0 in enumerate(assets.node_stages):
        row = list(row0)
        if i not in skip:
            st = row[stage]
            bad = dataclasses.replace(
                st.new_data, labels=(st.new_data.labels + 1) % num_classes
            )
            row[stage] = dataclasses.replace(st, new_data=bad)
        node_stages.append(row)
    return dataclasses.replace(assets, node_stages=node_stages)


@pytest.fixture(scope="module")
def report():
    """The run an ``engine: lockstep`` spec gets: the event barrier mode."""
    spec = load_spec(YAML, filename="rollback.yaml")
    assets = prepare_scenario_assets(spec)
    assets = poison_stage(
        assets, 2, spec.fleet.base.num_classes, skip=set(assets.canary_ids)
    )
    return run_scenario_event(spec, assets=assets, barrier=True)


class TestRejoinAfterRollback:
    def test_the_shape_this_test_depends_on(self, report):
        # pin the seed-12 plan so a churn-model change that invalidates
        # the premise fails loudly instead of vacuously passing
        assert [i.alive for i in report.stage_info] == [
            (0, 1, 2),
            (0, 2),
            (0, 2),
            (0, 1, 2),
        ]
        assert [(r.stage_index, r.promoted) for r in report.fleet.rollouts] == [
            (1, True),
            (2, True),
            (3, False),
        ]

    def test_rejected_candidate_never_becomes_a_version(self, report):
        # v1 init + one version per promotion; nothing for the rejected
        # stage-3 candidate
        assert [v.version for v in report.registry.versions()] == [1, 2, 3]
        assert report.registry.active.version == 3

    def test_rejoining_node_reconciles_to_the_promoted_active(self, report):
        rejoin = report.stage_info[3]
        assert rejoin.reconciled == (1,)
        # a full-model catch-up download of exactly the active version
        assert rejoin.reconcile_bytes == model_state_bytes(
            report.registry.active.state
        )
        # nothing reconciled while the node was down
        assert all(not info.reconciled for info in report.stage_info[:3])

    def test_downed_node_missed_the_canary_windows(self, report):
        for rollout in report.fleet.rollouts:
            assert 1 not in rollout.canary_ids
