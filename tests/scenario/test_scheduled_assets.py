"""Class-scheduled fleet assets: streams follow the phase plan.

``prepare_scenario_assets`` hands the phase plan's per-stage allowed
classes to ``prepare_fleet_assets``; every node's stream then draws only
the classes unlocked at each stage, while the eval set keeps the full
label space.  The schedule is part of the node-stream cache key, so a
plain fleet run over the same profiles never receives scheduled streams.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.simulation import prepare_fleet_assets
from repro.scenario.processes import ClassPhasePlan


def _schedule(spec):
    plan = ClassPhasePlan.build(spec.class_incremental)
    return plan.schedule(spec.num_stages)


def test_streams_draw_only_unlocked_classes(tiny_spec, tiny_assets):
    schedule = _schedule(tiny_spec)
    assert schedule[0] == (0, 1) and schedule[-1] == (0, 1, 2, 3)
    for stages in tiny_assets.node_stages:
        assert len(stages) == len(schedule)
        for stage, allowed in zip(stages, schedule):
            labels = set(np.unique(stage.new_data.labels).tolist())
            assert labels <= set(allowed), (stage.index, labels, allowed)
    late = np.concatenate(
        [s[-1].new_data.labels for s in tiny_assets.node_stages]
    )
    assert set(np.unique(late).tolist()) & {2, 3}


def test_eval_set_keeps_full_label_space(tiny_spec, tiny_assets):
    num_classes = tiny_spec.fleet.base.num_classes
    labels = np.unique(tiny_assets.eval_data.labels).tolist()
    assert labels == list(range(num_classes))


def test_schedule_is_part_of_the_stream_cache_key(tiny_spec, tiny_assets):
    plain = prepare_fleet_assets(tiny_spec.fleet)
    first = np.concatenate([s[0].new_data.labels for s in plain.node_stages])
    assert set(np.unique(first).tolist()) & {2, 3}
    again = prepare_fleet_assets(
        tiny_spec.fleet, class_schedule=_schedule(tiny_spec)
    )
    for got, want in zip(again.node_stages, tiny_assets.node_stages):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.new_data.labels, b.new_data.labels)
            np.testing.assert_array_equal(a.new_data.images, b.new_data.images)
    assert plain.eval_data.labels.tolist() == tiny_assets.eval_data.labels.tolist()
