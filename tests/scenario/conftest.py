"""Shared tiny scenario: all three processes composed, run once per mode.

The expensive fixtures are session-scoped — the churn and head tests all
read the same two reports (event-barrier, the mode ``engine: lockstep``
runs, and event-async) instead of re-running the fleet per test.
"""

from __future__ import annotations

import pytest

from repro.scenario import (
    load_spec,
    prepare_scenario_assets,
    run_scenario_event,
)

#: 3 nodes x 4 stages with churn + class phases + per-node heads — the
#: smallest spec where every scenario process visibly fires (nodes go
#: down, a phase boundary lands mid-run, and both head groups publish).
TINY_ALL_YAML = """\
scenario:
  name: tiny-all
  seed: 3
  engine: lockstep
  barrier: true

fleet:
  nodes: 3
  stages: 4
  base:
    stream_scale: 0.02
    pretrain_images: 32
    pretrain_epochs: 1
    init_epochs: 2
    update_epochs: 1
    eval_images: 32

processes:
  churn:
    rate: 0.4
  class_incremental:
    groups:
      - [0, 1]
      - [2, 3]
    phase_stages: [0, 2]
    exemplar_capacity: 32
  per_node_heads:
    groups: 2
    epochs: 1

replicates:
  count: 2
  bootstrap_samples: 50
"""


@pytest.fixture(scope="session")
def tiny_spec():
    return load_spec(TINY_ALL_YAML, filename="tiny.yaml")


@pytest.fixture(scope="session")
def tiny_assets(tiny_spec):
    return prepare_scenario_assets(tiny_spec)


@pytest.fixture(scope="session")
def event_barrier_report(tiny_spec, tiny_assets):
    return run_scenario_event(tiny_spec, assets=tiny_assets, barrier=True)


@pytest.fixture(scope="session")
def event_async_report(tiny_spec, tiny_assets):
    return run_scenario_event(tiny_spec, assets=tiny_assets, barrier=False)
