"""Every committed scenario loads, and absent keys take dataclass defaults.

``load_spec`` passes only the keys a file sets into the spec dataclasses,
so a spec that sets nothing optional must equal the dataclasses' own
defaults — each default is written down once, on its dataclass.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fleet.profiles import FleetScenario
from repro.scenario.schema import (
    ChurnSpec,
    ClassIncrementalSpec,
    HeadSpec,
    ReplicatesSpec,
    load_spec,
    load_spec_file,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

#: only the required keys of every section
REQUIRED_ONLY = """\
scenario:
  name: required-only
fleet:
  nodes: 3
processes:
  churn:
    rate: 0.3
  class_incremental:
    groups:
      - [0, 1]
      - [2, 3]
    phase_stages: [0, 2]
  per_node_heads:
    groups: 2
replicates:
  count: 1
"""


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.yaml")), ids=lambda p: p.name
)
def test_every_example_scenario_loads(path):
    spec = load_spec_file(path)
    assert spec.name
    assert spec.fleet.num_nodes >= 1


def test_example_directory_is_not_empty():
    assert len(sorted(EXAMPLES.glob("*.yaml"))) >= 4


class TestRequiredOnlySpec:
    @pytest.fixture(scope="class")
    def spec(self):
        return load_spec(REQUIRED_ONLY, filename="required.yaml")

    def test_header_defaults(self, spec):
        assert (spec.description, spec.seed, spec.engine, spec.barrier) == (
            "",
            0,
            "lockstep",
            True,
        )

    def test_fleet_equals_dataclass_defaults(self, spec):
        assert spec.fleet == FleetScenario(
            base=spec.fleet.base, num_nodes=3, seed=0
        )

    def test_process_specs_equal_dataclass_defaults(self, spec):
        assert spec.churn == ChurnSpec(rate=0.3)
        assert spec.heads == HeadSpec(num_groups=2)
        assert spec.class_incremental == ClassIncrementalSpec(
            groups=((0, 1), (2, 3)), phase_stages=(0, 2)
        )

    def test_replicates_section_with_defaults_only(self, spec):
        assert spec.replicates == ReplicatesSpec()

    def test_absent_replicates_section(self):
        text = REQUIRED_ONLY.split("processes:")[0]
        assert load_spec(text).replicates == ReplicatesSpec()

    def test_set_keys_override_defaults(self):
        text = REQUIRED_ONLY.replace(
            "  nodes: 3\n", "  nodes: 3\n  canary_fraction: 0.5\n  policy: threshold\n"
        )
        fleet = load_spec(text).fleet
        assert fleet.canary_fraction == 0.5
        assert fleet.scheduler_policy == "threshold"
        assert fleet.lte_fraction == FleetScenario().lte_fraction
