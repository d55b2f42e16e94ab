"""Scenario DSL validation: defaults, process parsing, anchored errors."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import ScenarioError, load_spec
from repro.scenario.schema import load_spec_file

FULL_SPEC = (
    Path(__file__).resolve().parents[2] / "examples/scenarios/full_insitu.yaml"
).read_bytes()

MINIMAL = """\
scenario:
  name: bare
fleet:
  nodes: 2
  stages: 3
"""


class TestDefaults:
    def test_minimal_spec_fills_defaults(self):
        spec = load_spec(MINIMAL)
        assert spec.name == "bare"
        assert spec.engine == "lockstep"
        assert spec.barrier is True  # the reproducible event mode is default
        assert spec.processes == ()
        assert spec.fleet.num_nodes == 2
        assert spec.num_stages == 3
        assert spec.replicates.count == 1

    def test_base_defaults_are_fleet_sized(self):
        # fleet.base rides on fleet_base_scenario, not the raw Scenario
        # dataclass: 4 classes, fleet-sized stream knobs
        spec = load_spec(MINIMAL)
        assert spec.fleet.base.num_classes == 4

    def test_seed_threads_into_fleet_and_base(self):
        spec = load_spec(MINIMAL + "\nreplicates:\n  count: 1\n")
        assert spec.fleet.seed == spec.seed
        assert spec.fleet.base.seed == spec.seed

    def test_processes_tuple_orders_by_section(self):
        text = (
            MINIMAL
            + "processes:\n"
            + "  churn:\n"
            + "    rate: 0.2\n"
            + "  per_node_heads:\n"
            + "    groups: 2\n"
        )
        spec = load_spec(text)
        assert spec.processes == ("churn", "per_node_heads")


class TestAnchoredErrors:
    def check(self, text: str, line: int, fragment: str, filename="s.yaml"):
        with pytest.raises(ScenarioError) as exc:
            load_spec(text, filename=filename)
        message = str(exc.value)
        assert message.startswith(f"{filename}:{line}:"), message
        assert fragment in message

    def test_unknown_scenario_key(self):
        self.check(
            "scenario:\n  name: x\n  enginee: event\nfleet:\n  nodes: 2\n  stages: 2\n",
            3,
            "enginee",
        )

    def test_unknown_base_field(self):
        text = (
            "scenario:\n  name: x\nfleet:\n  nodes: 2\n  stages: 2\n"
            "  base:\n    stream_scales: 0.1\n"
        )
        self.check(text, 7, "unknown Scenario field")

    def test_base_seed_is_rejected(self):
        text = (
            "scenario:\n  name: x\nfleet:\n  nodes: 2\n  stages: 2\n"
            "  base:\n    seed: 9\n"
        )
        self.check(text, 7, "scenario.seed")

    def test_class_groups_must_cover_classes(self):
        text = (
            "scenario:\n  name: x\nfleet:\n  nodes: 2\n  stages: 2\n"
            "processes:\n"
            "  class_incremental:\n"
            "    groups:\n"
            "      - [0, 1]\n"
            "    phase_stages: [0]\n"
        )
        self.check(text, 9, "missing [2, 3]")

    def test_phase_stages_must_increase(self):
        text = (
            "scenario:\n  name: x\nfleet:\n  nodes: 2\n  stages: 3\n"
            "processes:\n"
            "  class_incremental:\n"
            "    groups:\n"
            "      - [0, 1]\n"
            "      - [2, 3]\n"
            "    phase_stages: [0, 0]\n"
        )
        self.check(text, 11, "strictly increasing")

    def test_barrier_false_contradicts_lockstep(self):
        header = "scenario:\n  name: x\n  engine: lockstep\n"
        fleet = "fleet:\n  nodes: 2\n  stages: 2\n"
        self.check(header + "  barrier: false\n" + fleet, 4, "engine: event")
        default_engine = "scenario:\n  name: x\n  barrier: false\n" + fleet
        self.check(default_engine, 3, "engine: event")
        assert load_spec(header + "  barrier: true\n" + fleet).barrier is True

    def test_yaml_error_is_wrapped_with_filename(self):
        self.check("scenario: [\n", 1, "unterminated", filename="broken.yaml")

    def test_head_groups_cannot_exceed_nodes(self):
        text = (
            "scenario:\n  name: x\nfleet:\n  nodes: 2\n  stages: 2\n"
            "processes:\n"
            "  per_node_heads:\n"
            "    groups: 5\n"
        )
        with pytest.raises(ScenarioError) as exc:
            load_spec(text)
        assert "groups" in str(exc.value)


class TestFuzzedSpecs:
    """A spec file with one random byte changed, inserted or deleted
    either loads or fails with a ``<file>:<line>:`` ScenarioError."""

    @settings(max_examples=300, deadline=None)
    @given(
        pos=st.integers(0, len(FULL_SPEC) - 1),
        op=st.sampled_from(["replace", "insert", "delete"]),
        byte=st.integers(0, 255),
    )
    def test_mutated_spec_loads_or_fails_anchored(
        self, tmp_path_factory, pos, op, byte
    ):
        data = bytearray(FULL_SPEC)
        if op == "replace":
            data[pos] = byte
        elif op == "insert":
            data.insert(pos, byte)
        else:
            del data[pos]
        path = tmp_path_factory.getbasetemp() / "fuzzed.yaml"
        path.write_bytes(bytes(data))
        try:
            load_spec_file(path)
        except ScenarioError as exc:
            assert re.match(re.escape(f"{path}:") + r"\d+: ", str(exc)), exc
