"""FleetScenario profile expansion tests."""

from __future__ import annotations

import pytest

from repro.fleet import FleetScenario, NodeProfile
from repro.fleet.simulation import fleet_base_scenario


class TestNodeProfile:
    def test_rejects_unknown_device(self):
        with pytest.raises(ValueError):
            NodeProfile(0, "tpu", "wifi", (0.3,), seed=1)

    def test_rejects_unknown_link(self):
        with pytest.raises(ValueError):
            NodeProfile(0, "tx1", "5g", (0.3,), seed=1)

    def test_device_and_link_resolve(self):
        profile = NodeProfile(0, "tx1-lowpower", "lte", (0.3,), seed=1)
        assert "low-power" in profile.device.name
        assert profile.link.name == "LTE"


class TestFleetScenario:
    def test_profiles_deterministic(self):
        scenario = FleetScenario(base=fleet_base_scenario(), num_nodes=8, seed=3)
        assert scenario.profiles() == scenario.profiles()

    def test_seed_changes_profiles(self):
        a = FleetScenario(base=fleet_base_scenario(), num_nodes=8, seed=3)
        b = FleetScenario(base=fleet_base_scenario(), num_nodes=8, seed=4)
        assert a.profiles() != b.profiles()

    def test_class_quotas_exact(self):
        scenario = FleetScenario(
            base=fleet_base_scenario(),
            num_nodes=8,
            lte_fraction=0.5,
            low_power_fraction=0.25,
            seed=0,
        )
        profiles = scenario.profiles()
        assert sum(p.link_kind == "lte" for p in profiles) == 4
        assert sum(p.device_kind == "tx1-lowpower" for p in profiles) == 2

    def test_severities_jitter_per_node(self):
        scenario = FleetScenario(
            base=fleet_base_scenario(), num_nodes=4, severity_jitter=0.1, seed=0
        )
        profiles = scenario.profiles()
        assert len({p.severities for p in profiles}) > 1
        for p in profiles:
            assert all(0.0 < s < 1.0 for s in p.severities)

    def test_zero_jitter_keeps_base_severities(self):
        base = fleet_base_scenario(severities=(0.3, 0.4, 0.5, 0.3, 0.4))
        scenario = FleetScenario(
            base=base, num_nodes=3, severity_jitter=0.0, seed=0
        )
        for p in scenario.profiles():
            assert p.severities == base.severities

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetScenario(num_nodes=0)
        with pytest.raises(ValueError):
            FleetScenario(lte_fraction=1.5)

    def test_negative_seed_rejected_up_front(self):
        # numpy's SeedSequence would only refuse it deep inside a run
        with pytest.raises(
            ValueError, match=r"^seed must be an integer >= 0, got -1$"
        ):
            FleetScenario(seed=-1)
