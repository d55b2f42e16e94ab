"""The four Fig. 24 system configurations."""

from __future__ import annotations

import pytest

from repro.core import SYSTEMS, SystemConfig, system_by_id


class TestSystems:
    def test_four_systems(self):
        assert [c.system_id for c in SYSTEMS] == ["a", "b", "c", "d"]

    def test_system_a_traditional(self):
        a = system_by_id("a")
        assert a.uploads_everything
        assert not a.weight_shared

    def test_system_b_cloud_diagnosis(self):
        b = system_by_id("b")
        assert b.uploads_everything

    def test_system_c_node_diagnosis(self):
        c = system_by_id("c")
        assert not c.uploads_everything
        assert not c.weight_shared

    def test_system_d_is_in_situ_ai(self):
        d = system_by_id("d")
        assert not d.uploads_everything
        assert d.weight_shared
        assert d.name == "in-situ-ai"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            system_by_id("e")

    def test_invalid_location_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig("x", "bad", "edge", weight_shared=False)
