"""Network-link choice affects transfer energy accounting.

One node, system c, the same seed: a WiFi fleet of one against an LTE
fleet of one.
"""

from __future__ import annotations

import pytest

from repro.core import Scenario, system_by_id
from repro.fleet import FleetScenario, prepare_fleet_assets, run_fleet_event


@pytest.fixture(scope="module")
def runs():
    base = Scenario(
        num_classes=4,
        stream_scale=0.15,
        pretrain_images=40,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=40,
        seed=9,
    )

    def run(lte_fraction: float):
        assets = prepare_fleet_assets(
            FleetScenario(
                base=base, num_nodes=1, lte_fraction=lte_fraction, seed=9
            )
        )
        return run_fleet_event(system_by_id("c"), assets, barrier=True)

    return {"wifi": run(0.0), "lte": run(1.0)}


class TestLinkChoice:
    def test_lte_costs_more_transfer_energy(self, runs):
        assert runs["lte"].nodes[0].profile.link_kind == "lte"
        assert runs["wifi"].nodes[0].profile.link_kind == "wifi"
        assert (
            runs["lte"].nodes[0].total_upload_energy_j
            > runs["wifi"].nodes[0].total_upload_energy_j
        )

    def test_link_does_not_change_movement(self, runs):
        assert (
            runs["wifi"].ledger.total_uploaded_images
            == runs["lte"].ledger.total_uploaded_images
        )
