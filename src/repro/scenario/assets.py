"""Scenario asset preparation: fleet assets, class-scheduled when asked.

A scenario's assets are :func:`repro.fleet.simulation.prepare_fleet_assets`
output.  Without a class-incremental process the cache keys and bytes are
those of a bare fleet run; with one, every node's stream draws labels from
the phase plan's per-stage allowed classes, so early stages contain only
the unlocked class groups, while the held-out eval set keeps the full
label space (that is what makes forgetting measurable).
"""

from __future__ import annotations

from repro.fleet.simulation import FleetAssets, prepare_fleet_assets
from repro.scenario.processes import ClassPhasePlan
from repro.scenario.schema import ScenarioSpec

__all__ = ["prepare_scenario_assets"]


def prepare_scenario_assets(spec: ScenarioSpec) -> FleetAssets:
    """Fleet assets for one scenario replicate."""
    schedule = None
    if spec.class_incremental is not None:
        plan = ClassPhasePlan.build(spec.class_incremental)
        schedule = plan.schedule(spec.num_stages)
    return prepare_fleet_assets(spec.fleet, class_schedule=schedule)
