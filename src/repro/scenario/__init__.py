"""YAML-driven scenario engine: churn, class phases, per-node heads.

A *scenario* composes seeded processes — node crash/rejoin churn,
class-incremental data arrival phases, and per-node-group head
specialization — onto the fleet engines.  The YAML spec is validated
with line-anchored errors (:mod:`repro.scenario.schema`), the processes
are materialized as pure seeded plans (:mod:`repro.scenario.processes`),
and the plans drive the event engine through the one hooks class in
:mod:`repro.scenario.event`.  ``engine: lockstep`` is that engine's
barrier mode (the paper's stage-synchronous protocol); ``engine: event``
honours the spec's ``barrier`` flag.

``python -m repro scenario run <yaml>`` runs replicates and emits a
byte-stable summary JSON with seeded bootstrap confidence intervals.
"""

from repro.scenario.assets import prepare_scenario_assets
from repro.scenario.event import run_scenario_event
from repro.scenario.heads import HeadUpdate, run_head_updates
from repro.scenario.processes import (
    ChurnPlan,
    ClassPhasePlan,
    HeadGroupPlan,
    ScenarioPlans,
    build_plans,
)
from repro.scenario.report import ScenarioReport, ScenarioStageInfo
from repro.scenario.schema import (
    ScenarioError,
    ScenarioSpec,
    load_spec,
    load_spec_file,
)
from repro.scenario.summary import build_summary, run_replicate, summary_json

__all__ = [
    "ChurnPlan",
    "ClassPhasePlan",
    "HeadGroupPlan",
    "HeadUpdate",
    "ScenarioError",
    "ScenarioPlans",
    "ScenarioReport",
    "ScenarioSpec",
    "ScenarioStageInfo",
    "build_plans",
    "build_summary",
    "load_spec",
    "load_spec_file",
    "prepare_scenario_assets",
    "run_head_updates",
    "run_replicate",
    "run_scenario_event",
    "summary_json",
]
