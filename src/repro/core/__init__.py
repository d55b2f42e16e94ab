"""In-situ AI core: node, cloud, working-mode planners, system variants."""

from repro.core.cloud import CloudUpdateReport, InSituCloud
from repro.core.costing import GPUSingleRunningCost, TaskCost
from repro.core.modes import (
    CoRunningPlanner,
    SingleRunningConfig,
    SingleRunningPlanner,
    select_mode,
)
from repro.core.node import InSituNode, NodeReport
from repro.core.registry import (
    GuardDecision,
    ModelRegistry,
    ModelVersion,
    UpdateGuard,
)
from repro.core.simulation import Scenario
from repro.core.systems import SYSTEMS, SystemConfig, system_by_id

__all__ = [
    "CloudUpdateReport",
    "CoRunningPlanner",
    "GPUSingleRunningCost",
    "GuardDecision",
    "InSituCloud",
    "InSituNode",
    "ModelRegistry",
    "ModelVersion",
    "NodeReport",
    "TaskCost",
    "UpdateGuard",
    "SYSTEMS",
    "Scenario",
    "SingleRunningConfig",
    "SingleRunningPlanner",
    "SystemConfig",
    "select_mode",
    "system_by_id",
]
