"""Fleet-scale simulation: N heterogeneous nodes sharing one Cloud."""

from repro.fleet.async_sim import (
    CloudUpdateRecord,
    EpochRecord,
    FleetEventReport,
    NodeEventTrajectory,
    run_all_systems,
    run_fleet_event,
)
from repro.fleet.profiles import LOW_POWER_TX1, FleetScenario, NodeProfile
from repro.fleet.scheduler import (
    DeployEvent,
    FleetScheduler,
    PendingUpload,
    RolloutResult,
)
from repro.fleet.simulation import (
    FleetAssets,
    FleetRuntime,
    build_fleet_runtime,
    fleet_base_scenario,
    prepare_assets,
    prepare_fleet_assets,
    run_fleet,
)
from repro.fleet.uplink import SharedUplink, Transfer, model_state_bytes

__all__ = [
    "CloudUpdateRecord",
    "DeployEvent",
    "EpochRecord",
    "FleetAssets",
    "FleetEventReport",
    "FleetRuntime",
    "FleetScenario",
    "FleetScheduler",
    "LOW_POWER_TX1",
    "NodeEventTrajectory",
    "NodeProfile",
    "PendingUpload",
    "RolloutResult",
    "SharedUplink",
    "Transfer",
    "build_fleet_runtime",
    "fleet_base_scenario",
    "model_state_bytes",
    "prepare_assets",
    "prepare_fleet_assets",
    "run_all_systems",
    "run_fleet",
    "run_fleet_event",
]
