"""Lockstep scenario runs: the fleet stage loop plus scenario hooks.

:func:`run_scenario_lockstep` drives the one lockstep stage loop
(:func:`repro.fleet.simulation._run_fleet_schedule`) over the direct
uplink tier with :class:`ScenarioHooks` plugged in.  The hooks carry the
three scenario deltas:

* **churn** — only alive nodes compute, upload, and receive pushes; the
  cloud sees each stage's alive subset as the whole fleet;
* **reconciliation** — a node whose held version went stale while it was
  down re-downloads the current model at stage start (charged to the
  downlink ledger like any push);
* **per-node heads** — after every promoted rollout, each node group
  retrains its FC head; accepted heads are published on registry side
  tracks and only the head bytes travel to the group's alive members.

Churn makes versions diverge across the fleet mid-run, which is why the
stage loop keeps one deployed state per node.  Worker tasks ship each
node's own state, so any worker count is bit-identical to the serial
path.
"""

from __future__ import annotations

from repro.fleet.simulation import (
    FleetAssets,
    StageHooks,
    _run_fleet_schedule,
)
from repro.fleet.uplink import DirectTier, SharedUplink, model_state_bytes
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.scenario.report import (
    ScenarioReport,
    ScenarioState,
    finalize_report,
)
from repro.scenario.schema import ScenarioSpec

__all__ = ["ScenarioHooks", "run_scenario_lockstep"]


def run_scenario_lockstep(
    spec: ScenarioSpec,
    *,
    assets: FleetAssets | None = None,
    workers: int = 1,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    system_id: str = "d",
) -> ScenarioReport:
    """Run one scenario replicate on the lockstep engine."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    state = ScenarioState.open(
        spec,
        assets,
        mode="lockstep",
        system_id=system_id,
        tracer=tracer,
        metrics=metrics,
    )
    assets, plans, runtime = state.assets, state.plans, state.runtime
    config, report = runtime.config, state.report
    tier = DirectTier(
        config, assets, SharedUplink(assets.scenario.backhaul_bps)
    )
    pool = None
    if workers > 1:
        from repro.fleet.pool import FleetWorkerPool

        pool = FleetWorkerPool(runtime, assets, workers)
    try:
        with obs_metrics.use(metrics):
            report.fleet = _run_fleet_schedule(
                config,
                assets,
                runtime,
                tier,
                pool,
                tracer=state.tracer,
                hooks=ScenarioHooks(state),
            )
    finally:
        if pool is not None:
            pool.shutdown()
    finalize_report(report, runtime, assets, plans)
    return report


class ScenarioHooks(StageHooks):
    """Churn, rejoin reconciliation, and per-group heads for one run."""

    def __init__(self, state: ScenarioState) -> None:
        self.state = state
        # begin_stage's findings, for after_push's stage info
        self._stage_start = 0.0
        self._alive: tuple[int, ...] = ()

    def begin_stage(self, s, t0, node_states):
        """Pick the alive set; catch rejoined nodes up to the fleet.

        The catch-up download overlaps the stage's compute in the
        virtual timeline.
        """
        state = self.state
        alive = state.alive_indices(s)
        for i in alive:
            stale = state.reconcile_target(i)
            if stale is None:
                continue
            version, target = stale
            num_bytes = model_state_bytes(target)
            node_states[i] = target
            state.reconciled(i, s, version, num_bytes)
            profile = state.profiles[i]
            state.tracer.span(
                "net",
                "reconcile",
                t0,
                t0 + profile.link.model_push_time_s(num_bytes),
                node=profile.node_id,
                stage=s,
                system=state.system_id,
                bytes=num_bytes,
                version=version,
            )
        self._stage_start = t0
        self._alive = alive
        return alive, state.phase_attrs(s), state.caught_up.get(s, {})

    def after_push(self, s, t0, outcome, node_states):
        """Specialize per-group heads after a promotion; close the stage."""
        state = self.state
        profiles = state.profiles
        alive_ids = tuple(profiles[i].node_id for i in self._alive)
        head_bytes: dict[int, int] = {}
        head_tail = 0.0
        for update in state.accept_heads(s, alive_ids, outcome):
            for node_id in update.member_ids:
                i = state.index_of[node_id]
                head_bytes[i] = head_bytes.get(i, 0) + update.push_bytes
                node_states[i] = update.state
                push_s = profiles[i].link.model_push_time_s(update.push_bytes)
                head_tail = max(head_tail, push_s)
                state.tracer.span(
                    "net",
                    "push-head",
                    t0,
                    t0 + push_s,
                    node=node_id,
                    stage=s,
                    system=state.system_id,
                    bytes=update.push_bytes,
                    head_group=update.group,
                )
        state.close_stage(s, alive_ids, self._stage_start)
        return head_bytes, head_tail
