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

from repro.core.systems import system_by_id
from repro.fleet.simulation import (
    FleetAssets,
    StageHooks,
    _run_fleet_schedule,
    build_fleet_runtime,
)
from repro.fleet.uplink import DirectTier, SharedUplink, model_state_bytes
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.scenario.assets import prepare_scenario_assets
from repro.scenario.heads import build_head_net, run_head_updates
from repro.scenario.processes import build_plans
from repro.scenario.report import (
    ScenarioReport,
    ScenarioStageInfo,
    configure_cloud,
    finalize_report,
    strip_state,
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
    config = system_by_id(system_id)
    if assets is None:
        assets = prepare_scenario_assets(spec)
    plans = build_plans(spec, assets.profiles)
    runtime = build_fleet_runtime(config, assets, metrics=metrics)
    configure_cloud(runtime, spec)
    if tracer is None:
        tracer = Tracer(enabled=False)
    report = ScenarioReport(
        spec=spec, mode="lockstep", fleet=None, registry=runtime.registry
    )
    hooks = ScenarioHooks(spec, plans, assets, runtime, report, tracer)
    tier = DirectTier(
        config, assets, SharedUplink(assets.scenario.backhaul_bps)
    )
    pool = None
    if workers > 1:
        from repro.fleet.pool import FleetWorkerPool

        # Churn + per-group heads make node states diverge mid-run, so
        # one stage can reference up to (head groups + 1) distinct
        # states at once; size the weights block to hold them all live.
        groups = plans.heads.num_groups if plans.heads is not None else 0
        pool = FleetWorkerPool(assets, workers, state_slots=groups + 2)
    try:
        with obs_metrics.use(metrics):
            report.fleet = _run_fleet_schedule(
                config, assets, runtime, tier, pool, tracer=tracer, hooks=hooks
            )
    finally:
        if pool is not None:
            pool.shutdown()
    finalize_report(report, runtime, assets, plans)
    return report


class ScenarioHooks(StageHooks):
    """Churn, rejoin reconciliation, and per-group heads for one run."""

    def __init__(self, spec, plans, assets, runtime, report, tracer) -> None:
        self.spec = spec
        self.plans = plans
        self.assets = assets
        self.runtime = runtime
        self.report = report
        self.tracer = tracer
        self.profiles = assets.profiles
        self.index_of = {p.node_id: i for i, p in enumerate(self.profiles)}
        self.system_id = runtime.config.system_id
        self.head_net = build_head_net(spec) if spec.heads is not None else None
        # Main-track version each node's trunk is based on (0 = the
        # pre-registry warm-start state every node boots with).
        self.node_version = [0] * len(self.profiles)
        # group -> (base main version, merged full state) of the latest
        # accepted head, so rejoining members reconcile to their own head.
        self.group_state: dict[int, tuple[int, dict]] = {}
        # begin_stage's findings, for after_push's stage info
        self._stage_start = 0.0
        self._alive: tuple[int, ...] = ()
        self._extra: dict = {}
        self._caught_up: dict[int, int] = {}

    def begin_stage(self, s, t0, node_states):
        """Pick the alive set; catch rejoined nodes up to the fleet.

        A node that slept through a promotion holds a stale version; it
        re-downloads the current model (its group head when one exists
        for the active version) before computing.  The download overlaps
        the stage's compute in the virtual timeline.
        """
        registry = self.runtime.registry
        alive = self.plans.alive_indices(s, len(self.profiles))
        phase = self.plans.phase_name(s)
        active_version = registry.active.version if len(registry) else 0
        caught_up: dict[int, int] = {}
        for i in alive:
            if self.node_version[i] == active_version:
                continue
            target = (
                registry.active.state
                if len(registry)
                else self.assets.initial_state
            )
            if self.plans.heads is not None:
                held = self.group_state.get(self.plans.heads.group_of(i))
                if held is not None and held[0] == active_version:
                    target = held[1]
            num_bytes = model_state_bytes(target)
            node_states[i] = target
            self.node_version[i] = active_version
            caught_up[i] = num_bytes
            profile = self.profiles[i]
            self.tracer.span(
                "net",
                "reconcile",
                t0,
                t0 + profile.link.model_push_time_s(num_bytes),
                node=profile.node_id,
                stage=s,
                system=self.system_id,
                bytes=num_bytes,
                version=active_version,
            )
        self._stage_start = t0
        self._alive = alive
        self._extra = {} if phase is None else {"phase": phase}
        self._caught_up = caught_up
        return alive, self._extra, caught_up

    def after_push(self, s, t0, outcome, node_states):
        """Specialize per-group heads after a promotion; close the stage."""
        profiles = self.profiles
        registry = self.runtime.registry
        active_version = registry.active.version
        alive_ids = tuple(profiles[i].node_id for i in self._alive)
        for i in self._alive:
            if outcome.push_bytes_per_node[profiles[i].node_id]:
                self.node_version[i] = active_version

        head_bytes: dict[int, int] = {}
        head_versions: list[int] = []
        head_tail = 0.0
        if outcome.promoted and self.spec.heads is not None:
            updates = run_head_updates(
                self.spec,
                self.plans,
                self.assets,
                registry,
                self.head_net,
                stage_index=s,
                alive_ids=alive_ids,
            )
            for update in updates:
                self.report.head_updates.append(strip_state(update))
                if not update.accepted:
                    continue
                head_versions.append(update.version)
                self.group_state[update.group] = (active_version, update.state)
                for node_id in update.member_ids:
                    i = self.index_of[node_id]
                    head_bytes[i] = head_bytes.get(i, 0) + update.push_bytes
                    node_states[i] = update.state
                    push_s = profiles[i].link.model_push_time_s(
                        update.push_bytes
                    )
                    head_tail = max(head_tail, push_s)
                    self.tracer.span(
                        "net",
                        "push-head",
                        t0,
                        t0 + push_s,
                        node=profiles[i].node_id,
                        stage=s,
                        system=self.system_id,
                        bytes=update.push_bytes,
                        head_group=update.group,
                    )

        reconcile_bytes = sum(self._caught_up.values())
        self.report.stage_info.append(
            ScenarioStageInfo(
                stage_index=s,
                phase=self._extra.get("phase"),
                alive=alive_ids,
                reconciled=tuple(profiles[i].node_id for i in self._caught_up),
                reconcile_bytes=reconcile_bytes,
                head_versions=tuple(head_versions),
            )
        )
        self.tracer.event(
            "scenario",
            "stage",
            self._stage_start,
            stage=s,
            system=self.system_id,
            alive=len(alive_ids),
            reconciled=len(self._caught_up),
            **self._extra,
        )
        m = self.runtime.metrics
        if m is not None:
            # Like the event engine: a counter exists once its process fired.
            if self._caught_up:
                m.counter(
                    "scenario.reconciliations", system=self.system_id
                ).inc(len(self._caught_up))
                m.counter(
                    "scenario.reconcile_bytes", system=self.system_id
                ).inc(reconcile_bytes)
            if head_versions:
                m.counter("scenario.head_updates", system=self.system_id).inc(
                    len(head_versions)
                )
        return head_bytes, head_tail
