"""Event-driven scenario engine: churn, phases, and heads on the kernel.

:class:`ScenarioEventFleet` subclasses the flat event fleet and reuses
its epoch body verbatim (sense -> infer/diagnose -> upload as flows), so
per-node compute and transport are bit-identical with the flat engine.
The scenario deltas live in the overridden processes:

* node processes iterate the stage list by index; a **down** stage
  parks the node at that round's barrier event (it uploads nothing and
  receives nothing) — in async mode too, so a crashed node can never
  race ahead of the fleet-wide round that excludes it;
* a **rejoining** node whose held version went stale reconciles first:
  the current model (its group head when one matches) travels down the
  shared backhaul as a real flow before the node computes;
* the Cloud is strictly **round-based** over the alive subset of each
  stage (arrivals from future rounds are buffered), runs head
  specializations after every promoted rollout, and closes the round.

With ``barrier=True`` this reproduces the lockstep scenario run's
accuracy trajectories, byte ledgers, registry history, and stage info
exactly; without it, nodes free-run between rounds like the flat async
mode, and no lockstep claim is made.
"""

from __future__ import annotations

import numpy as np

from repro.core.systems import system_by_id
from repro.fleet.async_sim import _EventFleet
from repro.fleet.simulation import (
    FleetAssets,
    cloud_initialize,
    cloud_try_update,
)
from repro.fleet.uplink import model_state_bytes
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.scenario.assets import prepare_scenario_assets
from repro.scenario.heads import build_head_net, run_head_updates
from repro.scenario.processes import build_plans
from repro.scenario.report import (
    ScenarioReport,
    ScenarioStageInfo,
    canary_pool,
    configure_cloud,
    finalize_report,
    strip_state,
)
from repro.scenario.schema import ScenarioSpec

__all__ = ["ScenarioEventFleet", "run_scenario_event"]


class ScenarioEventFleet(_EventFleet):
    """Flat event fleet plus churn, reconciliation, and head processes."""

    def __init__(
        self,
        spec: ScenarioSpec,
        assets: FleetAssets,
        *,
        barrier: bool,
        acquire_time_s: float = 0.0,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        system_id: str = "d",
    ) -> None:
        super().__init__(
            system_by_id(system_id),
            assets,
            horizon_s=None,
            barrier=barrier,
            acquire_time_s=acquire_time_s,
            tracer=tracer,
            metrics=metrics,
        )
        self.spec = spec
        self.plans = build_plans(spec, assets.profiles)
        configure_cloud(self.runtime, spec)
        self.scenario_report = ScenarioReport(
            spec=spec,
            mode=self.report.mode,
            fleet=self.report,
            registry=self.runtime.registry,
        )
        # Main-track version each node's trunk is based on (0 = the
        # pre-registry warm-start state every node boots with).
        self.node_version = [0] * len(self.profiles)
        self.head_net = build_head_net(spec) if spec.heads is not None else None
        # group -> (base main version, merged full state) of the latest
        # accepted head, so rejoining members reconcile to their own head.
        self.group_state: dict[int, tuple[int, dict]] = {}
        #: stage -> [(node_id, bytes)] reconciliations, for stage info
        self._reconciled: dict[int, list[tuple[int, int]]] = {}
        #: arrivals that belong to a future round (async mode only)
        self._pending: dict[int, list] = {}

    # ------------------------------------------------------------------
    # Node processes
    # ------------------------------------------------------------------
    def _alive(self, i: int, s: int) -> bool:
        if self.plans.churn is None:
            return True
        return self.plans.churn.alive(i, s)

    def _node_proc(self, i: int):
        profile = self.profiles[i]
        stages = self.assets.node_stages[i]
        num_stages = len(stages)
        for s in range(num_stages):
            if not self._alive(i, s):
                # A down node contributes nothing this round and must not
                # race ahead of it — even async nodes park here, because
                # the round that excludes them defines when they rejoin.
                yield self._round_event(s)
                continue
            yield from self._maybe_reconcile(i, s)
            stage = stages[s]
            outcome = yield from self._node_epoch_body(i, profile, stage, s)
            if self.barrier:
                yield self._round_event(s)
            self._commit_epoch(i, s, stage, outcome)
        self.report.nodes[i].finish_s = self.sim.now

    def _maybe_reconcile(self, i: int, s: int):
        """Catch a rejoined node up to the current model, as a flow."""
        registry = self.runtime.registry
        active_version = registry.active.version if len(registry) else 0
        if self.node_version[i] == active_version:
            return
        target = (
            registry.active.state if len(registry) else self.assets.initial_state
        )
        if self.plans.heads is not None:
            held = self.group_state.get(self.plans.heads.group_of(i))
            if held is not None and held[0] == active_version:
                target = held[1]
        num_bytes = model_state_bytes(target)
        profile = self.profiles[i]
        start = self.sim.now
        yield self.downlink.transfer(
            num_bytes,
            profile.link.downlink_bps,
            latency_s=profile.link.latency_s,
            tag=profile.node_id,
        )
        self.tracer.span(
            "net",
            "reconcile",
            start,
            self.sim.now,
            node=profile.node_id,
            stage=s,
            system=self.config.system_id,
            bytes=num_bytes,
            version=active_version,
        )
        self.node_version[i] = active_version
        self._land_download(i, num_bytes, target, s)
        self._reconciled.setdefault(s, []).append((profile.node_id, num_bytes))
        if self.metrics is not None:
            self.metrics.counter(
                "scenario.reconciliations", system=self.config.system_id
            ).inc()
            self.metrics.counter(
                "scenario.reconcile_bytes", system=self.config.system_id
            ).inc(num_bytes)

    # ------------------------------------------------------------------
    # Cloud process: strictly round-based over the alive subset
    # ------------------------------------------------------------------
    def _spawn_processes(self) -> None:
        for i in range(len(self.profiles)):
            self.sim.process(self._node_proc(i))
        self.sim.process(self._cloud_rounds())

    def _collect_stage(self, s: int, alive_ids: tuple[int, ...]):
        """All alive arrivals for round ``s``, buffering future rounds."""
        got = list(self._pending.pop(s, []))
        while len(got) < len(alive_ids):
            arrival = yield self.arrivals.get()
            if arrival.epoch == s:
                got.append(arrival)
            else:
                self._pending.setdefault(arrival.epoch, []).append(arrival)
        got.sort(key=lambda a: a.node_id)
        return got

    def _cloud_rounds(self):
        num_stages = len(self.assets.node_stages[0])
        num_nodes = len(self.profiles)
        for r in range(num_stages):
            alive = self.plans.alive_indices(r, num_nodes)
            alive_ids = tuple(self.profiles[i].node_id for i in alive)
            arrivals = yield from self._collect_stage(r, alive_ids)
            fleet_accuracy = float(np.mean([a.accuracy for a in arrivals]))
            trigger = self.sim.now
            if r == 0:
                outcome = cloud_initialize(
                    0,
                    [a.data for a in arrivals],
                    runtime=self.runtime,
                    base=self.base,
                    all_node_ids=alive_ids,
                )
            else:
                for a in arrivals:
                    self.runtime.scheduler.offer(a.epoch, a.node_id, a.data)
                canaries = self.runtime.scheduler.canaries_among(alive_ids)
                outcome = cloud_try_update(
                    r,
                    fleet_accuracy,
                    lambda: canary_pool(self.assets, r, canaries),
                    runtime=self.runtime,
                    base=self.base,
                    all_node_ids=alive_ids,
                )
            if outcome.modeled_update_time_s > 0:
                yield self.sim.timeout(outcome.modeled_update_time_s)
            if outcome.updated:
                self._record_update(
                    "init" if r == 0 else "rollout", trigger, outcome, stage=r
                )
            yield from self._deliver_outcome(outcome, stage_hint=r)
            active_version = self.runtime.registry.active.version
            for node_id in sorted(outcome.push_bytes_per_node):
                if outcome.push_bytes_per_node[node_id] > 0:
                    self.node_version[self.index_of[node_id]] = active_version
            head_versions = yield from self._run_heads(
                r, alive_ids, active_version, promoted=outcome.promoted
            )
            recon = sorted(self._reconciled.get(r, []))
            phase = self.plans.phase_name(r)
            self.scenario_report.stage_info.append(
                ScenarioStageInfo(
                    stage_index=r,
                    phase=phase,
                    alive=alive_ids,
                    reconciled=tuple(n for n, _ in recon),
                    reconcile_bytes=sum(b for _, b in recon),
                    head_versions=head_versions,
                )
            )
            attrs = {"phase": phase} if phase is not None else {}
            self.tracer.event(
                "scenario",
                "stage",
                self.sim.now,
                stage=r,
                system=self.config.system_id,
                alive=len(alive_ids),
                reconciled=len(recon),
                **attrs,
            )
            self._round_event(r).succeed(r + 1 < num_stages)

    def _run_heads(
        self,
        r: int,
        alive_ids: tuple[int, ...],
        active_version: int,
        *,
        promoted: bool,
    ):
        """Specialize per-group heads after a promotion; push as flows."""
        if not promoted or self.spec.heads is None:
            return ()
        updates = run_head_updates(
            self.spec,
            self.plans,
            self.assets,
            self.runtime.registry,
            self.head_net,
            stage_index=r,
            alive_ids=alive_ids,
        )
        head_versions: list[int] = []
        procs = []
        for update in updates:
            self.scenario_report.head_updates.append(strip_state(update))
            if not update.accepted:
                continue
            head_versions.append(update.version)
            self.group_state[update.group] = (active_version, update.state)
            for node_id in update.member_ids:
                procs.append(
                    self.sim.process(
                        self._head_push_proc(
                            node_id, update.push_bytes, update.state,
                            r, update.group,
                        )
                    )
                )
            if self.metrics is not None:
                self.metrics.counter(
                    "scenario.head_updates", system=self.config.system_id
                ).inc()
        for proc in procs:
            yield proc
        return tuple(head_versions)

    def _head_push_proc(
        self, node_id: int, num_bytes: int, state, stage_hint: int, group: int
    ):
        """Like the parent's push proc, but carrying a merged head state."""
        i = self.index_of[node_id]
        profile = self.profiles[i]
        push_start = self.sim.now
        yield self.downlink.transfer(
            num_bytes,
            profile.link.downlink_bps,
            latency_s=profile.link.latency_s,
            tag=node_id,
        )
        self.tracer.span(
            "net",
            "push-head",
            push_start,
            self.sim.now,
            node=node_id,
            stage=stage_hint,
            system=self.config.system_id,
            bytes=num_bytes,
            head_group=group,
        )
        self._land_download(i, num_bytes, state, stage_hint)

    # ------------------------------------------------------------------
    def run_scenario(self) -> ScenarioReport:
        self.run()
        finalize_report(
            self.scenario_report, self.runtime, self.assets, self.plans
        )
        return self.scenario_report


def run_scenario_event(
    spec: ScenarioSpec,
    *,
    assets: FleetAssets | None = None,
    barrier: bool = False,
    acquire_time_s: float = 0.0,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    system_id: str = "d",
) -> ScenarioReport:
    """Run one scenario replicate on the event engine.

    ``barrier=True`` is the lockstep-reference mode: it reproduces
    :func:`repro.scenario.lockstep.run_scenario_lockstep` trajectories,
    ledgers, registry history, and stage info on the event kernel.
    """
    if assets is None:
        assets = prepare_scenario_assets(spec)
    engine = ScenarioEventFleet(
        spec,
        assets,
        barrier=barrier,
        acquire_time_s=acquire_time_s,
        tracer=tracer,
        metrics=metrics,
        system_id=system_id,
    )
    return engine.run_scenario()
