"""Scenario runs: the one event engine plus the scenario hooks.

:func:`run_scenario_event` drives the one event engine
(:class:`repro.fleet.async_sim._EventFleet`) over the direct tier with
:class:`ScenarioEventHooks` plugged in, so per-node compute and
transport are bit-identical with the flat engine.  The hooks are one
class: they hold the run's scenario state (the model version each node
holds, each group's latest accepted head, the stage's catch-up
downloads and head versions, the report) and carry the scenario deltas
as kernel generators:

* a **down** stage parks the node at that round's barrier event (it
  uploads nothing and receives nothing) — in async mode too, so a
  crashed node can never race ahead of the fleet-wide round that
  excludes it;
* a **rejoining** node whose held version went stale reconciles first:
  the current model (its group head when one matches) travels down the
  shared backhaul as a real flow before the node computes;
* the Cloud is strictly **round-based** over the alive subset of each
  stage, head specializations run after every promoted rollout and
  travel to the group's members as flows, and the round closes with its
  :class:`~repro.scenario.report.ScenarioStageInfo`.

This is the only scenario engine.  ``engine: lockstep`` specs run it
with ``barrier=True`` (every node finishes round ``r`` before any node
starts round ``r + 1``, the paper's stage-synchronous protocol);
``engine: event`` specs run it with the spec's ``barrier`` flag, and
without the barrier nodes free-run between rounds like the flat async
mode.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.systems import system_by_id
from repro.fleet.async_sim import DirectEventTier, EventHooks, _EventFleet
from repro.fleet.simulation import (
    FleetAssets,
    FleetRuntime,
    build_fleet_runtime,
)
from repro.fleet.uplink import model_state_bytes
from repro.obs.trace import Tracer
from repro.scenario.assets import prepare_scenario_assets
from repro.scenario.heads import build_head_net, run_head_updates
from repro.scenario.processes import ScenarioPlans, build_plans
from repro.scenario.report import ScenarioReport, ScenarioStageInfo
from repro.scenario.schema import ScenarioSpec
from repro.transfer.finetune import evaluate, evaluate_on_classes
from repro.transfer.incremental import ReplayBuffer

__all__ = ["ScenarioEventHooks", "run_scenario_event"]

#: seed-sequence salt for the exemplar replay buffer's reservoir RNG
_REPLAY_SALT = 77171


def _configure_cloud(runtime: FleetRuntime, spec: ScenarioSpec) -> None:
    """Arm the cloud's class-incremental machinery, if configured."""
    ci = spec.class_incremental
    if ci is None:
        return
    cloud = runtime.cloud
    cloud.distill_weight = ci.distill_weight
    cloud.distill_temperature = ci.temperature
    cloud.exemplar_buffer = ReplayBuffer(
        ci.exemplar_capacity,
        rng=np.random.default_rng(
            np.random.SeedSequence((spec.fleet.seed, _REPLAY_SALT))
        ),
    )


class ScenarioEventHooks(EventHooks):
    """Churn, rejoin reconciliation, and per-group heads as kernel flows.

    Built right after the runtime: it arms the Cloud's class-incremental
    machinery first (the replay buffer's RNG is seeded there, so call
    order is part of the determinism contract), then opens the empty
    report and builds the head-training net.  Like the tiers, it is
    handed the engine per call and keeps no reference to it; the
    engine closes the kernel processes these generators run in as its
    run ends, so none of them holds it afterwards.
    """

    # Churn defines who is in a round, so rounds exist in async mode too.
    round_based = True

    def __init__(
        self,
        spec: ScenarioSpec,
        plans: ScenarioPlans,
        assets: FleetAssets,
        runtime: FleetRuntime,
        *,
        mode: str,
    ) -> None:
        self.spec = spec
        self.plans = plans
        self.assets = assets
        self.runtime = runtime
        _configure_cloud(runtime, spec)
        self.report = ScenarioReport(
            spec=spec, mode=mode, fleet=None, registry=runtime.registry
        )
        self.head_net = build_head_net(spec) if spec.heads is not None else None
        # Main-track version each node's trunk is based on (0 = the
        # pre-registry warm-start state every node boots with).
        self.node_version = [0] * len(assets.profiles)
        # group -> (base main version, merged full state) of the latest
        # accepted head, so rejoining members reconcile to their own head.
        self.group_state: dict[int, tuple[int, dict]] = {}
        #: stage -> {node index: bytes} of rejoin catch-up downloads
        self.caught_up: dict[int, dict[int, int]] = {}
        #: head-track versions published by the stage now closing
        self.head_versions: list[int] = []

    def alive(self, i: int, s: int) -> bool:
        churn = self.plans.churn
        return churn is None or churn.alive(i, s)

    def before_epoch(self, engine, i: int, s: int):
        """Catch a rejoined node up to the current model, as a flow.

        A node that slept through a promotion holds a stale version; it
        downloads the current model — its group head when one exists for
        the active version — before computing.
        """
        registry = self.runtime.registry
        version = registry.active.version if len(registry) else 0
        if self.node_version[i] == version:
            return
        target = (
            registry.active.state if len(registry) else self.assets.initial_state
        )
        if self.plans.heads is not None:
            held = self.group_state.get(self.plans.heads.group_of(i))
            if held is not None and held[0] == version:
                target = held[1]
        num_bytes = model_state_bytes(target)
        yield from engine.download(
            i, num_bytes, target, s, "reconcile", version=version
        )
        self.node_version[i] = version
        self.caught_up.setdefault(s, {})[i] = num_bytes

    def after_deliver(self, engine, r: int, alive_ids, outcome):
        """Note the landed main-track pushes; after a promotion, specialize
        per-group heads and push the accepted ones to their members as
        flows."""
        registry = self.runtime.registry
        active_version = registry.active.version
        for node_id, num_bytes in outcome.push_bytes_per_node.items():
            if num_bytes:
                self.node_version[engine.index_of[node_id]] = active_version
        accepted = []
        if outcome.promoted and self.spec.heads is not None:
            for update in run_head_updates(
                self.spec,
                self.plans,
                self.assets,
                registry,
                self.head_net,
                stage_index=r,
                alive_ids=alive_ids,
            ):
                # The archived copy drops the merged weights.
                self.report.head_updates.append(replace(update, state=None))
                if update.accepted:
                    self.group_state[update.group] = (
                        active_version,
                        update.state,
                    )
                    accepted.append(update)
        self.head_versions = [update.version for update in accepted]
        procs = [
            engine.sim.process(
                engine.download(
                    engine.index_of[node_id],
                    update.push_bytes,
                    update.state,
                    r,
                    "push-head",
                    head_group=update.group,
                )
            )
            for update in accepted
            for node_id in update.member_ids
        ]
        for proc in procs:
            yield proc

    def close_round(self, engine, r: int, alive_ids) -> None:
        """Stage info and the ``scenario/stage`` event."""
        caught_up = dict(sorted(self.caught_up.pop(r, {}).items()))
        phase = self.plans.phase_name(r)
        self.report.stage_info.append(
            ScenarioStageInfo(
                stage_index=r,
                phase=phase,
                alive=alive_ids,
                reconciled=tuple(engine.profiles[i].node_id for i in caught_up),
                reconcile_bytes=sum(caught_up.values()),
                head_versions=tuple(self.head_versions),
            )
        )
        engine.tracer.event(
            "scenario",
            "stage",
            engine.sim.now,
            stage=r,
            system=engine.config.system_id,
            alive=len(alive_ids),
            reconciled=len(caught_up),
            **({} if phase is None else {"phase": phase}),
        )


def _finalize_report(hooks: ScenarioEventHooks) -> None:
    """Final-model evaluations (RNG-free)."""
    report, plans, eval_data = hooks.report, hooks.plans, hooks.assets.eval_data
    registry = hooks.runtime.registry
    net = hooks.runtime.cloud.inference_net
    net.load_state_dict(registry.active.state)
    report.final_eval_accuracy = hooks.runtime.eval_accuracy(eval_data)
    if plans.phases is not None:
        for k, group in enumerate(plans.phases.groups):
            report.phase_accuracies[f"p{k}"] = float(
                evaluate_on_classes(net, eval_data, group)
            )
    if hooks.spec.heads is not None and plans.heads is not None:
        for group in range(plans.heads.num_groups):
            latest = registry.latest(f"head-{group}")
            if latest is None:
                continue
            net.load_state_dict(latest.state)
            report.head_accuracies[f"head-{group}"] = float(
                evaluate(net, eval_data)
            )
        net.load_state_dict(registry.active.state)


def run_scenario_event(
    spec: ScenarioSpec,
    *,
    assets: FleetAssets | None = None,
    barrier: bool = False,
    tracer: Tracer | None = None,
) -> ScenarioReport:
    """Run one scenario replicate of system d on the event engine.

    ``barrier=True`` is the stage-synchronous mode ``engine: lockstep``
    specs run in.
    """
    if assets is None:
        assets = prepare_scenario_assets(spec)
    plans = build_plans(spec, assets.profiles)
    runtime = build_fleet_runtime(system_by_id("d"), assets)
    hooks = ScenarioEventHooks(
        spec,
        plans,
        assets,
        runtime,
        mode="event-barrier" if barrier else "event",
    )
    hooks.report.fleet = _EventFleet(
        runtime.config,
        assets,
        runtime,
        DirectEventTier(assets),
        horizon_s=None,
        barrier=barrier,
        tracer=tracer,
        hooks=hooks,
    ).run()
    _finalize_report(hooks)
    return hooks.report
