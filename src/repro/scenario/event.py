"""Scenario runs: the one event engine plus scenario hooks.

:func:`run_scenario_event` drives the one event engine
(:class:`repro.fleet.async_sim._EventFleet`) over the direct tier with
:class:`ScenarioEventHooks` plugged in, so per-node compute and
transport are bit-identical with the flat engine.  The hooks carry the
scenario deltas as kernel generators:

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

from repro.fleet.async_sim import DirectEventTier, EventHooks, _EventFleet
from repro.fleet.simulation import FleetAssets
from repro.fleet.uplink import model_state_bytes
from repro.obs.trace import Tracer
from repro.scenario.report import (
    ScenarioReport,
    ScenarioState,
    finalize_report,
)
from repro.scenario.schema import ScenarioSpec

__all__ = ["ScenarioEventHooks", "run_scenario_event"]


class ScenarioEventHooks(EventHooks):
    """Churn, rejoin reconciliation, and per-group heads as kernel flows."""

    # Churn defines who is in a round, so rounds exist in async mode too.
    round_based = True

    def __init__(self, state: ScenarioState) -> None:
        self.state = state

    def alive(self, i: int, s: int) -> bool:
        return self.state.alive(i, s)

    def before_epoch(self, engine, i: int, s: int):
        """Catch a rejoined node up to the current model, as a flow."""
        stale = self.state.reconcile_target(i)
        if stale is None:
            return
        version, target = stale
        num_bytes = model_state_bytes(target)
        yield from engine.download(
            i, num_bytes, target, s, "reconcile", version=version
        )
        self.state.reconciled(i, s, version, num_bytes)

    def after_deliver(self, engine, r: int, alive_ids, outcome):
        """Specialize per-group heads after a promotion; push as flows."""
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
            for update in self.state.accept_heads(r, alive_ids, outcome)
            for node_id in update.member_ids
        ]
        for proc in procs:
            yield proc

    def close_round(self, engine, r: int, alive_ids) -> None:
        self.state.close_stage(r, alive_ids, engine.sim.now)


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
    state = ScenarioState.open(
        spec,
        assets,
        mode="event-barrier" if barrier else "event",
        tracer=tracer,
    )
    state.report.fleet = _EventFleet(
        state.runtime.config,
        state.assets,
        state.runtime,
        DirectEventTier(state.assets),
        horizon_s=None,
        barrier=barrier,
        tracer=state.tracer,
        hooks=ScenarioEventHooks(state),
    ).run()
    finalize_report(state.report, state.runtime, state.assets, state.plans)
    return state.report
