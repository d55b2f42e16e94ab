"""Topology engines: flat byte-identity, mode equivalence, aggregation.

Three contracts anchor the hierarchical tier to the flat reference:

* a passthrough topology (fan-out 1, passthrough links, aggregation
  off, zero overhead) delegates to the flat code path, so reports,
  ledgers, and JSONL traces are byte-identical to a run with no
  topology at all — in both engines;
* a real hierarchy produces the same learning trajectory in lockstep
  and event-barrier mode (same accuracies, rollouts, tier bytes), and
  lockstep results are bit-identical at any worker count;
* aggregation trades WAN transfer events (and their framing overhead)
  for buffering delay without touching edge-tier traffic.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import system_by_id
from repro.fleet import (
    FleetScenario,
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
    run_fleet_event,
)
from repro.fleet.async_sim import DirectEventTier, _EventFleet
from repro.fleet.simulation import build_fleet_runtime
from repro.obs import MetricsRegistry, Tracer, explain_divergence
from repro.obs.analyze import health_report
from repro.topology import AggregationPolicy, Topology

NUM_NODES = 4


def small_fleet() -> FleetScenario:
    base = fleet_base_scenario(
        stream_scale=0.02,
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    return FleetScenario(
        base=base,
        num_nodes=NUM_NODES,
        seed=0,
        lte_fraction=0.0,
        low_power_fraction=0.0,
        severity_jitter=0.0,
    )


def hier_topology(**overrides) -> Topology:
    kwargs = dict(
        aggregation=AggregationPolicy(flush_images=8, max_age_stages=2)
    )
    kwargs.update(overrides)
    return Topology.fan_out(NUM_NODES, 2, **kwargs)


@pytest.fixture(scope="module")
def assets():
    return prepare_fleet_assets(small_fleet())


@pytest.fixture(scope="module")
def flat_lock(assets):
    tracer = Tracer()
    report = run_fleet(system_by_id("d"), assets, tracer=tracer)
    return report, tracer


@pytest.fixture(scope="module")
def hier_lock(assets):
    return run_fleet(system_by_id("d"), assets, topology=hier_topology())


@pytest.fixture(scope="module")
def hier_event(assets):
    return run_fleet_event(
        system_by_id("d"), assets, barrier=True, topology=hier_topology()
    )


class TestPassthroughIdentity:
    def test_lockstep_byte_identical_to_flat(self, assets, flat_lock):
        flat, flat_tracer = flat_lock
        tracer = Tracer()
        report = run_fleet(
            system_by_id("d"),
            assets,
            topology=Topology.single(NUM_NODES),
            tracer=tracer,
        )
        assert report.final_accuracy == flat.final_accuracy
        assert report.ledger.snapshot() == flat.ledger.snapshot()
        assert [s.eval_accuracy for s in report.stages] == [
            s.eval_accuracy for s in flat.stages
        ]
        assert tracer.to_jsonl() == flat_tracer.to_jsonl(), (
            explain_divergence(
                tracer.to_jsonl(),
                flat_tracer.to_jsonl(),
                label_a="passthrough",
                label_b="flat",
            )
        )
        # the delegated run is a flat run: no gateway artifacts
        assert report.gateway_stages == []
        assert report.topology.is_passthrough

    def test_event_byte_identical_to_flat(self, assets):
        flat_tracer = Tracer()
        flat = run_fleet_event(
            system_by_id("d"), assets, barrier=True, tracer=flat_tracer
        )
        tracer = Tracer()
        report = run_fleet_event(
            system_by_id("d"),
            assets,
            barrier=True,
            topology=Topology.single(NUM_NODES),
            tracer=tracer,
        )
        assert report.final_eval_accuracy == flat.final_eval_accuracy
        assert report.ledger.snapshot() == flat.ledger.snapshot()
        assert tracer.to_jsonl() == flat_tracer.to_jsonl(), (
            explain_divergence(
                tracer.to_jsonl(),
                flat_tracer.to_jsonl(),
                label_a="passthrough",
                label_b="flat",
            )
        )

    def test_flat_run_has_zero_tier_fields(self, flat_lock):
        snap = flat_lock[0].ledger.snapshot()
        assert snap.tiered_bytes_moved == 0
        assert snap.wan_transfer_events == 0
        assert snap.transfer_overhead_bytes == 0

    def test_mismatched_topology_rejected(self, assets):
        with pytest.raises(ValueError, match="topology covers"):
            run_fleet(
                system_by_id("d"), assets, topology=Topology.single(3)
            )


class TestModeEquivalence:
    def test_accuracy_trajectories_match(self, hier_lock, hier_event):
        assert (
            hier_event.final_eval_accuracy == hier_lock.final_accuracy
        )
        for lock_node, event_node in zip(hier_lock.nodes, hier_event.nodes):
            assert [r.accuracy_on_new for r in lock_node.records] == [
                r.accuracy_on_new for r in event_node.records
            ]

    def test_rollouts_match(self, hier_lock, hier_event):
        assert [
            (r.stage_index, r.promoted, r.canary_ids)
            for r in hier_lock.rollouts
        ] == [
            (r.stage_index, r.promoted, r.canary_ids)
            for r in hier_event.rollouts
        ]

    def test_tier_bytes_match(self, hier_lock, hier_event):
        lock, event = (
            hier_lock.ledger.snapshot(),
            hier_event.ledger.snapshot(),
        )
        assert lock.edge_to_gateway_bytes == event.edge_to_gateway_bytes
        assert lock.gateway_to_cloud_bytes == event.gateway_to_cloud_bytes
        assert lock.gateway_to_edge_bytes == event.gateway_to_edge_bytes
        assert lock.cloud_to_gateway_bytes == event.cloud_to_gateway_bytes
        assert lock.wan_transfer_events == event.wan_transfer_events
        assert lock.transfer_overhead_bytes == event.transfer_overhead_bytes

    def test_regional_canary(self, hier_lock, hier_event):
        # the canary region is gateway 0's children, not the flat
        # scenario's sampled canary subset
        for report in (hier_lock, hier_event):
            assert all(r.canary_ids == (0, 1) for r in report.rollouts)
        assert hier_lock.rollouts  # the schedule produced updates at all

    def test_no_leftovers_without_horizon(self, hier_event):
        # final-round force flush drains every buffer
        assert all(
            images == 0
            for images in hier_event.gateway_leftover_images.values()
        )

    def test_event_trace_is_tier_attributed_like_lockstep(self, assets):
        """``obs health`` reads the ``tier`` attribute: the event engine
        must stamp node compute as edge and Cloud retrains as cloud, and
        account second-opinion work, exactly as the stage loop does."""

        def observe(run, **kwargs):
            tracer, metrics = Tracer(), MetricsRegistry()
            run(
                system_by_id("d"),
                assets,
                topology=hier_topology(second_opinion_fraction=0.5),
                tracer=tracer,
                metrics=metrics,
                **kwargs,
            )
            records = [(r.cat, r.name, dict(r.attrs)) for r in tracer.records]
            return {
                "tiers": [
                    row["tier"] for row in health_report(tracer.records)["tiers"]
                ],
                "stamped": {
                    (cat, name): attrs["tier"]
                    for cat, name, attrs in records
                    if "tier" in attrs
                },
                "opinions": sorted(
                    (a["gateway"], a["stage"], a["offered"], a["resolved"])
                    for cat, name, a in records
                    if (cat, name) == ("gateway", "second_opinion")
                ),
                "resolved": metrics.counter(
                    "topology.images.resolved", system="d", tier="gateway"
                ).value,
            }

        event = observe(run_fleet_event, barrier=True)
        assert event["tiers"] == ["cloud", "edge", "gateway"]
        assert event["stamped"][("node", "compute")] == "edge"
        assert event["stamped"][("cloud", "decision")] == "cloud"
        assert event["resolved"] == sum(o[3] for o in event["opinions"]) > 0
        lockstep = observe(run_fleet)
        # the Cloud span is named by what it did; everything else agrees
        lockstep["stamped"][("cloud", "rollout")] = lockstep["stamped"].pop(
            ("cloud", "update")
        )
        assert event == lockstep

    @pytest.mark.parametrize("hier", [False, True])
    def test_finished_engine_is_freed_without_the_cycle_gc(self, assets, hier):
        # A tier (or hooks) that kept the engine would close a reference
        # cycle, and a replicate loop would then hold the previous run's
        # runtime until the cycle collector got to it: +12% peak RSS on
        # the scenario_full benchmark workload when this was the case.
        config = system_by_id("d")
        tier = (
            hier_topology().event_tier(config, assets)
            if hier
            else DirectEventTier(assets)
        )
        engine = _EventFleet(
            config,
            assets,
            build_fleet_runtime(config, assets, canary_ids=tier.canary_ids),
            tier,
            horizon_s=None,
            barrier=True,
        )
        gc.collect()
        gc.disable()
        try:
            engine.run()
            alive = weakref.ref(engine)
            del engine
            assert alive() is None
        finally:
            gc.enable()

    def test_workers_bit_identical(self, assets, hier_lock):
        workers = run_fleet(
            system_by_id("d"), assets, topology=hier_topology(), workers=2
        )
        assert workers.final_accuracy == hier_lock.final_accuracy
        assert workers.ledger.snapshot() == hier_lock.ledger.snapshot()
        for serial, pooled in zip(hier_lock.nodes, workers.nodes):
            assert serial.records == pooled.records


class TestAggregation:
    def test_fewer_wan_transfers_than_unaggregated(self, assets, hier_lock):
        unaggregated = run_fleet(
            system_by_id("d"),
            assets,
            topology=hier_topology(
                aggregation=AggregationPolicy(enabled=False)
            ),
        )
        agg, noagg = (
            hier_lock.ledger.snapshot(),
            unaggregated.ledger.snapshot(),
        )
        assert agg.wan_transfer_events < noagg.wan_transfer_events
        assert agg.transfer_overhead_bytes < noagg.transfer_overhead_bytes
        # overhead is strictly per-WAN-transfer
        assert (
            agg.transfer_overhead_bytes
            == agg.wan_transfer_events * 2_000
        )

    def test_gateway_records_cover_every_stage(self, hier_lock):
        stages = {g.stage_index for g in hier_lock.gateway_stages}
        assert stages == set(range(len(hier_lock.stages)))
        flushed = sum(1 for g in hier_lock.gateway_stages if g.flushed)
        snap = hier_lock.ledger.snapshot()
        assert flushed == snap.wan_transfer_events

    def test_second_opinion_cuts_wan_not_edge(self, assets, hier_lock):
        resolved = run_fleet(
            system_by_id("d"),
            assets,
            topology=hier_topology(second_opinion_fraction=0.5),
        )
        base, so = (
            hier_lock.ledger.snapshot(),
            resolved.ledger.snapshot(),
        )
        assert so.gateway_to_cloud_bytes < base.gateway_to_cloud_bytes
        assert so.edge_to_gateway_bytes == base.edge_to_gateway_bytes
        assert sum(
            g.resolved_images for g in resolved.gateway_stages
        ) > 0


class TestHorizonLeftovers:
    def test_async_horizon_may_strand_buffered_uploads(self, assets):
        report = run_fleet_event(
            system_by_id("d"),
            assets,
            topology=hier_topology(
                aggregation=AggregationPolicy(
                    flush_images=10_000, max_age_stages=1_000
                )
            ),
            horizon_s=20.0,
        )
        # epoch-0 uploads force-flush (Cloud init); later uploads sit in
        # the buffers when the horizon freezes the world mid-round, and
        # the report says exactly how many images were stranded
        assert set(report.gateway_leftover_images) == {0, 1}
        assert sum(report.gateway_leftover_images.values()) > 0
        assert report.ledger.snapshot().wan_transfer_events >= 2
