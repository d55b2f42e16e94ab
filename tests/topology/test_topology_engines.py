"""Topology runs: the flat boundary, the barrier hierarchy, aggregation.

Hierarchical fleets run only on the event engine; ``barrier=True`` is
their lockstep run.  Three contracts anchor the gateway tier:

* a run with no topology moves no tier bytes, and a topology that does
  not cover the fleet's nodes is refused;
* a hierarchy canaries regionally, drains every buffer by the end
  of a run with no horizon, and stamps every hop with its tier;
* aggregation trades WAN transfer events (and their framing overhead)
  for buffering delay without touching edge-tier traffic.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.comm.link import JPEG_IMAGE_BYTES
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
from repro.obs import MetricsRegistry, Tracer
from repro.obs.analyze import health_report
from repro.scenario import build_plans, load_spec
from repro.scenario.event import ScenarioEventHooks
from repro.topology import AggregationPolicy, Topology

NUM_NODES = 4

#: churn and per-group heads over ``small_fleet()`` (its fleet replaces
#: this one), so every scenario hook has work in a run
SCENARIO_YAML = """\
scenario:
  name: hooks
  engine: event
fleet:
  nodes: 4
processes:
  churn:
    rate: 0.4
  per_node_heads:
    groups: 2
    epochs: 1
"""


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
def hier_barrier(assets):
    return run_fleet_event(
        system_by_id("d"), assets, barrier=True, topology=hier_topology()
    )


class TestTopologyBoundary:
    def test_flat_run_has_zero_tier_fields(self, assets):
        snap = run_fleet(system_by_id("d"), assets).ledger.snapshot()
        assert snap.edge_to_gateway_bytes == snap.gateway_to_cloud_bytes == 0
        assert snap.gateway_to_edge_bytes == snap.cloud_to_gateway_bytes == 0
        assert snap.wan_transfer_events == 0
        assert snap.transfer_overhead_bytes == 0

    def test_mismatched_topology_rejected(self, assets):
        with pytest.raises(ValueError, match="topology covers"):
            run_fleet_event(
                system_by_id("d"),
                assets,
                barrier=True,
                topology=Topology.fan_out(NUM_NODES - 1, 2),
            )


class TestModeEquivalence:
    """A hierarchy's lockstep mode *is* the event engine's barrier run.

    ``python -m repro fleet --topology fan-out`` maps ``--mode lockstep``
    onto ``run_fleet_event(barrier=True)``; these pin what that run does.
    """

    def test_regional_canary(self, hier_barrier):
        # the canary region is gateway 0's children, not the flat
        # scenario's sampled canary subset
        assert hier_barrier.rollouts  # the schedule produced updates at all
        assert all(r.canary_ids == (0, 1) for r in hier_barrier.rollouts)

    def test_no_leftovers_without_horizon(self, hier_barrier):
        # final-round force flush drains every buffer
        assert all(
            images == 0
            for images in hier_barrier.gateway_leftover_images.values()
        )

    def test_event_trace_is_tier_attributed_like_lockstep(self, assets):
        """``obs health`` reads the ``tier`` attribute: the barrier run
        must stamp every hop with its tier, and account second-opinion
        work in the trace, the metrics and the report alike."""
        tracer, metrics = Tracer(), MetricsRegistry()
        report = run_fleet_event(
            system_by_id("d"),
            assets,
            barrier=True,
            topology=hier_topology(second_opinion_fraction=0.5),
            tracer=tracer,
            metrics=metrics,
        )
        records = [(r.cat, r.name, dict(r.attrs)) for r in tracer.records]
        tiers = [row["tier"] for row in health_report(tracer.records)["tiers"]]
        assert tiers == ["cloud", "edge", "gateway"]
        assert {
            (cat, name, attrs.get("tier")) for cat, name, attrs in records
        } == {
            ("node", "compute", "edge"),
            ("node", "diagnosis", "edge"),
            ("net", "upload", "edge"),
            ("gateway", "second_opinion", "gateway"),
            ("net", "flush", "gateway"),
            ("net", "push", "gateway"),
            ("net", "push", "edge"),
            ("cloud", "init", "cloud"),
            ("cloud", "rollout", "cloud"),
            ("cloud", "decision", "cloud"),
        }
        opinions = [
            a["resolved"]
            for cat, name, a in records
            if (cat, name) == ("gateway", "second_opinion")
        ]
        resolved = metrics.counter(
            "topology.images.resolved", system="d", tier="gateway"
        ).value
        assert resolved == sum(opinions) > 0
        assert sum(report.gateway_resolved_images.values()) == resolved
        assert set(report.gateway_resolved_images) == {0, 1}

    @pytest.mark.parametrize(
        "case, barrier, horizon_s",
        [
            ("direct", True, None),
            ("direct", True, 4.0),
            ("direct", False, None),
            ("direct", False, 4.0),
            ("gateway", True, None),
            ("gateway", True, 4.0),
            ("gateway", False, None),
            ("gateway", False, 4.0),
            ("scenario-hooks", True, None),
            ("scenario-hooks", False, None),
        ],
        ids=[
            "direct-barrier",
            "direct-barrier-horizon",
            "direct-async",
            "direct-async-horizon",
            "gateway-barrier",
            "gateway-barrier-horizon",
            "gateway-async",
            "gateway-async-horizon",
            "scenario-hooks-barrier",
            "scenario-hooks-async",
        ],
    )
    def test_finished_engine_is_freed_without_the_cycle_gc(
        self, assets, case, barrier, horizon_s
    ):
        # A tier (or hooks) that kept the engine would close a reference
        # cycle, and so would a kernel process left suspended at the end
        # (the free-running Cloud, async gateways, whatever a horizon
        # froze): a replicate loop would then hold the previous run's
        # runtime until the cycle collector got to it: +12% peak RSS on
        # the scenario_full benchmark workload when this was the case.
        config = system_by_id("d")
        tier = (
            hier_topology().event_tier(config, assets)
            if case == "gateway"
            else DirectEventTier(assets)
        )
        runtime = build_fleet_runtime(config, assets, canary_ids=tier.canary_ids)
        hooks = None
        if case == "scenario-hooks":
            spec = replace(load_spec(SCENARIO_YAML), fleet=small_fleet())
            hooks = ScenarioEventHooks(
                spec,
                build_plans(spec, assets.profiles),
                assets,
                runtime,
                mode="event-barrier" if barrier else "event",
            )
        engine = _EventFleet(
            config,
            assets,
            runtime,
            tier,
            horizon_s=horizon_s,
            barrier=barrier,
            hooks=hooks,
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


class TestAggregation:
    def test_fewer_wan_transfers_than_unaggregated(self, assets, hier_barrier):
        unaggregated = run_fleet_event(
            system_by_id("d"),
            assets,
            barrier=True,
            topology=hier_topology(
                aggregation=AggregationPolicy(flush_images=1)
            ),
        )
        agg, noagg = (
            hier_barrier.ledger.snapshot(),
            unaggregated.ledger.snapshot(),
        )
        assert agg.wan_transfer_events < noagg.wan_transfer_events
        assert agg.transfer_overhead_bytes < noagg.transfer_overhead_bytes
        # overhead is strictly per-WAN-transfer
        assert (
            agg.transfer_overhead_bytes
            == agg.wan_transfer_events * 2_000
        )

    def test_second_opinion_cuts_wan_not_edge(self, assets, hier_barrier):
        resolved = run_fleet_event(
            system_by_id("d"),
            assets,
            barrier=True,
            topology=hier_topology(second_opinion_fraction=0.5),
        )
        base, so = (
            hier_barrier.ledger.snapshot(),
            resolved.ledger.snapshot(),
        )
        assert so.gateway_to_cloud_bytes < base.gateway_to_cloud_bytes
        assert so.edge_to_gateway_bytes == base.edge_to_gateway_bytes
        assert sum(resolved.gateway_resolved_images.values()) > 0


class TestLedgerConservation:
    """The fleet ledger is the sum of the node ledgers, the edge hop
    carries exactly the fleet's uploads and push-downs, and a drained
    hierarchy accounts for every image that reached a gateway: settled
    there, flushed over the WAN, or still buffered."""

    @pytest.fixture(scope="class")
    def runs(self, assets):
        config = system_by_id("d")
        opinion = hier_topology(second_opinion_fraction=0.5)
        return {
            "flat-barrier": run_fleet(config, assets),
            "fan-out-barrier": run_fleet_event(
                config, assets, barrier=True, topology=opinion
            ),
            "fan-out-async": run_fleet_event(
                config, assets, topology=opinion
            ),
        }

    @pytest.mark.parametrize(
        "mode", ["flat-barrier", "fan-out-barrier", "fan-out-async"]
    )
    def test_fleet_totals_are_node_sums(self, runs, mode):
        report = runs[mode]
        fleet = report.ledger.snapshot()
        nodes = [t.ledger.snapshot() for t in report.nodes]
        for name in ("acquired_images", "uploaded_images", "downloaded_bytes"):
            assert getattr(fleet, name) == sum(getattr(n, name) for n in nodes)
        assert fleet.acquired_images > fleet.uploaded_images > 0

    @pytest.mark.parametrize("mode", ["fan-out-barrier", "fan-out-async"])
    def test_edge_hop_carries_the_fleet_traffic(self, runs, mode):
        snap = runs[mode].ledger.snapshot()
        assert snap.edge_to_gateway_bytes == snap.uploaded_bytes > 0
        assert snap.gateway_to_edge_bytes == snap.downloaded_bytes > 0

    def test_drained_hierarchy_accounts_for_every_image(self, runs):
        report = runs["fan-out-barrier"]
        snap = report.ledger.snapshot()
        resolved = sum(report.gateway_resolved_images.values())
        flushed = snap.gateway_to_cloud_bytes - snap.transfer_overhead_bytes
        leftover = sum(report.gateway_leftover_images.values())
        assert resolved > 0 and flushed % JPEG_IMAGE_BYTES == 0
        assert snap.edge_to_gateway_bytes // JPEG_IMAGE_BYTES == (
            resolved + flushed // JPEG_IMAGE_BYTES + leftover
        )


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
