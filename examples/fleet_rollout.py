"""Fleet rollout: a sanctuary-wide camera-trap deployment.

Eight heterogeneous camera traps — some on WiFi backhaul, some on LTE,
some thermally throttled — share one uplink and one Cloud.  The Cloud
pools their flagged uploads, retrains incrementally, canaries every
candidate model on a subset of nodes, and only rolls out fleet-wide when
the canaries do not regress.  The second act deliberately poisons an
update to show the canary guard refusing it: the bad model reaches the
canary nodes, is rolled back, and never becomes a registry version.

Run:  python examples/fleet_rollout.py [--topology]
                                       [--trace TRACE.jsonl]
                                       [--metrics METRICS.json]
                                       [--summary-json SUMMARY.json]

With ``--topology`` the eight traps report through two site gateways
(four traps each) that batch flagged uploads into amortized WAN
transfers, resolve a quarter of flags with a gateway-side second
opinion, and scope the canary to gateway 0's region.  Both runs keep
the paper's stage barrier on the one event engine: the default is the
flat paper wiring (``run_fleet``), the hierarchy is
``run_fleet_event(..., barrier=True, topology=...)``.  With ``--trace``
the run also emits a deterministic JSONL trace of the fleet timeline
(convert with ``python -m repro obs convert``); with ``--metrics`` it
dumps the fleet/cloud/training counters; ``--summary-json`` writes a
deterministic machine-readable summary of the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.core import system_by_id
from repro.data import make_dataset
from repro.data.images import ImageGenerator
from repro.fleet import (
    FleetScenario,
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
    run_fleet_event,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.cli import summarize


def build_summary(report, *, mode: str) -> dict:
    """Machine-readable summary for ``--summary-json``.

    The key set and value types are schema-pinned by
    ``tests/integration/test_fleet_rollout_summary.py`` — extend rather
    than rename, and keep every value JSON-serializable.  ``report`` is
    a ``FleetEventReport``; a flat run's has no gateways to count.
    """
    return {
        "mode": mode,
        "final_accuracy": report.final_eval_accuracy,
        "ledger": dataclasses.asdict(report.ledger.snapshot()),
        "rollouts": [
            {
                "stage_index": r.stage_index,
                "promoted": r.promoted,
                "canary_ids": list(r.canary_ids),
            }
            for r in report.rollouts
        ],
        "gateway_flushes": len(report.gateway_flushes),
        "second_opinion_images": sum(report.gateway_resolved_images.values()),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="write a JSONL trace of the fleet run to this path",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None,
        help="write the metrics registry dump (JSON) to this path",
    )
    parser.add_argument(
        "--topology", action="store_true",
        help=(
            "route the traps through two site gateways (4 traps each) "
            "with upload aggregation, a gateway second-opinion model, "
            "and a regional canary"
        ),
    )
    parser.add_argument(
        "--summary-json", type=Path, default=None,
        help="write a deterministic JSON summary of the run to this path",
    )
    args = parser.parse_args(argv)
    tracer = Tracer() if args.trace else None
    metrics = MetricsRegistry() if args.metrics else None
    topology = None
    if args.topology:
        from repro.topology import AggregationPolicy, Topology

        topology = Topology.fan_out(
            8,
            4,
            aggregation=AggregationPolicy(flush_images=24, max_age_stages=2),
            second_opinion_fraction=0.25,
        )
    scenario = FleetScenario(
        base=fleet_base_scenario(
            stream_scale=0.03,
            pretrain_images=64,
            pretrain_epochs=1,
            init_epochs=3,
            update_epochs=2,
            eval_images=64,
        ),
        num_nodes=8,
        lte_fraction=0.5,
        low_power_fraction=0.25,
        scheduler_policy="per-stage",
        seed=7,
    )
    print("fleet:")
    for p in scenario.profiles():
        print(
            f"  node {p.node_id}: {p.device_kind:>12s} over {p.link_kind}, "
            f"drift {min(p.severities):.2f}-{max(p.severities):.2f}"
        )

    # ------------------------------------------------------------------
    # Act 1: the In-situ AI variant (d) at fleet scale.
    # ------------------------------------------------------------------
    assets = prepare_fleet_assets(scenario)
    if topology is None:
        report = run_fleet(
            system_by_id("d"), assets, tracer=tracer, metrics=metrics
        )
    else:
        report = run_fleet_event(
            system_by_id("d"),
            assets,
            barrier=True,
            tracer=tracer,
            metrics=metrics,
            topology=topology,
        )
    if topology is not None:
        print("\ngateways:")
        for g in topology.gateways:
            print(
                f"  gateway {g.gateway_id}: nodes "
                f"{','.join(str(c) for c in g.child_ids)} over "
                f"{g.local_link.name.lower()}, WAN {g.wan_link.name.lower()}"
            )
        print(f"canary region: gateway {topology.canary_gateway.gateway_id}")
    canary_ids = (
        topology.canary_node_ids if topology is not None
        else assets.canary_ids
    )
    print(f"\ncanary subset: nodes {canary_ids}")
    for update in report.updates:
        print(
            f"stage {update.stage_index} {update.kind} at "
            f"{update.trigger_s:.1f}s: trained on "
            f"{update.pooled_for_training}, "
            f"{'promoted' if update.promoted else 'REJECTED'}, "
            f"eval accuracy {update.eval_accuracy:.0%}"
        )
    print(f"fleet makespan {report.makespan_s:.1f}s")
    print(
        f"\naggregate: {report.total_uploaded_bytes / 1e6:.0f} MB up + "
        f"{report.total_downloaded_bytes / 1e6:.0f} MB of model pushes = "
        f"{report.total_bytes_moved / 1e6:.0f} MB moved "
        f"({report.ledger.overall_reduction_vs_full():.0%} upload "
        "reduction); "
        f"cloud update time {report.total_update_time_s:.1f}s, "
        f"model versions {report.registry.history()}"
    )
    if topology is not None:
        snap = report.ledger.snapshot()
        print(
            f"tiers: {snap.edge_to_gateway_bytes / 1e6:.0f} MB edge->gateway "
            f"({snap.edge_transfer_events} transfers), "
            f"{snap.gateway_to_cloud_bytes / 1e6:.0f} MB gateway->cloud "
            f"({snap.wan_transfer_events} flushes, "
            f"{snap.transfer_overhead_bytes / 1e3:.0f} kB framing); "
            f"second opinion resolved "
            f"{sum(report.gateway_resolved_images.values())} imgs "
            "at the gateways"
        )

    if args.summary_json is not None:
        summary = build_summary(
            report, mode="topology" if topology is not None else "flat"
        )
        args.summary_json.write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"\nsummary -> {args.summary_json}")

    if tracer is not None:
        tracer.write_jsonl(args.trace)
        print(f"\ntimeline ({len(tracer.records)} records -> {args.trace}):")
        print(summarize(tracer.records, limit=8))
    if metrics is not None:
        metrics.write_json(args.metrics)
        print(f"metrics -> {args.metrics}")

    # ------------------------------------------------------------------
    # Act 2: a poisoned update meets the canary guard.
    # ------------------------------------------------------------------
    from repro.core import InSituCloud, ModelRegistry, UpdateGuard
    from repro.fleet import FleetScheduler
    from repro.models import alexnet_spec

    base = scenario.base
    rng = np.random.default_rng(99)
    generator = ImageGenerator(num_classes=base.num_classes, rng=rng)
    poison = make_dataset(48, generator=generator, rng=rng)
    poison.labels = (poison.labels + 1) % base.num_classes  # all labels wrong
    holdout = make_dataset(64, generator=generator, rng=rng)

    # A fresh Cloud holding the weights the fleet run just deployed.
    cloud = InSituCloud(
        base.num_classes,
        assets.permset,
        cost_spec=alexnet_spec(),
        rng=np.random.default_rng(base.seed + 1),
    )
    cloud.context_net.load_state_dict(assets.trunk_state)
    cloud.inference_net.load_state_dict(report.registry.active.state)
    registry = ModelRegistry()
    registry.publish(cloud.model_state(), {"origin": "fleet-run"})
    scheduler = FleetScheduler(
        cloud=cloud,
        registry=registry,
        guard=UpdateGuard(validation_data=holdout, max_regression=0.02),
        policy="per-stage",
        canary_ids=assets.canary_ids,
    )
    result = scheduler.rollout(
        99,
        poison,
        holdout,
        all_node_ids=tuple(range(scenario.num_nodes)),
        weight_shared=True,
        epochs=4,
        lr=0.05,
    )
    print(
        f"\npoisoned update: guard saw accuracy "
        f"{result.decision.accuracy_before:.0%} -> "
        f"{result.decision.accuracy_after:.0%}, "
        f"{'promoted (!)' if result.promoted else 'rejected'}; "
        f"touched nodes {sorted({e.node_id for e in result.events})} "
        f"(canaries only), registry still at v{registry.active.version}"
    )


if __name__ == "__main__":
    main()
