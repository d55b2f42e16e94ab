"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates the analytical tables/figures directly from the hardware
models, without pytest.  Each figure's table is defined once, in
:data:`repro.reports.figures.FIGURES` (rows plus the formatter that
turns them into text); this module only adds ``specs`` and the ``fleet``
experiment, and the figure benches print the same text.  Training-based
experiments (Table I, Figs. 5-7, Table II, Fig. 25) run through the
benchmark suite instead: ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import argparse
from typing import Callable

from repro.reports import figures
from repro.reports.tables import format_table

__all__ = ["main"]


def _render_specs() -> str:
    from repro.hw import TITAN_X, TX1, VX690T
    from repro.models import alexnet_spec, vgg16_spec

    device_rows = [
        [
            gpu.name,
            f"{gpu.max_ops / 1e9:.0f} GOP/s",
            f"{gpu.mem_bandwidth_bps / 1e9:.1f} GB/s",
            f"{gpu.idle_power_w:.0f}-{gpu.peak_power_w:.0f} W",
        ]
        for gpu in (TX1, TITAN_X)
    ]
    device_rows.append(
        [
            VX690T.name,
            f"{VX690T.dsp_slices} DSPs @ {VX690T.frequency_hz / 1e6:.0f} MHz",
            f"{VX690T.mem_bandwidth_bps / 1e9:.1f} GB/s",
            f"{VX690T.power_w:.0f} W",
        ]
    )
    devices = format_table(
        "Devices", ["device", "compute", "bandwidth", "power"], device_rows
    )
    net_rows = [
        [
            net.name,
            len(net.conv_layers),
            len(net.fc_layers),
            f"{net.total_ops / 1e9:.2f} GOP",
            f"{net.weight_bytes / 1e6:.0f} MB",
        ]
        for net in (alexnet_spec(), vgg16_spec())
    ]
    networks = format_table(
        "Networks", ["network", "convs", "fcs", "ops/img", "weights"],
        net_rows,
    )
    return devices + "\n\n" + networks


def _render_tier_table(results) -> str:
    """Per-tier movement for a hierarchical run (gateway topology)."""
    mb = 1e6
    return format_table(
        "Hierarchical topology — per-tier movement",
        ["system", "edge up MB", "WAN up MB", "WAN down MB", "edge down MB",
         "edge xfers", "WAN xfers", "overhead kB"],
        [
            [
                sid,
                f"{s.edge_to_gateway_bytes / mb:.0f}",
                f"{s.gateway_to_cloud_bytes / mb:.0f}",
                f"{s.cloud_to_gateway_bytes / mb:.0f}",
                f"{s.gateway_to_edge_bytes / mb:.0f}",
                s.edge_transfer_events,
                s.wan_transfer_events,
                f"{s.transfer_overhead_bytes / 1e3:.0f}",
            ]
            for sid, s in (
                (sid, r.ledger.snapshot()) for sid, r in results.items()
            )
        ],
    )


def _render_fleet(
    num_nodes: int,
    policy: str,
    seed: int,
    *,
    workers: int = 1,
    tracer=None,
    metrics=None,
) -> str:
    """Beyond the paper: the four Fig. 24 variants at fleet scale."""
    from repro.fleet import (
        FleetScenario,
        fleet_base_scenario,
        run_fleet_all_systems,
    )

    scenario = FleetScenario(
        base=fleet_base_scenario(),
        num_nodes=num_nodes,
        scheduler_policy=policy,
        seed=seed,
    )
    results = run_fleet_all_systems(
        scenario,
        workers=workers,
        tracer=tracer,
        metrics=metrics,
    )
    mb = 1e6
    aggregate = format_table(
        f"Fleet ({num_nodes} nodes, policy={policy}) — aggregate movement "
        "and Cloud update cost",
        ["system", "up MB", "down MB", "total MB", "reduction",
         "cloud s", "cloud kJ", "radio J", "final acc"],
        [
            [
                sid,
                f"{r.total_uploaded_bytes / mb:.0f}",
                f"{r.total_downloaded_bytes / mb:.0f}",
                f"{r.total_bytes_moved / mb:.0f}",
                f"{r.data_reduction_vs_full:.0%}",
                f"{r.total_update_time_s:.1f}",
                f"{r.total_cloud_energy_j / 1e3:.2f}",
                f"{r.total_transfer_energy_j:.1f}",
                f"{r.final_accuracy:.0%}",
            ]
            for sid, r in results.items()
        ],
    )
    rollouts = format_table(
        "Canary rollouts (per variant)",
        ["system", "updates", "promoted", "rejected", "canary nodes"],
        [
            [
                sid,
                len(r.rollouts),
                sum(1 for ro in r.rollouts if ro.promoted),
                sum(1 for ro in r.rollouts if not ro.promoted),
                ",".join(
                    str(i) for i in (r.rollouts[0].canary_ids if r.rollouts else ())
                ),
            ]
            for sid, r in results.items()
        ],
    )
    d = results["d"]
    per_node = format_table(
        "In-situ AI (d) — per-node trajectory",
        ["node", "device", "link", "uploaded imgs", "up MB", "down MB",
         "contention stretch", "mean acc on new"],
        [
            [
                t.profile.node_id,
                t.profile.device_kind,
                t.profile.link_kind,
                t.ledger.total_uploaded_images,
                f"{t.ledger.total_uploaded_bytes / mb:.0f}",
                f"{t.ledger.total_downloaded_bytes / mb:.0f}",
                f"{t.contention_stretch:.2f}x",
                f"{sum(t.accuracy_trajectory) / len(t.accuracy_trajectory):.0%}",
            ]
            for t in d.nodes
        ],
    )
    return aggregate + "\n\n" + rollouts + "\n\n" + per_node


def _render_fleet_event(
    num_nodes: int,
    policy: str,
    seed: int,
    horizon: float | None,
    *,
    barrier: bool = False,
    tracer=None,
    metrics=None,
    topology=None,
) -> str:
    """Event-driven fleet: asynchronous epochs, dynamic uplink flows.

    ``barrier=True`` is the lockstep run of a hierarchical fleet: the
    event engine with the fleet-wide epoch barrier re-inserted.
    """
    from repro.core.systems import SYSTEMS
    from repro.fleet import (
        FleetScenario,
        fleet_base_scenario,
        prepare_fleet_assets,
        run_fleet_event,
    )

    scenario = FleetScenario(
        base=fleet_base_scenario(),
        num_nodes=num_nodes,
        scheduler_policy=policy,
        seed=seed,
    )
    assets = prepare_fleet_assets(scenario)
    results = {
        config.system_id: run_fleet_event(
            config,
            assets,
            horizon_s=horizon,
            barrier=barrier,
            tracer=tracer,
            metrics=metrics,
            topology=topology,
        )
        for config in SYSTEMS
    }
    mb = 1e6
    horizon_label = (
        f"horizon={horizon:g}s" if horizon is not None else "full schedule"
    )
    barrier_label = ", barrier mode" if barrier else ""
    aggregate = format_table(
        f"Event-driven fleet{barrier_label} ({num_nodes} nodes, "
        f"policy={policy}, {horizon_label}) — virtual time and movement",
        ["system", "makespan s", "epochs min-max", "updates", "promoted",
         "up MB", "down MB", "final acc"],
        [
            [
                sid,
                f"{r.makespan_s:.1f}",
                f"{min(r.epochs_by_node.values())}-"
                f"{max(r.epochs_by_node.values())}",
                len(r.updates),
                sum(1 for u in r.updates if u.promoted),
                f"{r.total_uploaded_bytes / mb:.0f}",
                f"{r.total_downloaded_bytes / mb:.0f}",
                f"{r.final_eval_accuracy:.0%}",
            ]
            for sid, r in results.items()
        ],
    )
    d = results["d"]
    per_node = format_table(
        "In-situ AI (d) — per-node event trajectory",
        ["node", "device", "link", "epochs", "blocked on uplink s",
         "up MB", "down MB", "mean acc on new"],
        [
            [
                t.profile.node_id,
                t.profile.device_kind,
                t.profile.link_kind,
                t.epochs_completed,
                f"{t.blocked_on_uplink_s:.2f}",
                f"{t.ledger.total_uploaded_bytes / mb:.0f}",
                f"{t.ledger.total_downloaded_bytes / mb:.0f}",
                (
                    f"{sum(t.accuracy_trajectory) / len(t.accuracy_trajectory):.0%}"
                    if t.records
                    else "-"
                ),
            ]
            for t in d.nodes
        ],
    )
    out = aggregate + "\n\n" + per_node
    if topology is not None and not topology.is_passthrough:
        out += "\n\n" + _render_tier_table(results)
    return out


_EXPERIMENTS: dict[str, Callable[[], str]] = {
    name: lambda rows=rows, table=table: table(rows())
    for name, (rows, table) in figures.FIGURES.items()
}
_EXPERIMENTS["specs"] = _render_specs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the paper's analytical tables and figures, or run "
            "the beyond-the-paper fleet simulation ('fleet'). Training-based "
            "paper experiments run via 'pytest benchmarks/ --benchmark-only'. "
            "YAML-driven scenario runs (churn, class-incremental phases, "
            "per-node heads) live under 'python -m repro scenario'."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        default=None,
        help=(
            "which experiments to run (default: all analytical tables; "
            "'fleet' is the multi-node simulation and must be asked for "
            "explicitly)"
        ),
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=16,
        help="fleet size for the 'fleet' experiment (default: 16)",
    )
    parser.add_argument(
        "--policy",
        choices=("per-stage", "threshold", "accuracy-drop"),
        default="per-stage",
        help="cloud-side update scheduler policy for 'fleet'",
    )
    parser.add_argument(
        "--fleet-seed",
        type=int,
        default=0,
        help="fleet scenario seed for 'fleet'",
    )
    parser.add_argument(
        "--mode",
        default="lockstep",
        help=(
            "fleet simulation mode: 'lockstep' (stage barrier, the "
            "reference; with '--topology fan-out' it runs the event "
            "engine's barrier mode) or 'event' (asynchronous epochs on "
            "the discrete-event kernel)"
        ),
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=None,
        help=(
            "virtual-time budget in seconds for '--mode event': nodes "
            "cycle their acquisition schedule until the horizon"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool workers for per-node fleet computation in "
            "'--mode lockstep' on a flat fleet (default: 1 = serial; any "
            "value produces bit-identical results)"
        ),
    )
    parser.add_argument(
        "--topology",
        choices=("flat", "fan-out"),
        default="flat",
        help=(
            "fleet wiring for 'fleet': 'flat' (every node talks straight "
            "to the Cloud; the default, unchanged output) or 'fan-out' "
            "(nodes grouped under gateways that aggregate uploads; see "
            "--fan-out and the --agg-*/--second-opinion knobs)"
        ),
    )
    parser.add_argument(
        "--fan-out",
        type=int,
        default=4,
        help="nodes per gateway for '--topology fan-out' (default: 4)",
    )
    parser.add_argument(
        "--agg-images",
        type=int,
        default=32,
        help=(
            "gateway flush threshold in buffered images for "
            "'--topology fan-out' (default: 32); 0 disables aggregation"
        ),
    )
    parser.add_argument(
        "--agg-age-stages",
        type=int,
        default=2,
        help=(
            "flush when the oldest buffered upload is this many stages "
            "old, for '--topology fan-out' (default: 2)"
        ),
    )
    parser.add_argument(
        "--second-opinion",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help=(
            "fraction of flagged inputs the gateway model resolves "
            "locally instead of escalating, for '--topology fan-out' "
            "(default: 0.0 = disabled)"
        ),
    )
    parser.add_argument(
        "--overhead-bytes",
        type=int,
        default=2_000,
        help=(
            "fixed per-WAN-transfer framing overhead in bytes for "
            "'--topology fan-out' (default: 2000)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a virtual-time trace of the 'fleet' experiment to PATH "
            "(schema-v1 JSONL; see --trace-format)"
        ),
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help=(
            "trace format for --trace: 'jsonl' (byte-deterministic schema "
            "v1) or 'chrome' (trace_event JSON for chrome://tracing / "
            "Perfetto)"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the 'fleet' experiment's metrics dump (JSON) to PATH",
    )
    args = parser.parse_args(argv)
    # choices= with nargs="*" rejects the no-argument case on some
    # CPython patch releases (gh-73484), so validation happens here.
    valid = set(_EXPERIMENTS) | {"all", "fleet"}
    selected = args.experiments or ["all"]
    if args.nodes < 1:
        parser.error("--nodes must be at least 1")
    # --mode is validated manually for the same reason as experiment
    # names: keep every argument failure on one consistent path.
    if args.mode not in ("lockstep", "event"):
        parser.error(
            f"invalid mode {args.mode!r} (choose from event, lockstep)"
        )
    if args.horizon is not None:
        if args.mode != "event":
            parser.error("--horizon only applies to --mode event")
        if args.horizon <= 0:
            parser.error("--horizon must be positive")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.workers > 1 and args.mode == "event":
        parser.error("--workers only applies to --mode lockstep")
    if args.workers > 1 and args.topology != "flat":
        # Hierarchical fleets run on the event engine; the worker pool
        # serves only the flat lockstep stage loop.
        parser.error(
            "--workers > 1 cannot be combined with --topology "
            f"{args.topology}: the worker pool runs only flat fleets"
        )
    for name in selected:
        if name not in valid:
            parser.error(
                f"invalid experiment {name!r} (choose from "
                f"{', '.join(sorted(valid))})"
            )
    if (args.trace or args.metrics) and "fleet" not in selected:
        parser.error("--trace/--metrics only apply to the 'fleet' experiment")
    topology = None
    if args.topology == "fan-out":
        from repro.topology import AggregationPolicy, Topology

        if args.fan_out < 1:
            parser.error("--fan-out must be at least 1")
        if args.agg_images < 0:
            parser.error("--agg-images must be >= 0")
        if args.agg_age_stages < 1:
            parser.error("--agg-age-stages must be at least 1")
        if not 0.0 <= args.second_opinion <= 1.0:
            parser.error("--second-opinion must be in [0, 1]")
        if args.overhead_bytes < 0:
            parser.error("--overhead-bytes must be >= 0")
        aggregation = (
            AggregationPolicy(
                flush_images=args.agg_images,
                max_age_stages=args.agg_age_stages,
            )
            if args.agg_images > 0
            else AggregationPolicy(enabled=False)
        )
        topology = Topology.fan_out(
            args.nodes,
            args.fan_out,
            aggregation=aggregation,
            second_opinion_fraction=args.second_opinion,
            per_transfer_overhead_bytes=args.overhead_bytes,
        )
    if "all" in selected:
        selected = sorted(_EXPERIMENTS)
    tracer = None
    metrics = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    if args.metrics:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    for name in selected:
        if name == "fleet":
            if args.mode == "event" or topology is not None:
                # A lockstep hierarchy is the event engine's barrier run.
                print(
                    _render_fleet_event(
                        args.nodes,
                        args.policy,
                        args.fleet_seed,
                        args.horizon,
                        barrier=args.mode == "lockstep",
                        tracer=tracer,
                        metrics=metrics,
                        topology=topology,
                    )
                )
            else:
                print(
                    _render_fleet(
                        args.nodes,
                        args.policy,
                        args.fleet_seed,
                        workers=args.workers,
                        tracer=tracer,
                        metrics=metrics,
                    )
                )
        else:
            print(_EXPERIMENTS[name]())
        print()
    if tracer is not None:
        if args.trace_format == "chrome":
            tracer.write_chrome(args.trace)
        else:
            tracer.write_jsonl(args.trace)
    if metrics is not None:
        metrics.write_json(args.metrics)
    return 0
