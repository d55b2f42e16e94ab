"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates the paper's tables and figures without pytest.  Each
analytical figure's table is defined once, in
:data:`repro.reports.figures.FIGURES`, and each training claim once, in
:data:`repro.reports.claims.CLAIMS` (rows plus the formatter that turns
them into text); this module only adds ``specs`` and the ``fleet``
experiment, and the benches print the same text.  Like ``fleet``, a
training claim runs only when named, at ``--seed``.
"""

from __future__ import annotations

import argparse
import os
from typing import Callable

from repro.obs import MetricsRegistry, Tracer
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
    scenario,
    horizon: float | None,
    *,
    barrier: bool,
    tracer=None,
    metrics=None,
    topology=None,
) -> str:
    """Beyond the paper: the four Fig. 24 variants at fleet scale.

    ``barrier=True`` is the paper's stage-by-stage protocol (the event
    engine's barrier mode, over the flat fleet or a hierarchy);
    ``barrier=False`` runs asynchronous epochs, up to ``horizon`` if set.
    """
    from repro.core.systems import SYSTEMS
    from repro.fleet import prepare_fleet_assets, run_fleet_event

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
        f"Event-driven fleet{barrier_label} ({scenario.num_nodes} nodes, "
        f"policy={scenario.scheduler_policy}, {horizon_label}) — movement, "
        "Cloud update cost and virtual time",
        ["system", "up MB", "down MB", "total MB", "reduction", "cloud s",
         "cloud kJ", "radio J", "final acc", "makespan s", "epochs min-max"],
        [
            [
                sid,
                f"{r.total_uploaded_bytes / mb:.0f}",
                f"{r.total_downloaded_bytes / mb:.0f}",
                f"{r.total_bytes_moved / mb:.0f}",
                f"{r.ledger.overall_reduction_vs_full():.0%}",
                f"{r.total_update_time_s:.1f}",
                f"{r.total_cloud_energy_j / 1e3:.2f}",
                "{:.1f}".format(
                    sum(
                        t.total_upload_energy_j + t.download_energy_j
                        for t in r.nodes
                    )
                ),
                f"{r.final_eval_accuracy:.0%}",
                f"{r.makespan_s:.1f}",
                f"{min(r.epochs_by_node.values())}-"
                f"{max(r.epochs_by_node.values())}",
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
        ["node", "device", "link", "epochs", "uploaded imgs", "up MB",
         "down MB", "blocked on uplink s", "mean acc on new"],
        [
            [
                t.profile.node_id,
                t.profile.device_kind,
                t.profile.link_kind,
                t.epochs_completed,
                t.ledger.total_uploaded_images,
                f"{t.ledger.total_uploaded_bytes / mb:.0f}",
                f"{t.ledger.total_downloaded_bytes / mb:.0f}",
                f"{t.blocked_on_uplink_s:.2f}",
                (
                    f"{sum(t.accuracy_trajectory) / len(t.accuracy_trajectory):.0%}"
                    if t.records
                    else "-"
                ),
            ]
            for t in d.nodes
        ],
    )
    out = aggregate + "\n\n" + rollouts + "\n\n" + per_node
    if topology is not None:
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
            "Regenerate the paper's tables and figures, or run the "
            "beyond-the-paper fleet simulation ('fleet'). "
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
            "which experiments to run (default: all analytical tables). "
            "'fleet' (the multi-node simulation) and the training claims "
            "'table1', 'fig5', 'fig6', 'fig7', 'diagnosis' (the diagnosis "
            "ablation) and 'systems' (Table II + Fig. 25) train networks "
            "and run only when named"
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
        "--seed",
        type=int,
        default=0,
        help="seed for 'fleet' and the training claims (default: 0)",
    )
    parser.add_argument(
        "--mode",
        default="lockstep",
        help=(
            "fleet simulation mode: 'lockstep' (the paper's stage "
            "barrier: the event engine's barrier mode) or 'event' "
            "(asynchronous epochs on the discrete-event kernel)"
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
            "(schema-v1 JSONL; 'python -m repro obs convert --format chrome' "
            "turns it into a chrome://tracing / Perfetto file)"
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
    selected = args.experiments or ["all"]
    if args.seed < 0:
        parser.error(f"--seed must be an integer >= 0, got {args.seed}")
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
    claims = {}
    if set(selected) - set(_EXPERIMENTS) - {"all", "fleet"}:
        from repro.reports.claims import CLAIMS as claims
    valid = set(_EXPERIMENTS) | set(claims) | {"all", "fleet"}
    for name in selected:
        if name not in valid:
            parser.error(
                f"invalid experiment {name!r} (choose from "
                f"{', '.join(sorted(valid))})"
            )
    if (args.trace or args.metrics) and "fleet" not in selected:
        parser.error("--trace/--metrics only apply to the 'fleet' experiment")
    # Refuse an unwritable output before the fleet trains, not after.
    for flag, path in (("--trace", args.trace), ("--metrics", args.metrics)):
        if path and os.path.isdir(path):
            parser.error(f"{flag} {path}: is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"{flag} {path}: no such directory")
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
    if "fleet" in selected:
        from repro.fleet import FleetScenario, fleet_base_scenario

        try:
            scenario = FleetScenario(
                base=fleet_base_scenario(),
                num_nodes=args.nodes,
                scheduler_policy=args.policy,
                seed=args.seed,
            )
        except ValueError as exc:
            parser.error(f"invalid fleet scenario: {exc}")
    if "all" in selected:
        selected = sorted(_EXPERIMENTS)
    tracer = Tracer() if args.trace else None
    metrics = MetricsRegistry() if args.metrics else None
    for name in selected:
        if name == "fleet":
            print(
                _render_fleet(
                    scenario,
                    args.horizon,
                    barrier=args.mode == "lockstep",
                    tracer=tracer,
                    metrics=metrics,
                    topology=topology,
                )
            )
        elif name in claims:
            rows, table = claims[name]
            print(table(rows(args.seed)))
        else:
            print(_EXPERIMENTS[name]())
        print()
    if tracer is not None:
        tracer.write_jsonl(args.trace)
    if metrics is not None:
        metrics.write_json(args.metrics)
    return 0
