"""Hierarchical topology: WAN transfer amortization vs the flat fleet.

Beyond the paper: the paper's fleet talks straight to the Cloud, paying
per-upload framing on every flagged batch.  This bench sweeps gateway
fan-out × aggregation threshold over one 8-node fleet and compares
against the flat wiring on two axes:

* **cost** — WAN transfer events and total per-transfer framing
  overhead must drop as gateways batch harder;
* **accuracy** — at fan-out 8 with ``flush_images=1`` the single
  gateway forwards every stage's pool verbatim (same contents, same
  order) and canaries on the same all-node region as a
  ``canary_fraction=1.0`` flat fleet, so the learning trajectory is
  *identical* to flat while WAN transfers collapse by the fan-out
  factor — amortization is free at the learning level.

The flat baseline's "transfer events" are its per-node uploads (each a
WAN transfer in the flat wiring); the hierarchy's are gateway flushes.
Both sides run on the event engine's barrier mode
(``run_fleet_event(barrier=True)``), the only engine with a gateway tier.
"""

from __future__ import annotations

import pytest

from repro.core import system_by_id
from repro.fleet import (
    FleetScenario,
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet_event,
)
from repro.reports import format_table
from repro.topology import AggregationPolicy, Topology

NUM_NODES = 8
OVERHEAD_BYTES = 2_000
FAN_OUTS = (2, 8)
FLUSH_THRESHOLDS = (1, 32)


def _assets():
    return prepare_fleet_assets(
        FleetScenario(
            base=fleet_base_scenario(
                stream_scale=0.02,
                pretrain_images=64,
                pretrain_epochs=1,
                init_epochs=2,
                update_epochs=1,
                eval_images=48,
            ),
            num_nodes=NUM_NODES,
            canary_fraction=1.0,  # flat canaries everywhere, like a
            seed=0,               # single all-node gateway region
        )
    )


def _accuracies(report) -> list[float]:
    return [u.eval_accuracy for u in report.updates]


def sweep():
    assets = _assets()
    config = system_by_id("d")
    flat = run_fleet_event(config, assets, barrier=True)
    flat_uploads = sum(
        1 for t in flat.nodes for r in t.records if r.uploaded > 0
    )
    rows = {}
    for fan_out in FAN_OUTS:
        for flush_images in FLUSH_THRESHOLDS:
            topology = Topology.fan_out(
                NUM_NODES,
                fan_out,
                aggregation=AggregationPolicy(
                    flush_images=flush_images, max_age_stages=2
                ),
                per_transfer_overhead_bytes=OVERHEAD_BYTES,
            )
            rows[(fan_out, flush_images)] = run_fleet_event(
                config, assets, barrier=True, topology=topology
            )
    return flat, flat_uploads, rows


@pytest.mark.slow
def bench_topology(benchmark):
    flat, flat_uploads, rows = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    table = format_table(
        "Gateway aggregation — WAN transfers and framing overhead vs flat",
        ["wiring", "WAN xfers", "overhead kB", "WAN up MB", "final acc"],
        [
            [
                "flat",
                flat_uploads,
                f"{flat_uploads * OVERHEAD_BYTES / 1e3:.0f}",
                f"{flat.total_uploaded_bytes / 1e6:.0f}",
                f"{flat.final_eval_accuracy:.0%}",
            ]
        ]
        + [
            [
                f"fan-out {fan_out}, flush@{flush}",
                s.wan_transfer_events,
                f"{s.transfer_overhead_bytes / 1e3:.0f}",
                f"{s.gateway_to_cloud_bytes / 1e6:.0f}",
                f"{r.final_eval_accuracy:.0%}",
            ]
            for (fan_out, flush), r in sorted(rows.items())
            for s in (r.ledger.snapshot(),)
        ],
    )
    print("\n" + table)

    # Fan-out 8 + flush-every-stage is learning-equivalent to flat: the
    # single gateway forwards each stage's pool verbatim to the same
    # all-node canary region.
    relay = rows[(8, 1)]
    assert _accuracies(relay) == _accuracies(flat)
    assert relay.final_eval_accuracy == flat.final_eval_accuracy

    # ... while already amortizing WAN transfers by the fan-out factor.
    for (fan_out, flush), report in rows.items():
        snap = report.ledger.snapshot()
        assert snap.wan_transfer_events < flat_uploads
        assert (
            snap.transfer_overhead_bytes < flat_uploads * OVERHEAD_BYTES
        )

    # Batching harder never takes more WAN transfers at a given fan-out.
    for fan_out in FAN_OUTS:
        by_flush = [
            rows[(fan_out, f)].ledger.snapshot().wan_transfer_events
            for f in FLUSH_THRESHOLDS
        ]
        assert by_flush == sorted(by_flush, reverse=True)

    # Wider fan-out concentrates flushes at the hardest batching level.
    assert (
        rows[(8, 32)].ledger.snapshot().wan_transfer_events
        <= rows[(2, 32)].ledger.snapshot().wan_transfer_events
    )
