"""Fleet scaling: aggregate data movement and Cloud update cost vs. N.

Beyond the paper: Table II and Fig. 25 are per-node claims.  This bench
re-runs the four Fig. 24 variants as a *fleet* of N ∈ {1, 4, 16, 64}
heterogeneous nodes sharing one backhaul and one Cloud, and checks that
the paper's headline — diagnosis-based systems (c, d) move less data —
survives aggregation: at every fleet size c and d must move strictly
fewer aggregate bytes (uplink + model push-downs) than the
upload-everything systems (a, b).
"""

from __future__ import annotations

import pytest

from repro.core import SYSTEMS, system_by_id
from repro.fleet import (
    FleetScenario,
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
    run_fleet_event,
)

FLEET_SIZES = (1, 4, 16, 64)

#: virtual-time budget for the heterogeneous-horizon leg of the mode bench
HORIZON_S = 10.0


def _scenario(num_nodes: int, **overrides) -> FleetScenario:
    kwargs = dict(
        base=fleet_base_scenario(
            stream_scale=0.02,
            pretrain_images=64,
            pretrain_epochs=1,
            init_epochs=2,
            update_epochs=1,
            eval_images=48,
        ),
        num_nodes=num_nodes,
        seed=0,
    )
    kwargs.update(overrides)
    return FleetScenario(**kwargs)


def _all_systems(scenario: FleetScenario) -> dict:
    """Every Fig. 24 variant's barrier run over one set of fleet assets."""
    assets = prepare_fleet_assets(scenario)
    return {config.system_id: run_fleet(config, assets) for config in SYSTEMS}


def sweep():
    return {n: _all_systems(_scenario(n)) for n in FLEET_SIZES}


def final_upload_s(report) -> float:
    """The slowest node upload of the final stage, under contention."""
    return max(t.records[-1].upload_wait_s for t in report.nodes)


def max_barrier_idle_s(report) -> float:
    """Longest a node spent neither computing nor uploading in a run.

    Under the barrier that is time spent waiting for slower nodes, for
    the Cloud's retrain, and for the model push.
    """
    return max(
        report.makespan_s
        - sum(r.compute_time_s + r.upload_wait_s for r in t.records)
        for t in report.nodes
    )


@pytest.mark.slow
def bench_fleet_scaling(benchmark, tables):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    mb = 1e6
    tables(
        "Fleet scaling — aggregate bytes moved (MB) and Cloud update time (s)",
        ["nodes"]
        + [f"{sid} MB" for sid in "abcd"]
        + [f"{sid} s" for sid in "abcd"],
        [
            [n]
            + [f"{results[n][sid].total_bytes_moved / mb:.1f}" for sid in "abcd"]
            + [f"{results[n][sid].total_update_time_s:.2f}" for sid in "abcd"]
            for n in FLEET_SIZES
        ],
    )
    tables(
        "Fleet scaling — slowest upload of the final stage (s, contended)",
        ["nodes", "a", "b", "c", "d"],
        [
            [n] + [f"{final_upload_s(results[n][sid]):.1f}" for sid in "abcd"]
            for n in FLEET_SIZES
        ],
    )
    for n in FLEET_SIZES:
        by_id = results[n]
        # Diagnosis-based variants (Fig. 24 c/d) must move strictly fewer
        # aggregate bytes than upload-everything variants at every size.
        for lean in ("c", "d"):
            for fat in ("a", "b"):
                assert (
                    by_id[lean].total_bytes_moved < by_id[fat].total_bytes_moved
                ), f"N={n}: system {lean} should move fewer bytes than {fat}"
        # Weight sharing (d) must cut Cloud update time vs. everything else.
        assert (
            by_id["d"].total_update_time_s < by_id["a"].total_update_time_s
        )
        # Contention: a/b saturate the backhaul at least as long as c/d.
        assert final_upload_s(by_id["a"]) >= final_upload_s(by_id["c"])


def sweep_modes():
    """System d, barrier (``run_fleet``) vs asynchronous, at every size."""
    out = {}
    for n in FLEET_SIZES:
        assets = prepare_fleet_assets(_scenario(n))
        lockstep = run_fleet(system_by_id("d"), assets)
        event = run_fleet_event(system_by_id("d"), assets)
        out[n] = (assets, lockstep, event)
    return out


def run_horizon_leg():
    """WiFi/LTE mix under a fixed virtual-time horizon (same boards)."""
    assets = prepare_fleet_assets(
        _scenario(4, lte_fraction=0.5, low_power_fraction=0.0)
    )
    lockstep = run_fleet(system_by_id("d"), assets)
    event = run_fleet_event(system_by_id("d"), assets, horizon_s=HORIZON_S)
    return assets, lockstep, event


@pytest.mark.slow
def bench_fleet_modes(benchmark, tables):
    """Lockstep barrier vs event-driven asynchrony, system d.

    The lockstep stage barrier (``run_fleet``: the event engine's barrier
    mode) makes every node wait for the slowest upload and the Cloud
    retrain; the asynchronous mode overlaps all of it.  This bench reports
    the virtual-time makespan of both modes and the longest a node sat
    idle under the barrier, then reruns a WiFi/LTE mix
    under a fixed horizon where asynchrony shows up as epoch-count
    divergence — fast nodes simply get more work done.
    """

    def full():
        return sweep_modes(), run_horizon_leg()

    modes, horizon_leg = benchmark.pedantic(full, rounds=1, iterations=1)
    rows = []
    for n, (assets, lockstep, event) in modes.items():
        stall_s = max_barrier_idle_s(lockstep)
        rows.append(
            [
                n,
                f"{lockstep.makespan_s:.1f}",
                f"{event.makespan_s:.1f}",
                f"{stall_s:.1f}",
                f"{max(t.blocked_on_uplink_s for t in event.nodes):.1f}",
            ]
        )
        num_stages = len(assets.node_stages[0])
        # Same full schedule in both modes: every node completes exactly
        # the stage count, barrier or not.
        assert set(event.epochs_by_node.values()) == {num_stages}
        assert all(len(t.records) == num_stages for t in lockstep.nodes)
        # The barrier idles somebody at every fleet size, if only while
        # the Cloud retrains.
        assert stall_s > 0.0
    tables(
        "Fleet modes (system d) — virtual-time makespan and barrier stall",
        ["nodes", "lockstep s", "event s", "lockstep idle max s",
         "event uplink-blocked max s"],
        rows,
    )

    assets, lockstep, event = horizon_leg
    by_link: dict[str, list[int]] = {"wifi": [], "lte": []}
    for profile in assets.profiles:
        by_link[profile.link_kind].append(
            event.epochs_by_node[profile.node_id]
        )
    tables(
        f"Heterogeneous horizon ({HORIZON_S:.0f}s, system d) — epochs "
        "completed per node",
        ["node", "link", "event epochs", "lockstep epochs",
         "blocked on uplink s"],
        [
            [
                p.node_id,
                p.link_kind,
                event.epochs_by_node[p.node_id],
                len(lockstep.nodes[p.node_id].records),
                f"{event.nodes[p.node_id].blocked_on_uplink_s:.1f}",
            ]
            for p in assets.profiles
        ],
    )
    # Event-driven: every WiFi node strictly outpaces every LTE node in
    # the same virtual-time horizon; lockstep keeps all counts equal.
    assert min(by_link["wifi"]) > max(by_link["lte"])
    assert len({len(t.records) for t in lockstep.nodes}) == 1
