"""Model-fidelity validation: closed-form models vs event-driven execution.

Not a paper figure — this bench validates the analytical models the
planners rely on (DESIGN.md §5, "analytical-model fidelity") by replaying
the same layer costs through discrete-event simulators:

* the WSS-NWS pipeline simulator must hit Eq. (13)'s throughput and bound
  its service latency;
* the GPU kernel-interleaving simulator must land in the paper's "up to
  3X" interference band at the batched-diagnosis operating point.
"""

from __future__ import annotations

from repro.hw import TX1, VX690T, best_design, simulate_corun, simulate_pipeline


def run(alexnet, alexnet_diag):
    rows = []
    for req in (0.1, 0.4):
        timing = best_design(
            "WSS-NWS",
            alexnet,
            alexnet_diag,
            VX690T,
            latency_requirement_s=req,
            max_batch=32,
        )
        sim = simulate_pipeline(
            timing.design, alexnet, alexnet_diag, VX690T, num_images=64
        )
        rows.append(
            {
                "kind": "pipeline",
                "point": f"{req * 1e3:.0f}ms",
                "analytical": timing.throughput_ips,
                "simulated": sim.steady_state_throughput_ips(
                    2, timing.design.batch_size
                ),
                "latency_bound_ok": sim.max_service_latency_s
                <= timing.latency_s * 1.05,
            }
        )
    for batch in (8, 16):
        sim = simulate_corun(
            alexnet, alexnet_diag, TX1, diagnosis_batch=batch
        )
        rows.append(
            {
                "kind": "corun",
                "point": f"diagB{batch}",
                "analytical": None,
                "simulated": sim.inference_slowdown,
                "latency_bound_ok": True,
            }
        )
    return rows


def bench_validation_eventsim(benchmark, alexnet, alexnet_diag, tables):
    rows = benchmark.pedantic(
        run, args=(alexnet, alexnet_diag), rounds=1, iterations=1
    )
    tables(
        "Validation — analytical models vs event-driven simulation",
        ["model", "point", "analytical", "simulated", "latency bound"],
        [
            [
                r["kind"],
                r["point"],
                "-" if r["analytical"] is None else f"{r['analytical']:.1f}",
                f"{r['simulated']:.2f}",
                "ok" if r["latency_bound_ok"] else "VIOLATED",
            ]
            for r in rows
        ],
    )
    for r in rows:
        assert r["latency_bound_ok"]
        if r["kind"] == "pipeline":
            # Simulated steady-state throughput within 10% of Eq. (13).
            assert abs(r["simulated"] / r["analytical"] - 1.0) < 0.1
    corun_16 = next(
        r for r in rows if r["kind"] == "corun" and r["point"] == "diagB16"
    )
    # The paper's "up to 3X" interference at the batched operating point.
    assert 2.3 < corun_16["simulated"] < 3.8
