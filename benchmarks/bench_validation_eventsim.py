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

from repro.reports.figures import eventsim_rows, eventsim_table


def bench_validation_eventsim(benchmark):
    rows = benchmark.pedantic(eventsim_rows, rounds=1, iterations=1)
    print("\n" + eventsim_table(rows))
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
