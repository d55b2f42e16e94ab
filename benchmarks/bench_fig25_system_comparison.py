"""Fig. 25: Cloud energy consumption and model update time, systems a-d.

Paper claims: In-situ AI (system d) consumes the least energy — (1) the
diagnosis task shrinks the retraining set (a vs b), and (2) weight sharing
restricts the transfer learning to the last conv layers and FCN head
(c vs d).  Model-update speedup over the traditional system grows from
1.15X at the first stage to 3.3X as data accumulates; overall energy
saving is 30-70%.
"""

from __future__ import annotations

import pytest


def collect(system_results):
    rows = []
    for sid in ("a", "b", "c", "d"):
        report = system_results[sid]
        node = report.nodes[0]
        rows.append(
            {
                "system": sid,
                "name": report.config.name,
                "update_time_s": report.total_update_time_s,
                "cloud_energy_kj": report.total_cloud_energy_j / 1e3,
                "transfer_energy_j": node.total_upload_energy_j,
                "final_accuracy": report.final_eval_accuracy,
                "per_stage_time": [
                    sum(
                        u.modeled_time_s
                        for u in report.updates
                        if u.stage_index == r.stage_index
                    )
                    for r in node.records
                ],
            }
        )
    return rows


@pytest.mark.slow
def bench_fig25_system_comparison(benchmark, system_results, tables):
    rows = benchmark.pedantic(
        collect, args=(system_results,), rounds=1, iterations=1
    )
    by_id = {r["system"]: r for r in rows}
    speedups = [
        (ta / td if td > 0 else float("inf"))
        for ta, td in zip(
            by_id["a"]["per_stage_time"], by_id["d"]["per_stage_time"]
        )
    ]
    tables(
        "Fig. 25 — cloud energy and model update time",
        ["system", "name", "update time s", "cloud kJ", "transfer J",
         "final acc"],
        [
            [
                r["system"],
                r["name"],
                f"{r['update_time_s']:.1f}",
                f"{r['cloud_energy_kj']:.2f}",
                f"{r['transfer_energy_j']:.1f}",
                f"{r['final_accuracy']:.1%}",
            ]
            for r in rows
        ],
    )
    print(
        "update-time speedup (a/d) per stage: "
        + ", ".join(f"{s:.2f}x" for s in speedups)
    )
    # In-situ AI consumes the least cloud energy and updates fastest.
    for sid in ("a", "b", "c"):
        assert (
            by_id["d"]["cloud_energy_kj"] <= by_id[sid]["cloud_energy_kj"]
        )
        assert by_id["d"]["update_time_s"] <= by_id[sid]["update_time_s"]
    # Each optimization step helps: a >= b >= c >= d on update time.
    assert (
        by_id["a"]["update_time_s"]
        >= by_id["c"]["update_time_s"]
        >= by_id["d"]["update_time_s"]
    )
    # Speedup starts near 1X at the shared initial stage and grows.
    assert speedups[0] == 1.0
    assert speedups[-1] > 1.4
    # Total energy saving (cloud + transfer) is substantial.
    total_a = (
        by_id["a"]["cloud_energy_kj"] * 1e3 + by_id["a"]["transfer_energy_j"]
    )
    total_d = (
        by_id["d"]["cloud_energy_kj"] * 1e3 + by_id["d"]["transfer_energy_j"]
    )
    assert 0.25 < 1 - total_d / total_a < 0.9
    # The cheap updates must not destroy accuracy: d stays within reach
    # of the retrain-everything system (paper Fig. 7's point).
    assert by_id["d"]["final_accuracy"] > by_id["a"]["final_accuracy"] - 0.3
