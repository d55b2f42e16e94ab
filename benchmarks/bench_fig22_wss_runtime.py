"""Fig. 22: CONV-layer runtime on NWS, WS, and WSS at equal PE count.

Paper claims: with the same number of PEs (2628), WSS outperforms both
baselines on compute time; WS is worst (its uniform unrolling leaves the
diagnosis engines idle ~75% of cycles); weight-access time falls as more
layers are shared (CONV-0 -> CONV-3 -> CONV-5) for the sharing
architectures but not for NWS.
"""

from __future__ import annotations

from repro.reports.figures import fig22_rows, fig22_table


def bench_fig22_wss_runtime(benchmark):
    rows = benchmark.pedantic(fig22_rows, rounds=1, iterations=1)
    print("\n" + fig22_table(rows))
    depths = sorted({r["depth"] for r in rows})
    by_key = {(r["arch"], r["depth"]): r for r in rows}
    for depth in depths:
        # WSS < NWS < WS on total runtime at every sharing strategy.
        assert (
            by_key[("WSS", depth)]["total_ms"]
            < by_key[("NWS", depth)]["total_ms"]
            < by_key[("WS", depth)]["total_ms"]
        )
    # Weight-access time decreases with sharing depth for WS/WSS only.
    for arch in ("WS", "WSS"):
        access = [by_key[(arch, d)]["access_ms"] for d in depths]
        assert access[0] > access[1] > access[2]
    nws_access = [by_key[("NWS", d)]["access_ms"] for d in depths]
    assert len(set(nws_access)) == 1
    # WS diagnosis engines idle ~75% of cycles.
    assert 0.65 < by_key[("WS", 3)]["idle"] < 0.85
