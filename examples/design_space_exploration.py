"""Design-space exploration with the analytical hardware models.

A tour of the hardware substrate for architects: batch-size trade-offs on
the mobile GPU (Eqs. 2-9), FPGA engine shaping, the NWS/WS/WSS comparison
at equal PE budget, and how the weight-sharing depth chosen by the learning
experiments (CONV-3) shows up as off-chip traffic savings.  The engine
shaping and NWS/WS/WSS sections print the sweeps and tables of
``repro.reports.figures`` (``python -m repro engines fig22``).

Run:  python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.hw import TX1, VX690T, WSSArch
from repro.hw import gpu as gpu_model
from repro.models import alexnet_spec, diagnosis_spec
from repro.reports.figures import (
    engine_search_rows,
    engine_search_table,
    fig22_rows,
    fig22_table,
)


def gpu_batch_tradeoff() -> None:
    print("== GPU batch-size trade-off (AlexNet on TX1) ==")
    net = alexnet_spec()
    print(f"{'batch':>6} {'latency ms':>11} {'img/s':>8} {'img/s/W':>8} "
          f"{'FCN share':>10}")
    for batch in (1, 2, 4, 8, 16, 32, 64):
        t = gpu_model.network_time(net, TX1, batch)
        ppw = gpu_model.perf_per_watt(net, TX1, batch)
        print(
            f"{batch:>6} {t.total_s * 1e3:>11.1f} "
            f"{t.throughput_ips:>8.1f} {ppw:>8.2f} "
            f"{t.fc_s / t.total_s:>10.1%}"
        )
    limit = gpu_model.max_batch_under_memory(net, TX1)
    print(f"memory model (Eq. 9): max diagnosis batch = {limit}\n")


def fpga_engine_shaping() -> None:
    print(engine_search_table(engine_search_rows(budgets=(512, 2048))))
    print()


def corunning_architectures() -> None:
    print(fig22_table(fig22_rows()))
    print()


def sharing_depth_traffic() -> None:
    print("== Weight traffic saved by sharing depth (WSS) ==")
    inf = alexnet_spec()
    diag = diagnosis_spec(inf)
    arch = WSSArch(2628)
    base = arch.conv_runtime(inf, diag, VX690T, shared_depth=0)
    for depth in range(6):
        rt = arch.conv_runtime(inf, diag, VX690T, shared_depth=depth)
        saved = 1 - rt.weight_access_s / base.weight_access_s
        print(f"  CONV-{depth}: off-chip weight time saved {saved:5.1%}")


def main() -> None:
    gpu_batch_tradeoff()
    fpga_engine_shaping()
    corunning_architectures()
    sharing_depth_traffic()


if __name__ == "__main__":
    main()
