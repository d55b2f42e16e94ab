"""Analytical experiment sweeps behind the paper's figures.

Each figure is defined once, here: ``figNN_rows`` computes its data
series from the hardware models as a list of dicts, and ``figNN_table``
formats those rows into the figure's text table (title, header, cell
formats).  :data:`FIGURES` pairs the two per experiment name;
``python -m repro`` renders every entry from it, and each
``benchmarks/bench_figNN_*.py`` asserts on the rows and prints the same
table text.  The training experiments (Table I, Figs. 5-7, Table II,
Fig. 25) are seeded claims in :mod:`repro.reports.claims`.
"""

from __future__ import annotations

from typing import Callable

from repro.core import SingleRunningPlanner
from repro.hw import (
    TX1,
    VX690T,
    MeasuredGPU,
    NWSArch,
    TmTnEngine,
    WSArch,
    WSSArch,
    best_design,
    co_running_latency,
    simulate_corun,
    simulate_pipeline,
)
from repro.hw import fpga as fpga_model
from repro.hw import gpu as gpu_model
from repro.hw.pipeline import ARCH_FACTORIES
from repro.models import alexnet_spec, diagnosis_spec, vgg16_spec
from repro.models.layer_specs import NetworkSpec
from repro.reports.tables import format_table

__all__ = [
    "FIGURES",
    "fig11_rows",
    "fig11_table",
    "fig12_rows",
    "fig12_table",
    "fig14_rows",
    "fig14_table",
    "fig15_rows",
    "fig15_table",
    "fig16_rows",
    "fig16_table",
    "fig21_rows",
    "fig21_table",
    "fig22_rows",
    "fig22_table",
    "fig23_rows",
    "fig23_table",
    "engine_search_rows",
    "engine_search_table",
    "eventsim_rows",
    "eventsim_table",
]

_FIG11_BATCHES = (1, 2, 4, 8, 16, 32, 64)
_FIG12_BATCHES = (1, 2, 4, 8, 16, 32)
_FIG14_BATCHES = (1, 4, 16, 64)
_FIG15_BATCHES = (1, 2, 4, 8, 16, 32)
_FIG16_DUTIES = (0.0, 0.25, 0.5, 0.75, 1.0)
_FIG21_REQS = {
    "AlexNet": (0.05, 0.1, 0.25, 0.5),
    "VGGNet": (0.25, 0.5, 1.0, 2.0),
}
_FIG22_DEPTHS = (0, 3, 5)
_FIG22_PE_BUDGET = 2628
_FIG23_REQS_MS = (50, 100, 200, 400, 800)


def fig11_rows() -> list[dict]:
    """Latency and perf/W vs batch on TX1 and VX690T (Fig. 11)."""
    net = alexnet_spec()
    engine = TmTnEngine.best_for(net.conv_layers, 2048)
    rows = []
    for batch in _FIG11_BATCHES:
        gpu_t = gpu_model.network_time(net, TX1, batch)
        fpga_t = fpga_model.network_time(net, engine, VX690T, batch)
        rows.append(
            {
                "batch": batch,
                "gpu_latency_ms": gpu_t.total_s * 1e3,
                "gpu_ppw": gpu_model.perf_per_watt(net, TX1, batch),
                "fpga_latency_ms": fpga_t.total_s * 1e3,
                "fpga_ppw": fpga_model.perf_per_watt(
                    net, engine, VX690T, batch
                ),
            }
        )
    return rows


def fig11_table(rows: list[dict]) -> str:
    return format_table(
        "Fig. 11 — AlexNet latency & perf/W vs batch",
        ["batch", "GPU ms", "GPU img/s/W", "FPGA ms", "FPGA img/s/W"],
        [
            [
                r["batch"],
                f"{r['gpu_latency_ms']:.1f}",
                f"{r['gpu_ppw']:.2f}",
                f"{r['fpga_latency_ms']:.1f}",
                f"{r['fpga_ppw']:.2f}",
            ]
            for r in rows
        ],
    )


def fig12_rows() -> list[dict]:
    """FCN share of runtime vs batch (Fig. 12)."""
    net = alexnet_spec()
    engine = TmTnEngine.best_for(net.conv_layers, 2048)
    rows = []
    for batch in _FIG12_BATCHES:
        gpu_t = gpu_model.network_time(net, TX1, batch)
        fpga_t = fpga_model.network_time(
            net, engine, VX690T, batch, batch_optimized=False
        )
        rows.append(
            {
                "batch": batch,
                "gpu_fc_frac": gpu_t.fc_s / gpu_t.total_s,
                "fpga_fc_frac": fpga_t.fc_s / fpga_t.total_s,
            }
        )
    return rows


def fig12_table(rows: list[dict]) -> str:
    return format_table(
        "Fig. 12 — FCN share of inference runtime",
        ["batch", "GPU FCN %", "FPGA FCN %"],
        [
            [r["batch"], f"{r['gpu_fc_frac']:.1%}", f"{r['fpga_fc_frac']:.1%}"]
            for r in rows
        ],
    )


def fig14_rows() -> list[dict]:
    """Per-layer-type perf/W, with and without the FCN batch loop
    (Figs. 13-14)."""
    net = alexnet_spec()
    conv_only = NetworkSpec(f"{net.name}-conv", net.conv_layers)
    fc_only = NetworkSpec(f"{net.name}-fc", net.fc_layers)
    engine = TmTnEngine.best_for(net.conv_layers, 2048)
    rows = []
    for batch in _FIG14_BATCHES:
        rows.append(
            {
                "batch": batch,
                "gpu_conv": gpu_model.perf_per_watt(conv_only, TX1, batch),
                "gpu_fc": gpu_model.perf_per_watt(fc_only, TX1, batch),
                "fpga_conv": fpga_model.perf_per_watt(
                    conv_only, engine, VX690T, batch
                ),
                "fpga_fc_nobatch": fpga_model.perf_per_watt(
                    fc_only, engine, VX690T, batch, batch_optimized=False
                ),
                "fpga_fc_batch": fpga_model.perf_per_watt(
                    fc_only, engine, VX690T, batch, batch_optimized=True
                ),
                "gpu_all": gpu_model.perf_per_watt(net, TX1, batch),
                "fpga_all": fpga_model.perf_per_watt(
                    net, engine, VX690T, batch
                ),
            }
        )
    return rows


def fig14_table(rows: list[dict]) -> str:
    columns = ("gpu_conv", "gpu_fc", "fpga_conv", "fpga_fc_nobatch",
               "fpga_fc_batch", "gpu_all", "fpga_all")
    return format_table(
        "Fig. 13-14 — perf/W (img/s/W) by layer type",
        ["batch", "GPU conv", "GPU fc", "FPGA conv", "FPGA fc (no opt)",
         "FPGA fc (batch)", "GPU all", "FPGA all"],
        [[r["batch"]] + [f"{r[c]:.1f}" for c in columns] for r in rows],
    )


def fig15_rows() -> list[dict]:
    """GPU (Eq. 3) vs FPGA (Eq. 4) utilization vs batch (Fig. 15)."""
    net = alexnet_spec()
    engine = TmTnEngine.best_for(net.conv_layers, 2048)
    fc6 = net.layer("fc6")
    conv3 = net.layer("conv3")
    return [
        {
            "batch": batch,
            "gpu_fc6": gpu_model.utilization(fc6, TX1, batch),
            "gpu_conv3": gpu_model.utilization(conv3, TX1, batch),
            "fpga_conv3": engine.utilization(conv3),
        }
        for batch in _FIG15_BATCHES
    ]


def fig15_table(rows: list[dict]) -> str:
    return format_table(
        "Fig. 15 — resource utilization vs batch",
        ["batch", "GPU fc6 util", "GPU conv3 util", "FPGA conv3 util"],
        [
            [r["batch"]]
            + [f"{r[c]:.2f}" for c in ("gpu_fc6", "gpu_conv3", "fpga_conv3")]
            for r in rows
        ],
    )


def fig16_rows() -> list[dict]:
    """GPU co-running interference vs diagnosis duty (Fig. 16)."""
    net = alexnet_spec()
    diag = diagnosis_spec(net)
    return [
        {
            "duty": duty,
            "result": co_running_latency(net, diag, TX1, diagnosis_duty=duty),
        }
        for duty in _FIG16_DUTIES
    ]


def fig16_table(rows: list[dict]) -> str:
    return format_table(
        "Fig. 16 — GPU co-running interference",
        ["diag duty", "inf solo ms", "inf co-run ms", "slowdown"],
        [
            [
                f"{r['duty']:.2f}",
                f"{r['result'].inference_solo_s * 1e3:.1f}",
                f"{r['result'].inference_corun_s * 1e3:.1f}",
                f"{r['result'].inference_slowdown:.2f}x",
            ]
            for r in rows
        ],
    )


def fig21_rows() -> list[dict]:
    """Model-guided vs non-batch vs brute-force batch selection (Fig. 21)."""
    networks = {"AlexNet": alexnet_spec(), "VGGNet": vgg16_spec()}
    sim = MeasuredGPU(TX1)
    planner = SingleRunningPlanner(TX1)
    rows = []
    for name, net in networks.items():
        for req in _FIG21_REQS[name]:
            model_batch = planner.inference_batch(
                net, latency_requirement_s=req
            )
            best_batch = sim.brute_force_best_batch(
                net, latency_requirement_s=req, max_batch=128
            )
            nonbatch = sim.measure_perf_per_watt(net, 1)
            model = sim.measure_perf_per_watt(net, model_batch)
            best = sim.measure_perf_per_watt(net, best_batch)
            rows.append(
                {
                    "net": name,
                    "req_ms": req * 1e3,
                    "model_batch": model_batch,
                    "best_batch": best_batch,
                    "speedup_vs_nonbatch": model / nonbatch,
                    "fraction_of_best": model / best,
                }
            )
    return rows


def fig21_table(rows: list[dict]) -> str:
    return format_table(
        "Fig. 21 — model-guided batch selection",
        ["net", "req ms", "model batch", "best batch",
         "speedup vs non-batch", "% of best"],
        [
            [
                r["net"],
                f"{r['req_ms']:.0f}",
                r["model_batch"],
                r["best_batch"],
                f"{r['speedup_vs_nonbatch']:.2f}x",
                f"{r['fraction_of_best']:.1%}",
            ]
            for r in rows
        ],
    )


def fig22_rows() -> list[dict]:
    """NWS / WS / WSS conv runtime at the 2628-PE budget (Fig. 22)."""
    net = alexnet_spec()
    diag = diagnosis_spec(net)
    archs = {
        "NWS": NWSArch(_FIG22_PE_BUDGET, shape_for=net.conv_layers),
        "WS": WSArch(_FIG22_PE_BUDGET, shape_for=net.conv_layers),
        "WSS": WSSArch(_FIG22_PE_BUDGET),
    }
    rows = []
    for name, arch in archs.items():
        for depth in _FIG22_DEPTHS:
            rt = arch.conv_runtime(net, diag, VX690T, shared_depth=depth)
            rows.append(
                {
                    "arch": name,
                    "depth": depth,
                    "compute_ms": rt.compute_s * 1e3,
                    "access_ms": rt.weight_access_s * 1e3,
                    "total_ms": rt.total_s * 1e3,
                    "idle": rt.diagnosis_idle_fraction,
                }
            )
    return rows


def fig22_table(rows: list[dict]) -> str:
    return format_table(
        f"Fig. 22 — CONV runtime at {_FIG22_PE_BUDGET} PEs",
        ["arch", "sharing", "compute ms", "access ms", "total ms",
         "diag idle"],
        [
            [
                r["arch"],
                f"CONV-{r['depth']}",
                f"{r['compute_ms']:.2f}",
                f"{r['access_ms']:.2f}",
                f"{r['total_ms']:.2f}",
                f"{r['idle']:.0%}",
            ]
            for r in rows
        ],
    )


def fig23_rows() -> list[dict]:
    """Pipeline throughput under latency requirements (Fig. 23)."""
    net = alexnet_spec()
    diag = diagnosis_spec(net)
    rows = []
    for req_ms in _FIG23_REQS_MS:
        for arch in ARCH_FACTORIES:
            timing = best_design(
                arch,
                net,
                diag,
                VX690T,
                latency_requirement_s=req_ms / 1e3,
                max_batch=64,
            )
            rows.append(
                {
                    "req_ms": req_ms,
                    "arch": arch,
                    "ips": None if timing is None else timing.throughput_ips,
                    "batch": None
                    if timing is None
                    else timing.design.batch_size,
                }
            )
    return rows


def fig23_table(rows: list[dict]) -> str:
    reqs = sorted({r["req_ms"] for r in rows})
    archs = list(dict.fromkeys(r["arch"] for r in rows))
    by_key = {(r["req_ms"], r["arch"]): r for r in rows}

    def cell(r: dict) -> str:
        return "x" if r["ips"] is None else f"{r['ips']:.0f} (B{r['batch']})"

    return format_table(
        "Fig. 23 — max throughput (img/s) vs latency requirement",
        ["req ms"] + archs,
        [[req] + [cell(by_key[(req, arch)]) for arch in archs] for req in reqs],
    )


def engine_search_rows(budgets: tuple[int, ...] = (512, 1024, 2628)) -> list[dict]:
    """Tm/Tn design-space search vs naive square engines (ablation)."""
    rows = []
    for spec in (alexnet_spec(), vgg16_spec()):
        for budget in budgets:
            tuned = TmTnEngine.best_for(spec.conv_layers, budget)
            naive = TmTnEngine.from_budget(budget)
            tuned_cycles = sum(tuned.conv_cycles(s) for s in spec.conv_layers)
            naive_cycles = sum(naive.conv_cycles(s) for s in spec.conv_layers)
            rows.append(
                {
                    "net": spec.name,
                    "budget": budget,
                    "tuned": f"{tuned.tm}x{tuned.tn}",
                    "naive": f"{naive.tm}x{naive.tn}",
                    "gain": naive_cycles / tuned_cycles,
                }
            )
    return rows


def engine_search_table(rows: list[dict]) -> str:
    return format_table(
        "Ablation — Tm/Tn search vs square engine",
        ["network", "PE budget", "tuned", "square", "speedup"],
        [
            [r["net"], r["budget"], r["tuned"], r["naive"], f"{r['gain']:.2f}x"]
            for r in rows
        ],
    )


def eventsim_rows() -> list[dict]:
    """Closed-form models vs their discrete-event replay (validation).

    The WSS-NWS pipeline simulator must hit Eq. (13)'s throughput and
    bound its service latency; the GPU kernel-interleaving simulator must
    land in the paper's "up to 3X" interference band.
    """
    net = alexnet_spec()
    diag = diagnosis_spec(net)
    rows = []
    for req in (0.1, 0.4):
        timing = best_design(
            "WSS-NWS", net, diag, VX690T, latency_requirement_s=req,
            max_batch=32,
        )
        sim = simulate_pipeline(timing.design, net, diag, VX690T)
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
        sim = simulate_corun(net, diag, TX1, diagnosis_batch=batch)
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


def eventsim_table(rows: list[dict]) -> str:
    return format_table(
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


#: Experiment name -> (rows, table): ``table(rows())`` is the figure's
#: text, printed by ``python -m repro`` and by its benchmark alike.
FIGURES: dict[str, tuple[Callable[[], list[dict]], Callable[..., str]]] = {
    "fig11": (fig11_rows, fig11_table),
    "fig12": (fig12_rows, fig12_table),
    "fig14": (fig14_rows, fig14_table),
    "fig15": (fig15_rows, fig15_table),
    "fig16": (fig16_rows, fig16_table),
    "fig21": (fig21_rows, fig21_table),
    "fig22": (fig22_rows, fig22_table),
    "fig23": (fig23_rows, fig23_table),
    "engines": (engine_search_rows, engine_search_table),
    "eventsim": (eventsim_rows, eventsim_table),
}
