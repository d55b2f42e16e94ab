"""Hot-path benchmark: rendering, im2col convolution, dataset cache,
and parallel fleet workers.

Times every optimized stage against its pre-optimization reference (kept
verbatim in :mod:`repro.data.reference` / :mod:`repro.nn.reference`) and
writes the results to ``BENCH_hotpath.json``:

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_hotpath.json

``--quick`` shrinks the workloads for CI smoke runs; ``--check BASELINE``
compares the measured speedups against a committed baseline and exits
non-zero if any stage regressed by more than 2x.  Speedups (not raw
milliseconds) are compared so the gate survives runner hardware changes.

Notes on expectations:

* ``render_exact`` holds the historical RNG stream bit-for-bit, which
  pins the per-image ziggurat noise draws and the float64 op sequence —
  memory/`libm`-bound, so ~1x is the ceiling.
* ``conv1_fwd_bwd`` (227x227, 11x11 stride 4) is im2col-bound and shows
  the full rewrite win.  ``conv2_fwd_bwd`` (27x27, 5x5 stride 1) is
  GEMM-bound — the three matmuls are identical in both paths and take
  ~2/3 of the step — so its ceiling is ~1.2-1.4x by construction.
* fleet worker scaling depends on core count; ``meta.cpu_count`` records
  what the run had and ``meta.gate_armed`` whether a workers>1 win was
  physically possible.  The persistent forked pool
  (:mod:`repro.fleet.pool`) ships only small work items per stage, so on
  multi-core runners ``workers=4`` must beat serial (``--fleet-gate``);
  on a single core it cannot, and the speedup assertion disarms while
  bit-identity stays asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.systems import system_by_id
from repro.data.cache import dataset_cache
from repro.data.images import ImageGenerator
from repro.data.reference import ReferenceImageGenerator
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
)
from repro.nn import prefix_memo
from repro.nn.conv import Conv2D
from repro.nn.reference import col2im_reference, im2col_reference

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: a stage fails the --check gate when its speedup drops below
#: baseline_speedup / REGRESSION_FACTOR
REGRESSION_FACTOR = 2.0


def _append_step_summary(line: str) -> None:
    """Surface ``line`` in the CI job summary (no-op outside Actions)."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _best_ms(fn, rounds: int) -> float:
    fn()  # warmup: JIT-free but primes caches, buffer pools, imports
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


# ----------------------------------------------------------------------
# Stage 1: rendering
# ----------------------------------------------------------------------
def measure_render(quick: bool, rounds: int) -> dict:
    count = 96 if quick else 256
    labels = np.random.default_rng(2).integers(0, 10, size=count)
    ref = ReferenceImageGenerator(48, 10, rng=np.random.default_rng(5))
    gen = ImageGenerator(48, 10, rng=np.random.default_rng(5))

    ref_ms = _best_ms(lambda: ref.batch(labels), rounds)
    exact_ms = _best_ms(lambda: gen.batch(labels), rounds)
    return {
        "render_exact": {
            "images": count,
            "reference_ms": ref_ms,
            "optimized_ms": exact_ms,
            "speedup": ref_ms / exact_ms,
        },
    }


# ----------------------------------------------------------------------
# Stage 2: convolution forward + backward at AlexNet shapes
# ----------------------------------------------------------------------
def _reference_conv_step(x, weight, bias, kernel, stride, pad, grad_out):
    """Pre-optimization Conv2D fwd+bwd: reference im2col/col2im + GEMMs."""
    out_channels = weight.shape[0]
    cols = im2col_reference(x, kernel, stride, pad)
    flat_w = weight.reshape(out_channels, -1)
    out = cols @ flat_w.T + bias
    rows = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_w = rows.T @ cols
    grad_cols = rows @ flat_w
    grad_in = col2im_reference(grad_cols, x.shape, kernel, stride, pad)
    return out, grad_w, grad_in


def measure_conv(quick: bool, rounds: int) -> dict:
    batch = 2 if quick else 4
    shapes = {
        # AlexNet conv1: 227x227x3, 96 filters of 11x11 stride 4
        "conv1_fwd_bwd": dict(cin=3, cout=96, size=227, kernel=11, stride=4, pad=0),
        # AlexNet conv2 (dense form): 27x27x96, 256 filters of 5x5 pad 2
        "conv2_fwd_bwd": dict(cin=96, cout=256, size=27, kernel=5, stride=1, pad=2),
    }
    results = {}
    rng = np.random.default_rng(0)
    for name, s in shapes.items():
        layer = Conv2D(
            s["cin"], s["cout"], s["kernel"], s["stride"], s["pad"],
            rng=np.random.default_rng(1),
        )
        x = rng.standard_normal(
            (batch, s["cin"], s["size"], s["size"])
        ).astype(np.float32)
        _, oh, ow = layer.output_shape(x.shape[1:])
        grad_out = rng.standard_normal(
            (batch, s["cout"], oh, ow)
        ).astype(np.float32)
        weight = layer.weight.data
        bias = layer.bias.data

        def opt() -> None:
            layer.forward(x, training=True)
            layer.backward(grad_out)
            for p in layer.parameters:
                p.zero_grad()

        def ref() -> None:
            _reference_conv_step(
                x, weight, bias, s["kernel"], s["stride"], s["pad"], grad_out
            )

        ref_ms = _best_ms(ref, rounds)
        opt_ms = _best_ms(opt, rounds)
        results[name] = {
            "batch": batch,
            "shape": f"{s['cin']}x{s['size']}x{s['size']}"
            f" k{s['kernel']} s{s['stride']} p{s['pad']} -> {s['cout']}",
            "reference_ms": ref_ms,
            "optimized_ms": opt_ms,
            "speedup": ref_ms / opt_ms,
        }
    return results


def measure_conv_shape_churn(quick: bool) -> dict:
    """Two same-geometry layers fed alternating batch sizes.

    ``measure_conv`` loops one shape on one layer, so every buffer is warm
    after the first round and it cannot see what a fleet run pays: several
    networks whose batch sizes churn.  This case reports the steady-state
    cost per fwd+bwd step *and* the minor page faults per step — scratch
    that is re-allocated (or evicted and re-grown) shows up as faults long
    before it shows up as milliseconds.  Informational: no gate reads it.
    """
    batches = (5, 32, 12, 44)
    cycles = 2 if quick else 6
    # The fleet classifier's conv2: 16 -> 32 maps of 24x24, 3x3 pad 1.
    layers = [
        Conv2D(16, 32, 3, pad=1, rng=np.random.default_rng(i), name="conv2")
        for i in range(2)
    ]
    rng = np.random.default_rng(0)
    inputs = {
        b: rng.standard_normal((b, 16, 24, 24)).astype(np.float32)
        for b in batches
    }
    grads = {
        b: rng.standard_normal((b, 32, 24, 24)).astype(np.float32)
        for b in batches
    }

    def cycle() -> None:
        for i in range(len(batches)):
            for j, layer in enumerate(layers):
                b = batches[(i + j) % len(batches)]
                layer.forward(inputs[b], training=True)
                layer.backward(grads[b])

    cycle()  # warm-up: every shape seen once by every layer
    steps = cycles * len(batches) * len(layers)
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(cycles):
        cycle()
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    return {
        "conv_shape_churn": {
            "batches": list(batches),
            "layers": len(layers),
            "steps": steps,
            "ms_per_step": elapsed * 1e3 / steps,
            "minflt_per_step": faults / steps,
        }
    }


# ----------------------------------------------------------------------
# Observability overhead gate: instrumentation must stay a no-op
# ----------------------------------------------------------------------
#: the perf-smoke gate fails when the enabled-but-idle profiling hooks
#: slow the conv hot path by more than this fraction
OBS_OVERHEAD_LIMIT = 0.03


def measure_obs_overhead(quick: bool, rounds: int) -> dict:
    """Conv1 fwd+bwd with profiling disabled vs enabled-but-idle.

    The ``@profiled`` hooks on conv/im2col stay in the call path
    permanently; this measures what they cost in both states.  Nothing
    consumes the recorded stats ("idle"), so the enabled number is pure
    instrumentation overhead.  Min-of-rounds keeps the comparison robust
    on noisy single-core runners.
    """
    from repro.obs.profile import (
        disable_profiling,
        enable_profiling,
        reset_profiling,
    )

    batch = 2 if quick else 4
    layer = Conv2D(3, 96, 11, 4, 0, rng=np.random.default_rng(1))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, 3, 227, 227)).astype(np.float32)
    _, oh, ow = layer.output_shape(x.shape[1:])
    grad_out = rng.standard_normal((batch, 96, oh, ow)).astype(np.float32)

    def step() -> None:
        layer.forward(x, training=True)
        layer.backward(grad_out)
        for p in layer.parameters:
            p.zero_grad()

    disable_profiling()
    disabled_ms = _best_ms(step, rounds)
    enable_profiling()
    try:
        enabled_ms = _best_ms(step, rounds)
    finally:
        disable_profiling()
        reset_profiling()
    overhead = enabled_ms / disabled_ms - 1.0
    return {
        "obs_overhead": {
            "batch": batch,
            "rounds": rounds,
            "disabled_ms": disabled_ms,
            "enabled_idle_ms": enabled_ms,
            "overhead_fraction": overhead,
            "limit_fraction": OBS_OVERHEAD_LIMIT,
        }
    }


# ----------------------------------------------------------------------
# Stage 3: dataset cache
# ----------------------------------------------------------------------
def measure_dataset_cache(quick: bool) -> dict:
    from repro.core.simulation import Scenario, scenario_data

    scenario = Scenario(
        stream_scale=0.05, pretrain_images=32, eval_images=32, seed=12345
    )
    dataset_cache.clear()
    t0 = time.perf_counter()
    scenario_data(scenario)
    miss_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    scenario_data(scenario)
    hit_ms = (time.perf_counter() - t0) * 1e3
    dataset_cache.clear()
    return {
        "dataset_cache": {
            "miss_ms": miss_ms,
            "hit_ms": hit_ms,
            "speedup": miss_ms / hit_ms,
        }
    }


# ----------------------------------------------------------------------
# Stage 4: fleet epoch, serial vs persistent forked pool
# ----------------------------------------------------------------------
def fleet_gate_armed() -> bool:
    """Whether the workers>1-must-win assertion is physically meaningful.

    On a single core the parallel path cannot beat serial no matter how
    cheap dispatch is; the speedup gate disarms there while bit-identity
    stays asserted unconditionally.
    """
    return (os.cpu_count() or 1) >= 2


def measure_fleet(
    quick: bool, workers: int, sizes: tuple[int, ...] | None = None
) -> dict:
    base = fleet_base_scenario(
        stream_scale=0.02,
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    if sizes is None:
        sizes = (4,) if quick else (4, 16)
    results = {}
    for n in sizes:
        scenario = FleetScenario(base=base, num_nodes=n, seed=0)
        assets = prepare_fleet_assets(scenario)
        config = system_by_id("d")
        # Each timed run starts on an empty prefix memo: the second would
        # otherwise find the Cloud-side sweeps of the first already made.
        prefix_memo.clear()
        t0 = time.perf_counter()
        serial = run_fleet(config, assets, workers=1)
        serial_ms = (time.perf_counter() - t0) * 1e3
        prefix_memo.clear()
        t0 = time.perf_counter()
        parallel = run_fleet(config, assets, workers=workers)
        parallel_ms = (time.perf_counter() - t0) * 1e3
        identical = [u.eval_accuracy for u in serial.updates] == [
            u.eval_accuracy for u in parallel.updates
        ]
        results[f"fleet_epoch_n{n}"] = {
            "nodes": n,
            "workers": workers,
            "workers1_ms": serial_ms,
            f"workers{workers}_ms": parallel_ms,
            "speedup": serial_ms / parallel_ms,
            "bit_identical": identical,
        }
    return results


# ----------------------------------------------------------------------
def run_benchmarks(quick: bool, workers: int) -> dict:
    rounds = 2 if quick else 3
    stages: dict = {}
    print("render...", flush=True)
    stages.update(measure_render(quick, rounds))
    print("conv...", flush=True)
    stages.update(measure_conv(quick, rounds))
    stages.update(measure_conv_shape_churn(quick))
    print("dataset cache...", flush=True)
    stages.update(measure_dataset_cache(quick))
    print("fleet...", flush=True)
    stages.update(measure_fleet(quick, workers))
    return {
        "meta": {
            "quick": quick,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "fleet_workers": workers,
            "gate_armed": fleet_gate_armed(),
        },
        "stages": stages,
    }


def check_regressions(result: dict, baseline: dict) -> list[str]:
    """Stages whose speedup fell below baseline/REGRESSION_FACTOR.

    Fleet stages are exempt from the speedup floor when the current run
    is on a single core (``meta.gate_armed`` false) — a parallel win is
    physically impossible there — but a ``bit_identical: false`` fleet
    stage fails regardless of core count.
    """
    failures = []
    armed = result.get("meta", {}).get("gate_armed", True)
    base_stages = baseline.get("stages", {})
    for name, stage in result["stages"].items():
        if stage.get("bit_identical") is False:
            failures.append(f"{name}: parallel run diverged from serial")
        base = base_stages.get(name)
        if base is None or "speedup" not in base or "speedup" not in stage:
            continue
        if name.startswith("fleet_epoch") and not armed:
            continue
        floor = base["speedup"] / REGRESSION_FACTOR
        if stage["speedup"] < floor:
            failures.append(
                f"{name}: speedup {stage['speedup']:.2f}x < floor "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads for CI smoke"
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"write results JSON here (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON; exit 1 if any stage regressed > "
        f"{REGRESSION_FACTOR}x in speedup",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="pool size for the fleet stage (default: 4)",
    )
    parser.add_argument(
        "--obs-overhead", action="store_true",
        help="standalone gate: measure idle profiling overhead on the "
        f"conv hot path and exit 1 if it exceeds {OBS_OVERHEAD_LIMIT:.0%}",
    )
    parser.add_argument(
        "--fleet-gate", action="store_true",
        help="standalone gate: run the fleet stage and exit 1 unless "
        "workers=N beats workers=1 (speedup check skipped on a single "
        "core; bit-identity asserted unconditionally)",
    )
    parser.add_argument(
        "--fleet-sizes", type=str, default=None,
        help="comma-separated node counts for --fleet-gate "
        "(default: 16)",
    )
    args = parser.parse_args(argv)

    if args.obs_overhead:
        rounds = 6 if args.quick else 10
        stage = measure_obs_overhead(args.quick, rounds)["obs_overhead"]
        print(
            f"  obs_overhead: disabled {stage['disabled_ms']:.2f} ms, "
            f"enabled-idle {stage['enabled_idle_ms']:.2f} ms "
            f"({stage['overhead_fraction']:+.2%}, "
            f"limit {OBS_OVERHEAD_LIMIT:.0%})"
        )
        if args.out is not None:
            args.out.write_text(json.dumps(stage, indent=2) + "\n")
            print(f"wrote {args.out}")
        if stage["overhead_fraction"] > OBS_OVERHEAD_LIMIT:
            print("OBS OVERHEAD REGRESSION: idle instrumentation too costly")
            return 1
        return 0

    if args.fleet_gate:
        armed = fleet_gate_armed()
        sizes = (
            tuple(int(s) for s in args.fleet_sizes.split(","))
            if args.fleet_sizes
            else (16,)
        )
        stages = measure_fleet(args.quick, args.workers, sizes=sizes)
        failures = []
        for name, stage in stages.items():
            print(
                f"  {name:24s} {stage['speedup']:6.2f}x  "
                f"bit_identical={stage['bit_identical']}  {stage}"
            )
            if not stage["bit_identical"]:
                failures.append(f"{name}: parallel run diverged from serial")
            if armed and stage["speedup"] <= 1.0:
                failures.append(
                    f"{name}: workers={args.workers} speedup "
                    f"{stage['speedup']:.2f}x <= 1.0x vs workers=1"
                )
        if not armed:
            warning = (
                f"WARNING: fleet speedup gate UNARMED "
                f"(cpu_count={os.cpu_count()} < 2): the workers>1 "
                "speedup assertion did not run; bit-identity was still "
                "asserted"
            )
            print(warning)
            # Surface the disarmed gate in the CI job summary so a
            # 1-core runner can't silently skip the speedup check.
            _append_step_summary(f":warning: {warning}")
        if args.out is not None:
            payload = {
                "meta": {"cpu_count": os.cpu_count(), "gate_armed": armed},
                "stages": stages,
            }
            args.out.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {args.out}")
        if failures:
            print("FLEET GATE FAILURES:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        return 0

    result = run_benchmarks(args.quick, args.workers)
    for name, stage in result["stages"].items():
        speed = stage.get("speedup")
        shown = f"{speed:6.2f}x" if speed is not None else "   info"
        print(f"  {name:24s} {shown}  {stage}")
    churn = result["stages"]["conv_shape_churn"]
    _append_step_summary(
        f"conv shape churn (batches {churn['batches']}, "
        f"{churn['layers']} layers): {churn['ms_per_step']:.2f} ms/step, "
        f"{churn['minflt_per_step']:.0f} minor faults/step"
    )

    out = args.out if args.out is not None else DEFAULT_OUT
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = check_regressions(result, baseline)
        if failures:
            print("PERF REGRESSIONS:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print("no perf regressions vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
