"""End-to-end + per-layer benchmark of the fleet and scenario engines.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, one JSON object on the last line of stdout:
    ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
    reports the end-to-end metrics from untraced repetitions; ``--trace
    1`` reports the per-layer metrics from one traced repetition (plus
    untraced ones to measure what tracing cost).

``run.py [--seed N] [--seconds S] [--quick] [--out DIR]``
    Every workload, both ways, printed as a table with units, and written
    to ``DIR/results.json`` with a meta block.  ``--quick`` is the smoke
    mode: one untraced and one traced repetition per workload.

Every repetition is a fresh ``child.py`` process and children never
overlap.  This file never imports numpy or ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import checks
import layers
from child import THREAD_PINS

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 170
#: fewer timed repetitions than this and a median means nothing
MIN_REPETITIONS = 3


class ChildFailed(RuntimeError):
    """A repetition crashed: the benchmark has no result to report."""


def spawn_child(workload: str, seed: int, traced: bool, out_dir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--traced", str(int(traced)), "--out", str(out_dir),
    ]
    proc = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        env={**os.environ, **THREAD_PINS},
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} seed={seed} traced={traced} exited "
            f"{proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed(f"{workload}: unreadable result line: {exc}") from exc


def repetitions(
    workload: str, seed: int, seconds: float, out_dir: Path, *,
    traced: bool, quick: bool,
) -> tuple[list[dict], dict | None, list[dict]]:
    """Closed loop, one client: ``(warm-up, traced child, timed children)``.

    The first child of an invocation runs on whatever the machine was
    doing before: on this VM it pays up to 2x the kernel time of its
    successors for the same page faults.  Its outputs are checked like
    any other, its timings are dropped.  After it (and the traced child,
    if asked for) untraced repetitions run until the next would not fit
    into ``seconds``.  ``quick`` skips the warm-up and times one child.
    """
    started = time.monotonic()
    warm_up = [] if quick else [spawn_child(workload, seed, False, out_dir)]
    traced_child = spawn_child(workload, seed, True, out_dir) if traced else None
    min_timed = 1 if quick or traced else MIN_REPETITIONS
    timed: list[dict] = []
    slowest = 0.0
    while True:
        t0 = time.monotonic()
        timed.append(spawn_child(workload, seed, False, out_dir))
        slowest = max(slowest, time.monotonic() - t0)
        if len(timed) >= min_timed and time.monotonic() - started + slowest > seconds:
            return warm_up, traced_child, timed


def _spread(values: list[float]) -> dict:
    return {
        "n": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def _tally(children: list[dict], cross: list[checks.Check]) -> tuple[int, list]:
    """Operations = engine runs + every check; returns (attempted, failures)."""
    attempted = len(cross)
    failures = [c for c in cross if not c[1]]
    for child in children:
        attempted += child["engine_runs"] + len(child["checks"])
        failures += [
            (c["name"], c["ok"], c["detail"]) for c in child["checks"] if not c["ok"]
        ]
    return attempted, failures


def _digests(children: list[dict]) -> dict[str, str]:
    found = {}
    for i, child in enumerate(children):
        label = "traced" if child["traced"] else f"rep{i}"
        found[label] = child["outcome"]["digest"]
        if "twin_digest" in child:
            found["twin"] = child["twin_digest"]
    return found


def end_to_end(workload: str, seed: int, seconds: float, out_dir: Path, quick: bool) -> dict:
    """Untraced repetitions -> the end-to-end metrics."""
    warm_up, _, reps = repetitions(
        workload, seed, seconds, out_dir, traced=False, quick=quick
    )
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "node_epochs_per_s": [r["outcome"]["node_epochs"] / r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    first = reps[0]["outcome"]
    children = warm_up + reps
    attempted, failures = _tally(children, [checks.check_same_digest(_digests(children))])
    return {
        "values": {name: statistics.median(v) for name, v in samples.items()},
        "attempted": attempted,
        "failures": failures,
        "detail": {
            "sim_digest": first["digest"],
            "sim_final_accuracy": first["final_accuracy"],
            "sim_bytes_moved_mb": (first["upload_bytes"] + first["download_bytes"]) / 1e6,
            **{name: _spread(v) for name, v in samples.items()},
        },
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, seed: int, seconds: float, out_dir: Path, quick: bool) -> dict:
    """One traced repetition (+ untraced ones) -> the per-layer metrics."""
    warm_up, traced, plain = repetitions(
        workload, seed, seconds, out_dir, traced=True, quick=quick
    )
    spans, counters, outcome = traced["spans"], traced["counters"], traced["outcome"]
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    values: dict[str, float] = {}
    for name in layers.span_metric_units():
        span, _, field = name.rpartition(".")
        values[name] = spans.get(span, zero)[field]

    def incl(span: str) -> float:
        return spans.get(span, zero)["incl_s"]

    events = counters.get("events.kernel.events", 0)
    host = {
        k: statistics.median(p["host"][k] for p in plain) for k in plain[0]["host"]
    }
    plain_wall_s = statistics.median(p["wall_s"] for p in plain)
    values.update({
        "data.cache.hit_share": _ratio(
            counters["data.cache.hits"],
            counters["data.cache.hits"] + counters["data.cache.misses"],
        ),
        "diagnosis.flagged_share": _ratio(
            counters.get("diagnosis.flagged", 0), counters.get("diagnosis.scanned", 0)
        ),
        "core.cloud.sim_update_time_s": counters.get("cloud.sim_update_time_s", 0.0),
        "core.cloud.sim_energy_kj": counters.get("cloud.sim_energy_j", 0.0) / 1e3,
        "fleet.scheduler.promoted_share": _ratio(
            counters.get("fleet.promotions", 0), counters.get("fleet.rollouts", 0)
        ),
        # Serial-twin node time over what the 2-worker pool took for the
        # same stages, per worker: 1.0 is perfect scaling.
        "fleet.pool.parallel_efficiency": _ratio(
            incl("core.node.process_stage"), 2 * incl("fleet.pool.run_stage")
        ),
        "events.kernel.events": events,
        "events.kernel.self_us_per_event": _ratio(
            1e6 * spans.get("events.kernel.run", zero)["self_s"], events
        ),
        "comm.upload_mb": outcome["upload_bytes"] / 1e6,
        "comm.download_mb": outcome["download_bytes"] / 1e6,
        "sim.final_accuracy": outcome["final_accuracy"],
        "sim.node_epochs": outcome["node_epochs"],
        "host.user_s": host["user_s"],
        "host.sys_s": host["sys_s"],
        "host.child_cpu_s": host["child_cpu_s"],
        "host.minor_faults": host["minor_faults"],
        "harness.trace_overhead_share": traced["wall_s"] / plain_wall_s - 1.0,
        "harness.unattributed_share": _ratio(
            spans["engine.run"]["self_s"], spans["engine.run"]["incl_s"]
        ),
    })
    children = warm_up + [traced] + plain
    attempted, failures = _tally(children, [checks.check_same_digest(_digests(children))])
    return {
        "values": values,
        "attempted": attempted,
        "failures": failures,
        "detail": {"sim_digest": outcome["digest"], "trace_file": traced["trace_file"]},
    }


def result_line(measured: dict, units: dict[str, str]) -> dict:
    """The contract's result object for one ``--workload`` invocation."""
    return {
        "correct": not measured["failures"],
        "attempted": measured["attempted"],
        "failed": len(measured["failures"]),
        "metrics": {
            name: {"value": measured["values"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _numpy_versions() -> dict:
    """numpy/OpenBLAS versions, asked of a child so this process stays numpy-free."""
    code = (
        "import json, numpy; b = numpy.show_config(mode='dicts')"
        "['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': numpy.__version__, "
        "'blas': b.get('name'), 'blas_version': b.get('version')}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, **THREAD_PINS}, timeout=60, check=False,
    )
    return json.loads(proc.stdout) if proc.returncode == 0 else {"numpy": "unknown"}


def meta_block(args, seconds: float) -> dict:
    import workloads

    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    if load_1m > nproc / 2:
        print(
            f"warning: load average {load_1m:.2f} > nproc/2 ({nproc / 2:.1f}); "
            "host timings will be noisy",
            file=sys.stderr,
        )
    return {
        "quick": args.quick,
        "seed": args.seed,
        "seconds_per_run": seconds,
        "nproc": nproc,
        "load_average_at_start": load_1m,
        "python": platform.python_version(),
        **_numpy_versions(),
        "blas_threads": int(THREAD_PINS["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "workloads": {w.name: w.params for w in workloads.WORKLOADS},
    }


def run_all(args) -> int:
    """Human mode: every workload, every metric by name with its unit."""
    spec = load_spec()
    seconds = 0.0 if args.quick else float(
        args.seconds if args.seconds is not None else spec["run_seconds"]
    )
    args.out.mkdir(parents=True, exist_ok=True)
    results = {"meta": meta_block(args, seconds), "workloads": {}}
    e2e_units, layer_units = end_to_end_units(spec), layers.per_layer_units()
    attempted = failed = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        e2e = end_to_end(name, args.seed, seconds, args.out, args.quick)
        traced = per_layer(name, args.seed, seconds, args.out, args.quick)
        cross = checks.check_same_digest({
            "untraced": e2e["detail"]["sim_digest"],
            "traced": traced["detail"]["sim_digest"],
        })
        failures = e2e["failures"] + traced["failures"] + ([] if cross[1] else [cross])
        ops = e2e["attempted"] + traced["attempted"] + 1
        attempted += ops
        failed += len(failures)
        print(f"\n== {name}  (ops_attempted={ops} ops_failed={len(failures)})")
        print(f"   {entry['why']}")
        for metric, unit in e2e_units.items():
            d = e2e["detail"][metric]
            print(
                f"  {metric:<44} {e2e['values'][metric]:>14.6g} {unit:<9}"
                f" n={d['n']} min={d['min']:.6g} max={d['max']:.6g}"
            )
        for metric in ("sim_final_accuracy", "sim_bytes_moved_mb", "sim_digest"):
            print(f"  {metric:<44} {e2e['detail'][metric]!s:>14}")
        for metric, unit in layer_units.items():
            print(f"  {metric:<44} {traced['values'][metric]:>14.6g} {unit}")
        for failure in failures:
            print(f"  FAILED {failure[0]}: {failure[2]}")
        results["workloads"][name] = {
            "end_to_end": result_line(e2e, e2e_units),
            "per_layer": result_line(traced, layer_units),
            "detail": {**traced["detail"], **e2e["detail"]},
            "failures": [list(f) for f in failures],
        }
    results["ops_attempted"], results["ops_failed"] = attempted, failed
    out_file = args.out / "results.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nops_attempted={attempted} ops_failed={failed}; wrote {out_file}")
    return 0 if failed == 0 else 1


def run_one(args) -> int:
    """Driver mode: one workload, the contract's JSON object last on stdout."""
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        measured = per_layer(args.workload, args.seed, seconds, args.out, False)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        measured = end_to_end(args.workload, args.seed, seconds, args.out, False)
        units = end_to_end_units(spec)
    for failure in measured["failures"]:
        print(f"FAILED {failure[0]}: {failure[2]}", file=sys.stderr)
    print(json.dumps(result_line(measured, units)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke mode: 1 repetition")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        # Never fall back to some other installed copy of the package.
        print(f"benchmark failed: no src/repro under {REPO_ROOT}", file=sys.stderr)
        return 1
    try:
        return run_one(args) if args.workload else run_all(args)
    except (ChildFailed, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
