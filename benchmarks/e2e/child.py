"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition, one at a time, and reads
the JSON object it prints last.  A fresh process is the point: the
dataset cache, the allocator and the import system are as cold as they
are for a CLI user, and ``setup_s`` measures exactly that.

The BLAS/OpenMP pools are pinned to one thread *before* numpy is
imported: on a 2-core box two BLAS threads fight the pool workers and
the run-to-run spread grows from about 1% to about 20%.

Pool workers (``fleet_nodes_n8_w2``) are spawned by ``repro.fleet.pool``
and re-import this file as ``__mp_main__``; everything below the pins is
therefore behind the ``__main__`` check.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import sys
from pathlib import Path

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent


def _usage(who: int) -> dict:
    r = resource.getrusage(who)
    return {"user_s": r.ru_utime, "sys_s": r.ru_stime, "minor_faults": r.ru_minflt}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any pool worker it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _outcome_dict(outcome) -> dict:
    return {
        "node_epochs": outcome.node_epochs,
        "final_accuracy": outcome.final_accuracy,
        "upload_bytes": outcome.upload_bytes,
        "download_bytes": outcome.download_bytes,
        "digest": outcome.digest,
    }


def run_child(workload_name: str, seed: int, traced: bool, out_dir: Path) -> dict:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checks
    import workloads

    workload = workloads.BY_NAME[workload_name]
    scratch = out_dir / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)

    recorder = patches = None
    root = contextlib.nullcontext
    if traced:
        import layers
        import tracing

        recorder = tracing.SpanRecorder()
        patches = layers.install_all(recorder)
        root = recorder.span

    found: list = []
    with root("setup"):
        prepared = workload.prepare(seed, scratch)
    t_entry = time.perf_counter()
    self_0, kids_0 = _usage(resource.RUSAGE_SELF), _usage(resource.RUSAGE_CHILDREN)
    if recorder is not None:
        recorder.run_id = "run"
    with root("engine.run"):
        outcome = workload.run(prepared)
    t_done = time.perf_counter()
    host = _delta(_usage(resource.RUSAGE_SELF), self_0)
    kids = _delta(_usage(resource.RUSAGE_CHILDREN), kids_0)
    found += outcome.checks

    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "setup_s": t_entry - _T_START,
        "wall_s": t_done - t_entry,
        "peak_rss_mb": _peak_rss_mb(),
        "host": {**host, "child_cpu_s": kids["user_s"] + kids["sys_s"]},
        "outcome": _outcome_dict(outcome),
        "engine_runs": outcome.engine_runs,
    }

    if recorder is not None:
        if workload.twin is not None:
            recorder.run_id = "twin"
            with root("engine.twin"):
                twin = workload.twin(prepared)
            found += twin.checks
            result["twin_digest"] = twin.digest
            result["engine_runs"] += twin.engine_runs
        from repro.data.cache import dataset_cache

        tracing.remove(patches)
        found.append(checks.check_patches_restored(patches))
        stats = tracing.aggregate(recorder.spans)
        result["spans"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s}
            for name, s in sorted(stats.items())
        }
        result["counters"] = dict(recorder.counters)
        result["counters"]["data.cache.hits"] = dataset_cache.hits
        result["counters"]["data.cache.misses"] = dataset_cache.misses
        trace_path = out_dir / f"{workload_name}.trace.json"
        recorder.write(trace_path)
        result["trace_file"] = str(trace_path)

    result["checks"] = [
        {"name": name, "ok": ok, "detail": detail} for name, ok, detail in found
    ]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    # Engines and the scenario CLI print progress; keep stdout for the result.
    with contextlib.redirect_stdout(sys.stderr):
        result = run_child(args.workload, args.seed, bool(args.traced), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
