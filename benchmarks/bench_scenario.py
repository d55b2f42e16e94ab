"""Scenario-engine overhead vs the bare event fleet.

The scenario engine (:mod:`repro.scenario`) wraps ``run_fleet_event``
with plan lookups on every stage boundary: churn row checks, phase
labels on spans, head-group bookkeeping.  A *process-free* scenario is
the control — same assets, same barrier semantics, no plans firing —
so its cost over the bare fleet is the pure engine tax.  This bench
measures that tax, pins it against the committed baseline, and proves
the control is learning-identical to the bare fleet (trajectories and
byte ledger both equal, not just close).

Writes the results to ``BENCH_scenario.json``:

    PYTHONPATH=src python benchmarks/bench_scenario.py --out BENCH_scenario.json

The gate compares the *overhead ratio* (scenario time / bare time, both
measured in the same run) rather than raw milliseconds, so the committed
baseline survives runner hardware changes.  The all-processes row is
reported for context only — churn retrains and head updates do real
extra work, so its time is workload, not overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.core import system_by_id
from repro.fleet import run_fleet_event
from repro.reports import format_table
from repro.scenario import (
    load_spec,
    prepare_scenario_assets,
    run_scenario_event,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_scenario.json"
BASELINE = DEFAULT_OUT

#: the bench fails when the measured overhead ratio exceeds
#: baseline_ratio * REGRESSION_FACTOR (and always at the absolute cap,
#: so a missing baseline still gates something)
REGRESSION_FACTOR = 2.0
ABSOLUTE_RATIO_CAP = 2.0

_FLEET_YAML = """\
fleet:
  nodes: 4
  stages: 4
  base:
    stream_scale: 0.02
    pretrain_images: 32
    pretrain_epochs: 1
    init_epochs: 2
    update_epochs: 1
    eval_images: 32
"""

#: the control: no processes block at all, so no plan ever fires
BARE_YAML = (
    """\
scenario:
  name: bench-bare
  seed: 0
  engine: event
  barrier: true

"""
    + _FLEET_YAML
)

#: same fleet shape with every process composed — reported for context
FULL_YAML = (
    BARE_YAML.replace("bench-bare", "bench-full")
    + """
processes:
  churn:
    rate: 0.3
  class_incremental:
    groups:
      - [0, 1]
      - [2, 3]
    phase_stages: [0, 2]
    exemplar_capacity: 32
  per_node_heads:
    groups: 2
    epochs: 1
"""
)


def _best_s(fn, rounds: int) -> float:
    fn()  # warmup: primes the dataset cache and buffer pools
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(rounds: int = 2) -> dict:
    spec = load_spec(BARE_YAML)
    assets = prepare_scenario_assets(spec)
    config = system_by_id("d")

    bare_s = _best_s(
        lambda: run_fleet_event(config, assets, barrier=True), rounds
    )
    scenario_s = _best_s(
        lambda: run_scenario_event(spec, assets=assets, barrier=True), rounds
    )

    bare = run_fleet_event(config, assets, barrier=True)
    control = run_scenario_event(spec, assets=assets, barrier=True)
    identical = [
        n.accuracy_trajectory for n in bare.nodes
    ] == [n.accuracy_trajectory for n in control.fleet.nodes] and (
        bare.ledger.snapshot() == control.fleet.ledger.snapshot()
    )

    full_spec = load_spec(FULL_YAML)
    full_assets = prepare_scenario_assets(full_spec)
    full_s = _best_s(
        lambda: run_scenario_event(full_spec, assets=full_assets, barrier=True),
        rounds,
    )

    return {
        "meta": {
            "rounds": rounds,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "shape": {"nodes": 4, "stages": 4},
        "bare_event_s": bare_s,
        "scenario_noop_s": scenario_s,
        "overhead_ratio": scenario_s / bare_s,
        "scenario_full_s": full_s,
        "control_identical": identical,
    }


def _baseline_ratio() -> float | None:
    if not BASELINE.exists():
        return None
    return json.loads(BASELINE.read_text())["overhead_ratio"]


@pytest.mark.slow
def bench_scenario(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    baseline = _baseline_ratio()
    table = format_table(
        "Scenario engine overhead — process-free control vs bare event fleet",
        ["run", "best s", "vs bare"],
        [
            ["bare run_fleet_event", f"{result['bare_event_s']:.3f}", "1.00x"],
            [
                "scenario, no processes",
                f"{result['scenario_noop_s']:.3f}",
                f"{result['overhead_ratio']:.2f}x",
            ],
            [
                "scenario, all processes",
                f"{result['scenario_full_s']:.3f}",
                f"{result['scenario_full_s'] / result['bare_event_s']:.2f}x",
            ],
        ],
    )
    print("\n" + table)

    # The control is the *same computation*: equal trajectories and an
    # equal byte ledger, so any time gap is pure engine bookkeeping.
    assert result["control_identical"]
    assert result["overhead_ratio"] < ABSOLUTE_RATIO_CAP
    if baseline is not None:
        assert result["overhead_ratio"] < baseline * REGRESSION_FACTOR


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    result = measure(rounds=args.rounds)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(
        f"bare {result['bare_event_s']:.3f}s, "
        f"no-op scenario {result['scenario_noop_s']:.3f}s "
        f"({result['overhead_ratio']:.2f}x), "
        f"full {result['scenario_full_s']:.3f}s -> {args.out}"
    )
    return 0 if result["control_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
