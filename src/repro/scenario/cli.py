"""``python -m repro scenario`` — run, validate, and list scenario YAMLs.

Subcommands:

``run FILE [--out PATH] [--trace PATH]``
    Run every replicate of the scenario on the spec's engine and print a
    metric table.  ``--out`` writes the canonical summary JSON
    (byte-stable across invocations); ``--trace`` writes the JSONL trace
    of all replicates.

``validate FILE``
    Parse and validate only.  Exit 0 on success; on failure, print the
    ``file:line:`` anchored error and exit 1.

``list [DIR]``
    One line per scenario YAML in DIR (default ``examples/scenarios``).
"""

from __future__ import annotations

import argparse
import os

from repro.obs.trace import Tracer
from repro.scenario.schema import ScenarioError, load_spec_file
from repro.scenario.summary import build_summary, summary_json

__all__ = ["main"]


def _load(path: str):
    """The validated spec at ``path``, or ``None`` after printing why not."""
    try:
        return load_spec_file(path)
    except ScenarioError as err:
        print(f"error: {err}")
    except OSError as err:
        print(f"error: {path}: {err.strerror}")
    return None


def _run(args) -> int:
    spec = _load(args.file)
    if spec is None:
        return 1
    # Refuse an unwritable output before the replicates run, not after.
    for path in (args.out, args.trace):
        if path is None:
            continue
        if os.path.isdir(path):
            print(f"error: {path}: is a directory")
            return 1
        if not os.path.isdir(os.path.dirname(path) or "."):
            print(f"error: {path}: no such directory")
            return 1
    tracer = Tracer(enabled=args.trace is not None)
    summary = build_summary(spec, tracer=tracer)
    scenario = summary["scenario"]
    print(
        f"scenario {scenario['name']!r}: engine={scenario['engine']} "
        f"nodes={scenario['nodes']} stages={scenario['stages']} "
        f"replicates={summary['replicates']['count']}"
    )
    if scenario["processes"]:
        print(f"processes: {', '.join(scenario['processes'])}")
    confidence = summary["replicates"]["confidence"]
    print(
        f"\n{'metric':<24} {'mean':>12} "
        f"{f'ci{int(round(confidence * 100))}_lo':>12} "
        f"{f'ci{int(round(confidence * 100))}_hi':>12}"
    )
    for name in sorted(summary["metrics"]):
        row = summary["metrics"][name]
        print(
            f"{name:<24} {row['mean']:>12.6f} "
            f"{row['ci_lo']:>12.6f} {row['ci_hi']:>12.6f}"
        )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(summary_json(summary))
        print(f"\nwrote summary: {args.out}")
    if args.trace is not None:
        tracer.write_jsonl(args.trace)
        print(f"wrote trace: {args.trace} ({len(tracer.records)} records)")
    return 0


def _validate(args) -> int:
    spec = _load(args.file)
    if spec is None:
        return 1
    print(
        f"ok: {spec.name!r} (engine={spec.engine}, "
        f"nodes={spec.fleet.num_nodes}, stages={spec.num_stages}, "
        f"processes={', '.join(spec.processes) or 'none'})"
    )
    return 0


def _list(args) -> int:
    directory = args.dir
    if not os.path.isdir(directory):
        print(f"error: no such directory: {directory}")
        return 1
    paths = sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith((".yaml", ".yml"))
    )
    if not paths:
        print(f"no scenario files in {directory}")
        return 0
    for path in paths:
        try:
            spec = load_spec_file(path)
        except ScenarioError as err:
            print(f"{os.path.basename(path):<28} INVALID: {err}")
            continue
        except OSError as err:
            print(
                f"{os.path.basename(path):<28} INVALID: {path}: {err.strerror}"
            )
            continue
        processes = ",".join(spec.processes) or "-"
        print(
            f"{os.path.basename(path):<28} {spec.engine:<9} "
            f"{processes:<36} {spec.description or spec.name}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Run, validate, and list YAML scenario specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("file", help="scenario YAML file")
    p_run.add_argument("--out", help="write summary JSON here")
    p_run.add_argument("--trace", help="write JSONL trace here")
    p_run.set_defaults(func=_run)

    p_val = sub.add_parser("validate", help="parse and validate only")
    p_val.add_argument("file", help="scenario YAML file")
    p_val.set_defaults(func=_validate)

    p_list = sub.add_parser("list", help="list scenario files")
    p_list.add_argument(
        "dir",
        nargs="?",
        default=os.path.join("examples", "scenarios"),
        help="directory to scan (default: examples/scenarios)",
    )
    p_list.set_defaults(func=_list)

    args = parser.parse_args(argv)
    return args.func(args)
