"""``python -m repro obs`` — summarize, analyze, and convert traces.

Subcommands:

``summarize TRACE``
    One-screen timeline summary: record counts, the virtual-time
    window, per-category busy time, and per-node activity.  Traces from
    hierarchical-topology runs additionally group the timeline by tier
    (edge / gateway / cloud, from the records' ``tier`` attribute), and
    scenario-engine traces group it by class-incremental phase (from the
    records' ``phase`` attribute).

``critical-path TRACE [--top K] [--json]``
    Makespan-critical chain through the span DAG, attributed per
    (tier, op, actor) as a sorted bottleneck table.

``diff A B``
    First-divergence localization between two traces (record index,
    field-level attr diff, enclosing span stack) or two JSON documents
    (metrics dumps, summaries — first divergent path).  Exits 0 when
    the inputs are identical, 1 when they diverge, and 2 when an input
    is missing, unreadable or malformed, so a script can tell a
    divergence from a bad input.

``health TRACE [--z-threshold Z] [--metrics METRICS] [-o OUT] [--json]``
    Fleet health report: per-node straggler z-scores, upload
    starvation, per-tier utilization, canary rollback causes.

``convert TRACE -o OUT [--format chrome]``
    Re-export a schema-v1 JSONL trace, e.g. to the Chrome
    ``trace_event`` format that ``chrome://tracing`` / Perfetto open.

Every analysis consumes the trace through the streaming reader
(:func:`repro.obs.trace.iter_jsonl`): memory stays constant in the
trace length, and malformed lines surface as ``path:line:``-anchored
errors instead of stack traces.  So do a missing or unreadable input file
and a ``--metrics`` file that is not a schema-v1 metrics dump: each
prints one ``error: <path>: ...`` line and exits 1 (``diff``: 2).
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from contextlib import closing

from repro.obs.analyze import (
    _Window,
    critical_path,
    diff_json_docs,
    first_divergence,
    health_report,
    render_critical_path,
    render_divergence,
    render_health,
)
from repro.obs.metrics import render_json
from repro.obs.trace import TraceFormatError, Tracer, _text_lines, iter_jsonl

__all__ = ["main", "summarize"]


def summarize(records, *, limit: int = 12) -> str:
    """Render a one-screen text summary of a trace.

    ``records`` is any iterable of :class:`TraceRecord` — a list or the
    streaming reader — consumed in a single pass.
    """
    window = _Window()
    by_cat: dict[str, dict] = defaultdict(_new_row)
    by_node: dict[int, dict] = defaultdict(_new_row)
    # Tier tags appear only on hierarchical-topology traces and phase tags
    # (class-incremental phases) only on scenario-engine traces; other
    # traces get neither table.
    by_tag = {"tier": defaultdict(_new_row), "phase": defaultdict(_new_row)}
    for r in records:
        window.add(r)
        _tally(by_cat[f"{r.cat}.{r.name}"], r)
        node = r.attr("node")
        if node is not None and r.kind == "span":
            _tally(by_node[int(node)], r)
        for tag, rows in by_tag.items():
            value = r.attr(tag)
            if value is not None:
                _tally(rows[str(value)], r)

    if window.records == 0:
        return "empty trace (0 records)\n"
    t_lo, t_hi = window.t0, window.t1
    n_spans = sum(row["spans"] for row in by_cat.values())
    lines = [
        f"records: {window.records} ({n_spans} spans, "
        f"{window.records - n_spans} events)",
        f"virtual window: {t_lo:.3f} .. {t_hi:.3f} s "
        f"({t_hi - t_lo:.3f} s)",
        "",
        f"{'category':<24} {'spans':>6} {'events':>7} {'busy s':>10}",
    ]
    ranked = sorted(
        by_cat.items(), key=lambda kv: (-kv[1]["busy"], kv[0])
    )
    for cat, row in ranked[:limit]:
        lines.append(
            f"{cat:<24} {row['spans']:>6} {row['events']:>7} "
            f"{row['busy']:>10.3f}"
        )
    if len(ranked) > limit:
        lines.append(f"... {len(ranked) - limit} more categories")
    tier_order = {"edge": 0, "gateway": 1, "cloud": 2}
    lines += _tag_table(
        "tier", by_tag["tier"], key=lambda t: (tier_order.get(t, 99), t)
    )
    lines += _tag_table("phase", by_tag["phase"], key=None)
    if by_node:
        lines += ["", f"{'node':<6} {'spans':>6} {'busy s':>10} {'busy %':>8}"]
        span_s = max(t_hi - t_lo, 1e-12)
        for node in sorted(by_node):
            row = by_node[node]
            lines.append(
                f"{node:<6} {row['spans']:>6} {row['busy']:>10.3f} "
                f"{100.0 * row['busy'] / span_s:>7.1f}%"
            )
    return "\n".join(lines) + "\n"


def _new_row() -> dict:
    return {"spans": 0, "events": 0, "busy": 0.0}


def _tally(row: dict, record) -> None:
    """Count ``record`` into a spans / events / busy-seconds row."""
    if record.kind == "span":
        row["spans"] += 1
        row["busy"] += record.duration_s
    else:
        row["events"] += 1


def _tag_table(tag: str, rows: dict[str, dict], *, key) -> list[str]:
    """The summary block for one record tag, or nothing if none carried it."""
    if not rows:
        return []
    lines = ["", f"{tag:<10} {'spans':>6} {'events':>7} {'busy s':>10}"]
    for value in sorted(rows, key=key):
        row = rows[value]
        lines.append(
            f"{value:<10} {row['spans']:>6} {row['events']:>7} "
            f"{row['busy']:>10.3f}"
        )
    return lines


def _load_json(path: str):
    try:
        return json.loads("".join(_text_lines(path)))
    except json.JSONDecodeError as err:
        raise TraceFormatError(
            f"{path}: not a JSON document ({err})"
        ) from None


def _load_metrics(path: str) -> dict:
    """A schema-v1 metrics dump, as :meth:`MetricsRegistry.to_json` writes."""
    doc = _load_json(path)
    entries = doc.get("metrics") if isinstance(doc, dict) else None
    if (
        not isinstance(entries, list)
        or doc.get("v") != 1
        or not all(
            isinstance(e, dict) and isinstance(e.get("name", ""), str)
            for e in entries
        )
    ):
        raise TraceFormatError(f"{path}: not a schema-v1 metrics dump")
    return doc


def _looks_like_json_doc(path: str) -> bool:
    """A file opening with ``{``/``[`` is a JSON document, not JSONL.

    Trace lines are objects too, but schema-v1 traces are exactly one
    compact object per line while metrics dumps and summaries are
    indented multi-line documents — the second line disambiguates.
    """
    with closing(_text_lines(path)) as lines:
        first = next(lines, "").strip()
        second = next(lines, "")
    if not first.startswith(("{", "[")):
        return False
    try:
        json.loads(first)
    except json.JSONDecodeError:
        return True  # multi-line document: first line alone won't parse
    return not second.strip()  # whole doc on one line with nothing after


def _run_diff(path_a: str, path_b: str) -> int:
    if _looks_like_json_doc(path_a) and _looks_like_json_doc(path_b):
        found = diff_json_docs(_load_json(path_a), _load_json(path_b))
        if found is None:
            print(f"identical: {path_a} == {path_b}")
            return 0
        path, va, vb = found
        print(f"first divergence at {path}")
        print(f"  {path_a}: {json.dumps(va, sort_keys=True)}")
        print(f"  {path_b}: {json.dumps(vb, sort_keys=True)}")
        return 1
    with closing(_text_lines(path_a)) as lines_a:
        with closing(_text_lines(path_b)) as lines_b:
            div = first_divergence(lines_a, lines_b)
    if div is None:
        print(f"identical: {path_a} == {path_b}")
        return 0
    print(
        render_divergence(div, label_a=path_a, label_b=path_b), end=""
    )
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description=(
            "Summarize, analyze, or convert repro trace files (schema v1)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="one-screen timeline summary")
    p_sum.add_argument("trace", help="JSONL trace file (schema v1)")
    p_sum.add_argument(
        "--limit",
        type=int,
        default=12,
        help="max category rows to print (default: 12)",
    )

    p_cp = sub.add_parser(
        "critical-path", help="makespan-critical chain attribution"
    )
    p_cp.add_argument("trace", help="JSONL trace file (schema v1)")
    p_cp.add_argument(
        "--top",
        type=int,
        default=10,
        help="max bottleneck rows (default: 10)",
    )
    p_cp.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )

    p_diff = sub.add_parser(
        "diff", help="first divergence between two traces or JSON dumps"
    )
    p_diff.add_argument("a", help="first trace / JSON file")
    p_diff.add_argument("b", help="second trace / JSON file")

    p_health = sub.add_parser("health", help="fleet health report")
    p_health.add_argument("trace", help="JSONL trace file (schema v1)")
    p_health.add_argument(
        "--z-threshold",
        type=float,
        default=2.0,
        help="straggler z-score threshold (default: 2.0)",
    )
    p_health.add_argument(
        "--metrics",
        help="metrics JSON dump to fold ledger totals in from",
    )
    p_health.add_argument(
        "-o", "--out", help="also write the JSON report to this path"
    )
    p_health.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )

    p_conv = sub.add_parser("convert", help="re-export a trace file")
    p_conv.add_argument("trace", help="JSONL trace file (schema v1)")
    p_conv.add_argument(
        "-o", "--out", required=True, help="output file path"
    )
    p_conv.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="output format (default: chrome trace_event)",
    )

    args = parser.parse_args(argv)
    # diff's 1 means "the inputs diverge"; a bad input needs its own code.
    bad_input = 2 if args.command == "diff" else 1
    try:
        if args.command == "diff":
            return _run_diff(args.a, args.b)
        if args.command == "summarize":
            if args.limit < 1:
                parser.error("--limit must be at least 1")
            print(
                summarize(iter_jsonl(args.trace), limit=args.limit),
                end="",
            )
            return 0
        if args.command == "critical-path":
            if args.top < 1:
                parser.error("--top must be at least 1")
            result = critical_path(iter_jsonl(args.trace), top=args.top)
            if args.json:
                print(render_json(result), end="")
            else:
                print(render_critical_path(result), end="")
            return 0
        if args.command == "health":
            metrics = _load_metrics(args.metrics) if args.metrics else None
            report = health_report(
                iter_jsonl(args.trace),
                z_threshold=args.z_threshold,
                metrics=metrics,
            )
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(render_json(report))
            if args.json:
                print(render_json(report), end="")
            else:
                print(render_health(report), end="")
            return 0
        # convert: the chrome exporter needs the full record list; the
        # jsonl re-export streams.
        if args.format == "chrome":
            tracer = Tracer(records=list(iter_jsonl(args.trace)))
            tracer.write_chrome(args.out)
            count = len(tracer.records)
        else:
            count = 0
            with open(args.out, "w", encoding="utf-8") as fh:
                for record in iter_jsonl(args.trace):
                    fh.write(record.to_json() + "\n")
                    count += 1
        print(f"wrote {args.format} trace: {args.out} ({count} records)")
        return 0
    except TraceFormatError as err:
        print(f"error: {err}")
        return bad_input
    except OSError as err:
        print(f"error: {err.filename}: {err.strerror}")
        return bad_input
