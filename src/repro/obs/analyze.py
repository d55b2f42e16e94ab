"""Streaming trace analytics: critical path, first-divergence, health.

Every analysis in this module consumes a schema-v1 trace as an
*iterator* of :class:`TraceRecord` (usually :func:`iter_jsonl`), holds
state bounded by the number of actors (nodes, gateways, cloud) — never
by the number of records — and produces byte-stable output: same trace
bytes in, same report bytes out, regardless of reruns or worker counts.

Three analyses:

* :func:`critical_path` — reconstructs the span DAG from the virtual
  timeline and the flow/barrier/reconcile edges both fleet engines emit,
  then walks it as a streaming DP: each *lane* (one per node, gateway,
  and the cloud) carries the longest chain ending on that lane, and
  cross-lane *join* points (uploads into a gateway or the cloud) hand
  chains across actors exactly where the engines synchronized.  The
  result is the makespan-critical chain with per (tier, op, actor)
  attribution.
* :func:`first_divergence` / :func:`diff_json_docs` — localize the
  first divergent record between two traces (or the first divergent
  path between two JSON documents, e.g. metrics dumps), with a
  field-level attr diff and the enclosing span stack.
* :func:`health_report` — per-node straggler z-scores, upload
  starvation, per-tier utilization, and canary rollback causes.

Edge rules (see DESIGN.md §13 for the rationale):

``node/*`` and ``net.upload`` spans extend their own node lane;
uploads additionally feed the join of whatever tier terminates them
(``gateway=g`` attr -> that gateway, else the cloud).  ``net.flush``
spans join buffered uploads into the WAN hop; ``cloud.*`` spans join
uploads/flushes into the cloud lane; ``net.push`` / ``net.push-head``
spans hand the cloud (or gateway) chain back down to a node lane;
``net.reconcile`` spans depend on both their node lane and the cloud.
A predecessor chain is *feasible* for a span only if it finishes by the
span's start (the engines compute span starts as a max over exactly
these predecessors, so the binding chain is the feasible one with the
latest finish).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from repro.obs.trace import TraceRecord

__all__ = [
    "Divergence",
    "critical_path",
    "diff_json_docs",
    "first_divergence",
    "health_report",
    "render_critical_path",
    "render_divergence",
    "render_health",
]

_ABSENT = "<absent>"

#: Join lists normally stay at O(actors): contributors are pruned as
#: soon as a consumer span absorbs them.  Traces with no consumer (e.g.
#: synthetic upload-only streams) would grow without bound, so the list
#: is capped deterministically at this size.
_JOIN_CAP = 4096


def _r9(x: float) -> float:
    return round(float(x), 9)


class _Window:
    """Record count and virtual-time extent of the records tallied so far."""

    def __init__(self) -> None:
        self.records = 0
        self.t0 = None
        self.t1 = None

    def add(self, r: TraceRecord) -> None:
        self.records += 1
        end = r.t1 if r.t1 is not None else r.t0
        self.t0 = r.t0 if self.t0 is None else min(self.t0, r.t0)
        self.t1 = end if self.t1 is None else max(self.t1, end)


# ---------------------------------------------------------------------------
# Critical path


@dataclass
class _Chain:
    """Longest-to-here chain state carried by one lane or join entry."""

    finish: float
    busy: float
    seq: int  # deterministic tie-break: emission order of the last span
    attribution: dict = field(default_factory=dict)

    def rank(self):
        return (self.finish, self.busy, self.seq)


def _extend(
    base: _Chain | None, record: TraceRecord, seq: int, key
) -> _Chain:
    dur = record.duration_s
    attribution = dict(base.attribution) if base is not None else {}
    attribution[key] = attribution.get(key, 0.0) + dur
    return _Chain(
        finish=record.t1,
        busy=(base.busy if base is not None else 0.0) + dur,
        seq=seq,
        attribution=attribution,
    )


def _best_feasible(candidates, t0: float) -> _Chain | None:
    """The binding predecessor: latest-finishing chain done by ``t0``."""
    best = None
    for chain in candidates:
        if chain is None or chain.finish > t0 + 1e-9:
            continue
        if best is None or chain.rank() > best.rank():
            best = chain
    return best


def _lane_of(record: TraceRecord) -> str:
    node = record.attr("node")
    if node is not None:
        return f"node:{node}"
    gateway = record.attr("gateway")
    if gateway is not None:
        return f"gw:{gateway}"
    return "cloud"


def _prune_join(entries: list, t0: float) -> None:
    """Drop contributors a consumer starting at ``t0`` has absorbed."""
    entries[:] = [c for c in entries if c.finish > t0 + 1e-9]


def critical_path(records, *, top: int = 10) -> dict:
    """Makespan-critical chain with per (tier, op, actor) attribution.

    ``records`` is any iterable of :class:`TraceRecord`; state is
    O(actors), so a streaming reader keeps the whole analysis at
    constant memory in the trace length.
    """
    lanes: dict[str, _Chain] = {}
    joins: dict[str, list[_Chain]] = {}
    window = _Window()
    n_spans = 0

    def feed(join_key: str, chain: _Chain) -> None:
        entries = joins.setdefault(join_key, [])
        entries.append(chain)
        if len(entries) > _JOIN_CAP:
            entries.sort(key=_Chain.rank, reverse=True)
            del entries[_JOIN_CAP // 2:]

    for seq, r in enumerate(records):
        window.add(r)
        if r.kind != "span":
            continue
        n_spans += 1
        lane = _lane_of(r)
        tier = r.attr("tier") or "-"
        key = (str(tier), f"{r.cat}.{r.name}", lane)
        gateway = r.attr("gateway")
        node = r.attr("node")

        preds: list[_Chain | None] = [lanes.get(lane)]
        feeds_key = None
        if r.cat == "net" and r.name == "upload":
            feeds_key = f"gw:{gateway}" if gateway is not None else "cloud"
        elif r.cat == "net" and r.name == "flush":
            entries = joins.get(lane, ())
            preds.extend(entries)
            feeds_key = "cloud"
        elif r.cat == "gateway":
            preds.extend(joins.get(lane, ()))
        elif r.cat == "cloud":
            entries = joins.get("cloud", ())
            preds.extend(entries)
        elif r.cat == "net" and r.name in ("push", "push-head"):
            # Model push-down: the chain crosses *from* the cloud (or
            # the gateway WAN hop) onto the receiving node's lane.
            if node is not None and gateway is not None:
                preds.append(lanes.get(f"gw:{gateway}"))
            preds.append(lanes.get("cloud"))
        elif r.cat == "net" and r.name == "reconcile":
            preds.append(lanes.get("cloud"))

        base = _best_feasible(preds, r.t0)
        chain = _extend(base, r, seq, key)
        if r.cat == "net" and r.name == "flush":
            _prune_join(joins.setdefault(lane, []), r.t0)
        elif r.cat == "cloud":
            _prune_join(joins.setdefault("cloud", []), r.t0)
        if feeds_key is not None:
            feed(feeds_key, chain)
        prev = lanes.get(lane)
        if prev is None or chain.rank() > prev.rank():
            lanes[lane] = chain

    if window.records == 0:
        return {
            "v": 1,
            "records": 0,
            "spans": 0,
            "window": {"t0": 0.0, "t1": 0.0, "makespan_s": 0.0},
            "critical": {
                "finish_s": 0.0,
                "busy_s": 0.0,
                "coverage": 0.0,
                "path": [],
            },
        }

    winner = None
    for lane in sorted(lanes):
        chain = lanes[lane]
        if winner is None or chain.rank() > winner.rank():
            winner = chain
    makespan = window.t1 - window.t0
    busy = winner.busy if winner is not None else 0.0
    entries = []
    if winner is not None:
        ranked = sorted(
            winner.attribution.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for (tier, op, actor), seconds in ranked[:top]:
            entries.append(
                {
                    "tier": tier,
                    "op": op,
                    "actor": actor,
                    "busy_s": _r9(seconds),
                    "share": _r9(seconds / busy) if busy > 0 else 0.0,
                }
            )
    return {
        "v": 1,
        "records": window.records,
        "spans": n_spans,
        "window": {
            "t0": _r9(window.t0),
            "t1": _r9(window.t1),
            "makespan_s": _r9(makespan),
        },
        "critical": {
            "finish_s": _r9(winner.finish if winner else 0.0),
            "busy_s": _r9(busy),
            "coverage": _r9(busy / makespan) if makespan > 0 else 0.0,
            "path": entries,
        },
    }


def render_critical_path(result: dict) -> str:
    w = result["window"]
    c = result["critical"]
    lines = [
        f"records: {result['records']} ({result['spans']} spans)",
        f"virtual window: {w['t0']:.3f} .. {w['t1']:.3f} s "
        f"(makespan {w['makespan_s']:.3f} s)",
        f"critical chain: {c['busy_s']:.3f} s busy "
        f"({100.0 * c['coverage']:.1f}% of makespan)",
        "",
        f"{'tier':<9} {'op':<22} {'actor':<12} {'busy s':>10} {'share':>7}",
    ]
    for e in c["path"]:
        lines.append(
            f"{e['tier']:<9} {e['op']:<22} {e['actor']:<12} "
            f"{e['busy_s']:>10.3f} {100.0 * e['share']:>6.1f}%"
        )
    if not c["path"]:
        lines.append("(no spans)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# First divergence


@dataclass
class Divergence:
    """Where two traces first part ways.

    ``index`` is the 1-based record index (blank lines don't count);
    ``kind`` is ``field-diff`` when both files have a record there and
    ``a-ended`` / ``b-ended`` when one file ran out first.
    """

    index: int
    kind: str
    line_a: str | None
    line_b: str | None
    fields: list = field(default_factory=list)
    span_stack: list = field(default_factory=list)


def _record_lines(lines):
    for line in lines:
        stripped = line.strip()
        if stripped:
            yield stripped


def _try_parse(line: str | None) -> dict | None:
    if line is None:
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _field_diff(obj_a: dict | None, obj_b: dict | None) -> list:
    if obj_a is None or obj_b is None:
        return [("<json>", obj_a, obj_b)]
    diffs = []
    for key in sorted(set(obj_a) | set(obj_b)):
        if key == "attrs":
            continue
        va = obj_a.get(key, _ABSENT)
        vb = obj_b.get(key, _ABSENT)
        if va != vb:
            diffs.append((key, va, vb))
    attrs_a = obj_a.get("attrs") or {}
    attrs_b = obj_b.get("attrs") or {}
    if isinstance(attrs_a, dict) and isinstance(attrs_b, dict):
        for key in sorted(set(attrs_a) | set(attrs_b)):
            va = attrs_a.get(key, _ABSENT)
            vb = attrs_b.get(key, _ABSENT)
            if va != vb:
                diffs.append((f"attrs.{key}", va, vb))
    return diffs


def first_divergence(lines_a, lines_b) -> Divergence | None:
    """First divergent record between two JSONL traces, or ``None``.

    Works on iterables of raw lines, streaming both sides in lockstep
    with a bounded ring of recent spans for the enclosing-span stack —
    constant memory in the trace length.
    """
    recent_spans: deque = deque(maxlen=64)
    gen_a = _record_lines(lines_a)
    gen_b = _record_lines(lines_b)
    index = 0
    while True:
        line_a = next(gen_a, None)
        line_b = next(gen_b, None)
        index += 1
        if line_a is None and line_b is None:
            return None
        if line_a == line_b:
            obj = _try_parse(line_a)
            if (
                obj is not None
                and obj.get("kind") == "span"
                and obj.get("t1") is not None
            ):
                recent_spans.append(obj)
            continue
        kind = "field-diff"
        if line_a is None:
            kind = "a-ended"
        elif line_b is None:
            kind = "b-ended"
        obj_a = _try_parse(line_a)
        obj_b = _try_parse(line_b)
        ref = obj_a if obj_a is not None else obj_b
        ref_t = ref.get("t0") if ref is not None else None
        stack = []
        if isinstance(ref_t, (int, float)):
            enclosing = [
                s
                for s in recent_spans
                if s["t0"] <= ref_t <= s["t1"]
            ]
            enclosing.sort(key=lambda s: (s["t0"], -s["t1"]))
            stack = [
                {
                    "cat": s.get("cat"),
                    "name": s.get("name"),
                    "t0": s.get("t0"),
                    "t1": s.get("t1"),
                    "attrs": s.get("attrs", {}),
                }
                for s in enclosing[-8:]
            ]
        fields = (
            _field_diff(obj_a, obj_b) if kind == "field-diff" else []
        )
        return Divergence(
            index=index,
            kind=kind,
            line_a=line_a,
            line_b=line_b,
            fields=fields,
            span_stack=stack,
        )


def diff_json_docs(obj_a, obj_b, path: str = "$"):
    """First divergent path between two JSON documents, or ``None``.

    Depth-first in sorted-key order, so the reported path is the same
    on every run.  Returns ``(path, value_a, value_b)``.
    """
    if isinstance(obj_a, dict) and isinstance(obj_b, dict):
        for key in sorted(set(obj_a) | set(obj_b)):
            if key not in obj_a:
                return (f"{path}.{key}", _ABSENT, obj_b[key])
            if key not in obj_b:
                return (f"{path}.{key}", obj_a[key], _ABSENT)
            found = diff_json_docs(obj_a[key], obj_b[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(obj_a, list) and isinstance(obj_b, list):
        for i, (va, vb) in enumerate(zip(obj_a, obj_b)):
            found = diff_json_docs(va, vb, f"{path}[{i}]")
            if found is not None:
                return found
        if len(obj_a) != len(obj_b):
            return (f"{path}.length", len(obj_a), len(obj_b))
        return None
    if obj_a != obj_b or type(obj_a) is not type(obj_b):
        return (path, obj_a, obj_b)
    return None


def render_divergence(
    div: Divergence, *, label_a: str = "a", label_b: str = "b"
) -> str:
    lines = [f"first divergence at record {div.index} ({div.kind})"]
    if div.kind == "a-ended":
        lines.append(f"  {label_a} has no record {div.index}")
    elif div.kind == "b-ended":
        lines.append(f"  {label_b} has no record {div.index}")
    for key, va, vb in div.fields:
        lines.append(f"  {key}: {json.dumps(va)} != {json.dumps(vb)}")
    if not div.fields and div.kind == "field-diff":
        lines.append("  (lines differ only in formatting)")
    if div.span_stack:
        lines.append("  enclosing spans (outermost first):")
        for s in div.span_stack:
            attrs = json.dumps(s["attrs"], sort_keys=True)
            lines.append(
                f"    {s['cat']}.{s['name']} "
                f"[{s['t0']:.6f} .. {s['t1']:.6f}] {attrs}"
            )
    if div.line_a is not None:
        lines.append(f"  {label_a}: {div.line_a}")
    if div.line_b is not None:
        lines.append(f"  {label_b}: {div.line_b}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fleet health


def health_report(
    records, *, z_threshold: float = 2.0, metrics: dict | None = None
) -> dict:
    """Straggler, starvation, utilization, and rollback-cause report.

    Deterministic by construction: every statistic is an exact function
    of the trace bytes (z-scores use the population standard deviation
    over per-node mean compute durations — no sampling, no host state),
    so the report is byte-identical whenever the trace is.
    """
    node_compute: dict = {}
    node_upload: dict = {}
    tier_stats: dict = {}
    rollbacks: list = []
    seen = _Window()
    total_upload_bytes = 0

    for r in records:
        seen.add(r)
        tier = r.attr("tier")
        if tier is not None and r.kind == "span":
            row = tier_stats.setdefault(
                str(tier), {"spans": 0, "busy_s": 0.0, "bytes": 0}
            )
            row["spans"] += 1
            row["busy_s"] += r.duration_s
            b = r.attr("bytes")
            if b:
                row["bytes"] += int(b)
        node = r.attr("node")
        if r.kind == "span" and node is not None:
            if r.cat == "node":
                row = node_compute.setdefault(
                    int(node), {"spans": 0, "busy_s": 0.0}
                )
                row["spans"] += 1
                row["busy_s"] += r.duration_s
            elif r.cat == "net" and r.name == "upload":
                row = node_upload.setdefault(
                    int(node), {"spans": 0, "busy_s": 0.0, "bytes": 0}
                )
                row["spans"] += 1
                row["busy_s"] += r.duration_s
                b = r.attr("bytes")
                if b:
                    row["bytes"] += int(b)
                    total_upload_bytes += int(b)
        if (
            r.kind == "event"
            and r.cat == "cloud"
            and r.name == "decision"
            and r.attr("updated")
            and not r.attr("promoted")
        ):
            rollbacks.append(
                {
                    "stage": r.attr("stage"),
                    "t": _r9(r.t0),
                    "cause": r.attr("cause") or "unknown",
                    "delta": r.attr("delta"),
                }
            )

    window = (seen.t1 - seen.t0) if seen.records else 0.0
    means = {
        n: row["busy_s"] / row["spans"] for n, row in node_compute.items()
    }
    mu = sum(means.values()) / len(means) if means else 0.0
    var = (
        sum((m - mu) ** 2 for m in means.values()) / len(means)
        if means
        else 0.0
    )
    sigma = var**0.5

    nodes = []
    starved = []
    for n in sorted(set(node_compute) | set(node_upload)):
        compute = node_compute.get(n, {"spans": 0, "busy_s": 0.0})
        upload = node_upload.get(n, {"spans": 0, "busy_s": 0.0, "bytes": 0})
        z = (means[n] - mu) / sigma if n in means and sigma > 1e-12 else 0.0
        is_starved = (
            compute["spans"] > 0
            and upload["bytes"] == 0
            and total_upload_bytes > 0
        )
        if is_starved:
            starved.append(n)
        nodes.append(
            {
                "node": n,
                "compute_spans": compute["spans"],
                "compute_busy_s": _r9(compute["busy_s"]),
                "mean_stage_s": _r9(means.get(n, 0.0)),
                "z": _r9(z),
                "straggler": bool(z >= z_threshold),
                "upload_bytes": upload["bytes"],
                "upload_busy_s": _r9(upload["busy_s"]),
                "starved": is_starved,
            }
        )

    tiers = []
    for tier in sorted(tier_stats):
        row = tier_stats[tier]
        tiers.append(
            {
                "tier": tier,
                "spans": row["spans"],
                "busy_s": _r9(row["busy_s"]),
                "bytes": row["bytes"],
                "utilization": _r9(row["busy_s"] / window)
                if window > 0
                else 0.0,
            }
        )

    ledger = []
    if metrics is not None:
        for entry in metrics.get("metrics", ()):
            name = entry.get("name", "")
            if "bytes" in name or name.startswith("topology."):
                ledger.append(
                    {
                        "name": name,
                        "labels": entry.get("labels", {}),
                        "value": entry.get("value"),
                    }
                )

    return {
        "v": 1,
        "records": seen.records,
        "window": {
            "t0": _r9(seen.t0 if seen.records else 0.0),
            "t1": _r9(seen.t1 if seen.records else 0.0),
            "span_s": _r9(window),
        },
        "fleet": {
            "nodes": len(nodes),
            "mean_stage_s": _r9(mu),
            "std_stage_s": _r9(sigma),
            "z_threshold": _r9(z_threshold),
            "stragglers": [n["node"] for n in nodes if n["straggler"]],
            "starved": starved,
            "upload_bytes": total_upload_bytes,
        },
        "nodes": nodes,
        "tiers": tiers,
        "rollbacks": rollbacks,
        "ledger": ledger,
    }


def render_health(report: dict) -> str:
    f = report["fleet"]
    w = report["window"]
    lines = [
        f"records: {report['records']}, nodes: {f['nodes']}, "
        f"window: {w['span_s']:.3f} s",
        f"stage duration: mean {f['mean_stage_s']:.3f} s, "
        f"std {f['std_stage_s']:.3f} s (z threshold "
        f"{f['z_threshold']:.1f})",
        f"stragglers: {f['stragglers'] or 'none'}   "
        f"starved: {f['starved'] or 'none'}   "
        f"rollbacks: {len(report['rollbacks'])}",
        "",
        f"{'node':<6} {'stages':>6} {'mean s':>9} {'z':>7} "
        f"{'up bytes':>10} {'flags':<18}",
    ]
    for n in report["nodes"]:
        flags = []
        if n["straggler"]:
            flags.append("STRAGGLER")
        if n["starved"]:
            flags.append("STARVED")
        lines.append(
            f"{n['node']:<6} {n['compute_spans']:>6} "
            f"{n['mean_stage_s']:>9.3f} {n['z']:>7.2f} "
            f"{n['upload_bytes']:>10} {' '.join(flags):<18}".rstrip()
        )
    if report["tiers"]:
        lines += [
            "",
            f"{'tier':<10} {'spans':>6} {'busy s':>10} {'bytes':>12} "
            f"{'util':>6}",
        ]
        tier_order = {"edge": 0, "gateway": 1, "cloud": 2}
        for row in sorted(
            report["tiers"],
            key=lambda r: (tier_order.get(r["tier"], 99), r["tier"]),
        ):
            lines.append(
                f"{row['tier']:<10} {row['spans']:>6} "
                f"{row['busy_s']:>10.3f} {row['bytes']:>12} "
                f"{100.0 * row['utilization']:>5.1f}%"
            )
    if report["rollbacks"]:
        lines += ["", "rollbacks:"]
        for rb in report["rollbacks"]:
            delta = rb["delta"]
            delta_txt = f" delta={delta:+.6f}" if delta is not None else ""
            lines.append(
                f"  stage {rb['stage']} at {rb['t']:.3f} s: "
                f"{rb['cause']}{delta_txt}"
            )
    if report["ledger"]:
        lines += ["", "ledger totals:"]
        for entry in report["ledger"]:
            labels = json.dumps(entry["labels"], sort_keys=True)
            lines.append(
                f"  {entry['name']} {labels} = {entry['value']}"
            )
    return "\n".join(lines) + "\n"
