"""Streaming trace analytics: critical path, diff, health, memory.

Contracts under test:

* the streaming reader surfaces malformed lines as ``path:line:``
  anchored errors and analyzes traces at constant memory, never
  materializing the record list;
* ``critical-path`` / ``health`` outputs are byte-identical across
  reruns and worker counts (they are pure functions of trace bytes);
* a deliberately divergent trace pair is localized by ``obs diff`` to
  exactly the first flipped record, with the correct enclosing span
  stack, on both lockstep traces (``run_fleet``: the event engine's
  barrier mode) and async event traces.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.systems import system_by_id
from repro.fleet.async_sim import run_fleet_event
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.analyze import (
    critical_path,
    diff_json_docs,
    first_divergence,
    health_report,
    render_critical_path,
    render_divergence,
    render_health,
)
from repro.obs.metrics import render_json
from repro.obs.trace import TraceFormatError, iter_jsonl


@pytest.fixture(scope="module")
def assets():
    base = fleet_base_scenario(
        stream_scale=0.02,
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    return prepare_fleet_assets(FleetScenario(base=base, num_nodes=3, seed=7))


@pytest.fixture(scope="module")
def lockstep_trace(assets):
    tracer = Tracer()
    run_fleet(system_by_id("d"), assets, tracer=tracer)
    return tracer.to_jsonl()


@pytest.fixture(scope="module")
def pooled_trace(assets):
    tracer = Tracer()
    run_fleet(system_by_id("d"), assets, workers=2, tracer=tracer)
    return tracer.to_jsonl()


@pytest.fixture(scope="module")
def event_trace(assets):
    tracer = Tracer()
    run_fleet_event(system_by_id("d"), assets, tracer=tracer)
    return tracer.to_jsonl()


def _records(text: str):
    from repro.obs.trace import _parse_line

    return [
        _parse_line("<mem>", i, line)
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


# ---------------------------------------------------------------------------
# Streaming reader


class TestStreamingReader:
    def test_malformed_line_mid_file_is_line_anchored(self, tmp_path):
        """Truncated JSON mid-file -> path:line error, not a stack trace."""
        path = tmp_path / "trunc.jsonl"
        good = (
            '{"attrs":{},"cat":"node","kind":"span","name":"compute",'
            '"t0":0.0,"t1":1.0,"v":1}'
        )
        path.write_text(good + "\n" + good[: len(good) // 2] + "\n")
        with pytest.raises(TraceFormatError, match=r"trunc\.jsonl:2: "):
            list(iter_jsonl(path))

    def test_missing_key_is_line_anchored(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"v":1,"kind":"event","cat":"c","name":"n"}\n')
        with pytest.raises(
            TraceFormatError, match=r"short\.jsonl:1: .*t0"
        ):
            list(iter_jsonl(path))

    def test_wrong_version_is_line_anchored(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        path.write_text('{"v":2,"kind":"event"}\n')
        with pytest.raises(TraceFormatError, match=r"v2\.jsonl:1: "):
            list(iter_jsonl(path))

    def test_cli_summarize_reports_malformed_line(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = tmp_path / "trunc.jsonl"
        path.write_text('{"v":1,"kind":"span","cat":"c","na\n')
        assert main(["summarize", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error:" in out and "trunc.jsonl:1:" in out

    def test_streaming_matches_read_jsonl(self, lockstep_trace, tmp_path):
        """Streaming the file reads the records parsing the text gives."""
        path = tmp_path / "t.jsonl"
        path.write_text(lockstep_trace)
        assert list(iter_jsonl(path)) == _records(lockstep_trace)


class TestConstantMemory:
    #: nodes per stage; each stage writes 2 * NODES + 2 records
    NODES = 8

    def _write_trace(self, path, stages):
        with open(path, "w", encoding="utf-8") as fh:
            t = 0.0
            for s in range(stages):
                for n in range(self.NODES):
                    dur = 1.0 + 0.01 * n
                    fh.write(
                        f'{{"attrs":{{"node":{n},"stage":{s}}},'
                        f'"cat":"node","kind":"span","name":"compute",'
                        f'"t0":{t},"t1":{t + dur},"v":1}}\n'
                    )
                for n in range(self.NODES):
                    fh.write(
                        f'{{"attrs":{{"bytes":1000,"node":{n},'
                        f'"stage":{s}}},"cat":"net","kind":"span",'
                        f'"name":"upload","t0":{t + 1.2},'
                        f'"t1":{t + 1.5},"v":1}}\n'
                    )
                fh.write(
                    f'{{"attrs":{{"stage":{s}}},"cat":"cloud",'
                    f'"kind":"span","name":"update","t0":{t + 1.5},'
                    f'"t1":{t + 2.0},"v":1}}\n'
                )
                fh.write(
                    f'{{"attrs":{{"promoted":true,"stage":{s},'
                    f'"updated":true}},"cat":"cloud","kind":"event",'
                    f'"name":"decision","t0":{t + 2.0},"t1":null,"v":1}}\n'
                )
                t += 2.0

    def _peak_bytes(self, path, n_records):
        """Peak traced allocation of both streaming analyses over ``path``."""
        tracemalloc.start()
        try:
            cp = critical_path(iter_jsonl(path))
            health = health_report(iter_jsonl(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cp["records"] == health["records"] == n_records
        return peak

    def test_100k_records_analyzed_at_constant_memory(self, tmp_path):
        """A 10x longer trace costs the analyses no more memory.

        1,080 and 10,800 records (~0.2 and ~2 MB of JSONL) peak at about
        30 KB each; a materialized record list would add megabytes.
        """
        peaks = []
        for stages in (60, 600):
            path = tmp_path / f"trace_{stages}.jsonl"
            self._write_trace(path, stages)
            peaks.append(
                self._peak_bytes(path, stages * (2 * self.NODES + 2))
            )
        small, large = peaks
        assert large - small < 16 * 1024
        assert max(peaks) < 64 * 1024


# ---------------------------------------------------------------------------
# Critical path


class TestCriticalPath:
    def test_synthetic_chain_attribution(self):
        tracer = Tracer()
        # node 1 is the straggler: its compute binds the upload wave,
        # then the cloud update and the push-down complete the chain.
        tracer.span("node", "compute", 0.0, 1.0, node=0, stage=0)
        tracer.span("node", "compute", 0.0, 3.0, node=1, stage=0)
        tracer.span("net", "upload", 1.0, 1.5, node=0, stage=0, bytes=10)
        tracer.span("net", "upload", 3.0, 3.5, node=1, stage=0, bytes=10)
        tracer.span("cloud", "update", 3.5, 5.0, stage=0, promoted=True)
        tracer.event("cloud", "decision", 5.0, stage=0, updated=True,
                     promoted=True)
        tracer.span("net", "push", 5.0, 5.5, node=0, stage=0, bytes=20)
        tracer.span("net", "push", 5.0, 6.0, node=1, stage=0, bytes=20)
        result = critical_path(_records(tracer.to_jsonl()))

        assert result["window"]["makespan_s"] == 6.0
        assert result["critical"]["finish_s"] == 6.0
        # chain: node1 compute (3.0) + upload (0.5) + update (1.5)
        # + push to node1 (1.0)
        assert result["critical"]["busy_s"] == 6.0
        assert result["critical"]["coverage"] == 1.0
        top = result["critical"]["path"][0]
        assert top["op"] == "node.compute"
        assert top["actor"] == "node:1"
        assert top["busy_s"] == 3.0

    def test_idle_gap_keeps_chain_feasible(self):
        tracer = Tracer()
        tracer.span("node", "compute", 0.0, 1.0, node=0, stage=0)
        tracer.span("net", "upload", 1.0, 2.0, node=0, stage=0, bytes=1)
        # cloud starts *before* the upload finishes: the upload is not a
        # feasible predecessor, so the cloud chain starts fresh.
        tracer.span("cloud", "update", 0.5, 4.0, stage=0)
        result = critical_path(_records(tracer.to_jsonl()))
        assert result["critical"]["busy_s"] == 3.5
        assert result["critical"]["path"][0]["op"] == "cloud.update"

    def test_lockstep_trace_attributes_all_components(self, lockstep_trace):
        result = critical_path(_records(lockstep_trace))
        assert result["critical"]["busy_s"] > 0.0
        assert 0.0 < result["critical"]["coverage"] <= 1.0 + 1e-9
        ops = {e["op"] for e in result["critical"]["path"]}
        assert any(op.startswith("node.") for op in ops)

    def test_output_byte_identical_across_reruns_and_workers(
        self, lockstep_trace, pooled_trace
    ):
        a = render_json(critical_path(_records(lockstep_trace)))
        b = render_json(critical_path(_records(lockstep_trace)))
        c = render_json(critical_path(_records(pooled_trace)))
        assert a == b == c
        assert render_critical_path(
            critical_path(_records(lockstep_trace))
        ) == render_critical_path(critical_path(_records(pooled_trace)))

    def test_event_trace_has_positive_coverage(self, event_trace):
        result = critical_path(_records(event_trace))
        assert result["critical"]["busy_s"] > 0.0
        assert result["spans"] > 0

    def test_render_is_one_screen_text(self, lockstep_trace):
        text = render_critical_path(critical_path(_records(lockstep_trace)))
        assert "critical chain:" in text
        assert text.endswith("\n")

    def test_empty_trace(self):
        result = critical_path([])
        assert result["records"] == 0
        assert result["critical"]["path"] == []


# ---------------------------------------------------------------------------
# First divergence


def _flip_attr_at(trace: str, index: int) -> str:
    """Flip one attr value at 1-based record ``index``; returns new text."""
    lines = trace.splitlines()
    obj = json.loads(lines[index - 1])
    key = sorted(obj["attrs"])[0]
    value = obj["attrs"][key]
    obj["attrs"][key] = (
        value + 1 if isinstance(value, (int, float)) else f"{value}-flipped"
    )
    lines[index - 1] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def _divergence_case(trace: str):
    """Pick a record k (an uploaded span past the start), flip, diff."""
    lines = trace.splitlines()
    k = next(
        i
        for i, line in enumerate(lines, start=1)
        if i > len(lines) // 2 and '"attrs":{}' not in line
    )
    mutated = _flip_attr_at(trace, k)
    return k, first_divergence(trace.splitlines(), mutated.splitlines())


class TestFirstDivergence:
    def test_identical_traces_have_no_divergence(
        self, lockstep_trace, explain_divergence
    ):
        assert (
            first_divergence(
                lockstep_trace.splitlines(), lockstep_trace.splitlines()
            )
            is None
        )
        assert explain_divergence(lockstep_trace, lockstep_trace) is None

    @pytest.mark.parametrize("which", ["lockstep", "event"])
    def test_flip_localized_to_exact_record(
        self, which, lockstep_trace, event_trace
    ):
        trace = lockstep_trace if which == "lockstep" else event_trace
        k, div = _divergence_case(trace)
        assert div is not None
        assert div.index == k
        assert div.kind == "field-diff"
        assert len(div.fields) == 1
        field_name, va, vb = div.fields[0]
        assert field_name.startswith("attrs.")
        assert va != vb

    @pytest.mark.parametrize("which", ["lockstep", "event"])
    def test_span_stack_encloses_divergent_record(
        self, which, lockstep_trace, event_trace
    ):
        trace = lockstep_trace if which == "lockstep" else event_trace
        k, div = _divergence_case(trace)
        ref_t = json.loads(trace.splitlines()[k - 1])["t0"]
        for span in div.span_stack:
            assert span["t0"] <= ref_t <= span["t1"]

    def test_length_mismatch_reported(self, lockstep_trace):
        lines = lockstep_trace.splitlines()
        div = first_divergence(lines, lines[:-1])
        assert div is not None
        assert div.index == len(lines)
        assert div.kind == "b-ended"

    def test_render_names_the_field_and_record(self, lockstep_trace):
        k, div = _divergence_case(lockstep_trace)
        text = render_divergence(div, label_a="run1", label_b="run2")
        assert f"first divergence at record {k}" in text
        assert "run1:" in text and "run2:" in text

    def test_explain_divergence_round_trip(
        self, lockstep_trace, explain_divergence
    ):
        k, _ = _divergence_case(lockstep_trace)
        mutated = _flip_attr_at(lockstep_trace, k)
        explanation = explain_divergence(lockstep_trace, mutated)
        assert explanation is not None
        assert f"record {k}" in explanation


class TestJsonDocDiff:
    def test_identical_docs(self):
        doc = {"v": 1, "metrics": [{"name": "a", "value": 2}]}
        assert diff_json_docs(doc, json.loads(json.dumps(doc))) is None

    def test_nested_value_change_localized(self):
        a = {"v": 1, "metrics": [{"name": "a", "value": 2}]}
        b = {"v": 1, "metrics": [{"name": "a", "value": 3}]}
        path, va, vb = diff_json_docs(a, b)
        assert path == "$.metrics[0].value"
        assert (va, vb) == (2, 3)

    def test_missing_key_and_length(self):
        assert diff_json_docs({"a": 1}, {}) == ("$.a", 1, "<absent>")
        assert diff_json_docs([1], [1, 2]) == ("$.length", 1, 2)

    def test_metrics_dump_divergence(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((reg_a, 3), (reg_b, 4)):
            reg.counter("fleet.stages", system="d").inc(n)
        path, va, vb = diff_json_docs(
            json.loads(reg_a.to_json()), json.loads(reg_b.to_json())
        )
        assert "metrics" in path
        assert (va, vb) == (3, 4)


# ---------------------------------------------------------------------------
# Health


class TestHealthReport:
    def _synthetic(self):
        # 6 nodes: a lone outlier among n nodes has z = sqrt(n-1), so 6
        # puts the straggler at ~2.24, past the default 2.0 threshold.
        tracer = Tracer()
        for s in range(4):
            t = 10.0 * s
            for n in range(6):
                dur = 5.0 if n == 5 else 1.0  # node 5 is the straggler
                tracer.span(
                    "node", "compute", t, t + dur, node=n, stage=s
                )
            for n in range(6):  # node 2 never uploads: starved
                if n == 2:
                    continue
                tracer.span(
                    "net", "upload", t + 5.0, t + 6.0,
                    node=n, stage=s, bytes=100,
                )
        tracer.event(
            "cloud", "decision", 40.0,
            stage=3, updated=True, promoted=False,
            cause="canary-regression", delta=-0.125,
        )
        return _records(tracer.to_jsonl())

    def test_straggler_starvation_and_rollback(self):
        report = health_report(self._synthetic())
        assert report["fleet"]["stragglers"] == [5]
        assert report["fleet"]["starved"] == [2]
        straggler = [n for n in report["nodes"] if n["node"] == 5][0]
        assert straggler["straggler"] and straggler["z"] > 2.0
        assert report["rollbacks"] == [
            {
                "stage": 3,
                "t": 40.0,
                "cause": "canary-regression",
                "delta": -0.125,
            }
        ]

    def test_z_threshold_is_tunable(self):
        report = health_report(self._synthetic(), z_threshold=10.0)
        assert report["fleet"]["stragglers"] == []

    def test_byte_identical_across_reruns_and_workers(
        self, lockstep_trace, pooled_trace
    ):
        a = render_json(health_report(_records(lockstep_trace)))
        b = render_json(health_report(_records(lockstep_trace)))
        c = render_json(health_report(_records(pooled_trace)))
        assert a == b == c

    def test_fleet_trace_reports_every_node(self, lockstep_trace):
        report = health_report(_records(lockstep_trace))
        assert [n["node"] for n in report["nodes"]] == [0, 1, 2]
        assert report["fleet"]["upload_bytes"] > 0

    def test_event_trace_health(self, event_trace):
        report = health_report(_records(event_trace))
        assert report["records"] > 0
        assert len(report["nodes"]) == 3

    def test_ledger_totals_fold_in_from_metrics(self):
        reg = MetricsRegistry()
        reg.gauge("fleet.bytes.uploaded", system="d").set(1234)
        reg.counter("fleet.stages", system="d").inc(3)
        report = health_report([], metrics=json.loads(reg.to_json()))
        assert report["ledger"] == [
            {
                "name": "fleet.bytes.uploaded",
                "labels": {"system": "d"},
                "value": 1234,
            }
        ]

    def test_render_flags_stragglers(self):
        text = render_health(health_report(self._synthetic()))
        assert "STRAGGLER" in text
        assert "STARVED" in text
        assert "canary-regression" in text
