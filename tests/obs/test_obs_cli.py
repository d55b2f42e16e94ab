"""``python -m repro obs`` — summarize/convert round trips."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.systems import system_by_id
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
)
from repro.obs.cli import main, summarize
from repro.obs.trace import Tracer, iter_jsonl


@pytest.fixture
def trace_path(tmp_path):
    tracer = Tracer()
    tracer.span("node", "compute", 0.0, 2.0, node=0, stage=0)
    tracer.span("node", "compute", 0.0, 1.0, node=1, stage=0)
    tracer.span("net", "upload", 2.0, 3.5, node=0, stage=0)
    tracer.event("cloud", "decision", 3.5, updated=False)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    return path


@pytest.fixture(scope="module")
def fleet_tracer():
    """A small flat fleet run's tracer (system d, three stages)."""
    base = fleet_base_scenario(
        stream_scale=0.02,
        schedule_k=(100, 200, 400),
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    assets = prepare_fleet_assets(FleetScenario(base=base, num_nodes=2, seed=7))
    tracer = Tracer()
    run_fleet(system_by_id("d"), assets, tracer=tracer)
    return tracer


class TestSummarize:
    def test_empty_trace(self):
        assert summarize([]) == "empty trace (0 records)\n"

    def test_counts_window_and_node_rows(self, trace_path):
        text = summarize(iter_jsonl(trace_path))
        assert "records: 4 (3 spans, 1 events)" in text
        assert "virtual window: 0.000 .. 3.500 s" in text
        assert "node.compute" in text
        assert "cloud.decision" in text

    def test_limit_truncates_category_table(self, trace_path):
        text = summarize(iter_jsonl(trace_path), limit=1)
        assert "more categories" in text


class TestCli:
    def test_summarize_command(self, trace_path, capsys):
        assert main(["summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "records: 4" in out

    def test_convert_to_chrome(self, trace_path, tmp_path, capsys, fleet_tracer):
        out_path = tmp_path / "chrome.json"
        assert main(["convert", str(trace_path), "-o", str(out_path)]) == 0
        obj = json.loads(out_path.read_text())
        assert len(obj["traceEvents"]) == 4
        # The fleet CLI writes JSONL only; converting a fleet run's trace
        # gives the bytes the run's own tracer writes as Chrome JSON.
        jsonl = tmp_path / "fleet.jsonl"
        fleet_tracer.write_jsonl(jsonl)
        converted = tmp_path / "fleet_converted.json"
        assert main(["convert", str(jsonl), "-o", str(converted)]) == 0
        direct = tmp_path / "fleet_direct.json"
        fleet_tracer.write_chrome(direct)
        assert converted.read_bytes() == direct.read_bytes()
        assert len(json.loads(direct.read_text())["traceEvents"]) == len(
            fleet_tracer.records
        )

    def test_convert_to_jsonl_is_byte_identical(self, trace_path, tmp_path):
        out_path = tmp_path / "copy.jsonl"
        main(
            [
                "convert",
                str(trace_path),
                "-o",
                str(out_path),
                "--format",
                "jsonl",
            ]
        )
        assert out_path.read_bytes() == trace_path.read_bytes()

    def test_module_entry_point_dispatches_obs(self, trace_path, capsys):
        import sys
        from unittest import mock

        from repro.__main__ import main as module_main

        with mock.patch.object(
            sys, "argv", ["repro", "obs", "summarize", str(trace_path)]
        ):
            assert module_main() == 0
        assert "records: 4" in capsys.readouterr().out


class TestAnalysisCommands:
    def test_critical_path_command(self, trace_path, capsys):
        assert main(["critical-path", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "critical chain:" in out
        assert "node.compute" in out

    def test_critical_path_json(self, trace_path, capsys):
        assert main(["critical-path", str(trace_path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["v"] == 1
        assert obj["critical"]["path"]

    def test_diff_identical_exits_zero(self, trace_path, capsys):
        assert main(["diff", str(trace_path), str(trace_path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_divergent_traces_exit_one(
        self, trace_path, tmp_path, capsys
    ):
        lines = trace_path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["attrs"]["node"] = 9
        lines[2] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        other = tmp_path / "other.jsonl"
        other.write_text("\n".join(lines) + "\n")
        assert main(["diff", str(trace_path), str(other)]) == 1
        out = capsys.readouterr().out
        assert "first divergence at record 3" in out
        assert "attrs.node" in out

    def test_diff_json_documents(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"v": 1, "x": 2}, indent=2) + "\n")
        b.write_text(json.dumps({"v": 1, "x": 3}, indent=2) + "\n")
        assert main(["diff", str(a), str(a)]) == 0
        assert main(["diff", str(a), str(b)]) == 1
        assert "$.x" in capsys.readouterr().out

    def test_health_command_writes_report(
        self, trace_path, tmp_path, capsys
    ):
        out_path = tmp_path / "health.json"
        assert main(
            ["health", str(trace_path), "-o", str(out_path)]
        ) == 0
        text = capsys.readouterr().out
        assert "stragglers:" in text
        report = json.loads(out_path.read_text())
        assert report["v"] == 1
        assert len(report["nodes"]) == 2

    def test_health_json_output_is_byte_stable(self, trace_path, capsys):
        assert main(["health", str(trace_path), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["health", str(trace_path), "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_malformed_trace_is_line_anchored(self, tmp_path, capsys):
        span = '"v":1,"kind":"span","cat":"node","name":"compute"'
        bad_lines = [
            '{"v":1,"kind":"span","cat":"c","na',
            "{" + span + ',"t0":0.0,"t1":1.5,"attrs":[]}',
            "{" + span + ',"t0":"0","t1":1.5}',
            "{" + span + ',"t0":null,"t1":1.5}',
            "{" + span + ',"t0":0.0,"t1":true}',
            "{" + span + ',"t0":0.0,"t1":1.5,"attrs":{"node":[1]}}',
        ]
        path = tmp_path / "bad.jsonl"
        for line in bad_lines:
            path.write_text(line + "\n")
            for command in ("summarize", "critical-path", "health"):
                assert main([command, str(path)]) == 1, (command, line)
                out = capsys.readouterr().out
                assert "error:" in out and "bad.jsonl:1:" in out, line


    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        cut=st.integers(0, 4),
        insert=st.text(alphabet='{}[]",:.-0123456789aeflnrstu\\ ', max_size=4),
    )
    def test_mutated_fleet_trace_never_raises(
        self, fleet_tracer, tmp_path_factory, data, cut, insert
    ):
        """One mutated line of a fleet trace: each command succeeds or
        prints one ``error:`` line and exits 1, never a traceback."""
        path = tmp_path_factory.getbasetemp() / "fuzzed.jsonl"
        fleet_tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        index = data.draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        pos = data.draw(st.integers(0, len(line)))
        lines[index] = line[:pos] + insert + line[pos + cut :]
        path.write_text("\n".join(lines) + "\n")
        for command in ("summarize", "health", "critical-path"):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main([command, str(path)])
            out = stdout.getvalue()
            if code != 0:
                assert code == 1, (command, lines[index])
                assert out.startswith("error: ") and out.count("\n") == 1, out


class TestBadInputs:
    """A bad input file is one ``error: <path>: ...`` line and exit 1 —
    exit 2 for ``diff``, whose 1 means the inputs diverge."""

    @pytest.mark.parametrize(
        "command",
        ["summarize", "critical-path", "health", "convert", "diff"],
    )
    def test_missing_file(self, command, trace_path, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        argv = [command, str(missing)]
        if command == "convert":
            argv += ["-o", str(tmp_path / "out.json")]
        if command == "diff":
            argv.append(str(trace_path))
        assert main(argv) == (2 if command == "diff" else 1)
        out = capsys.readouterr().out
        assert out == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize(
        "command",
        ["summarize", "critical-path", "health", "convert", "diff"],
    )
    def test_undecodable_file(self, command, trace_path, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(trace_path.read_bytes() + b"\x00\xff\xfe\n")
        argv = [command, str(bad)]
        if command == "convert":
            argv += ["-o", str(tmp_path / "out.json")]
        if command == "diff":
            argv.insert(1, str(trace_path))
        assert main(argv) == (2 if command == "diff" else 1)
        out = capsys.readouterr().out
        assert out.startswith(f"error: {bad}: not UTF-8 text"), out
        assert out.count("\n") == 1, out

    def test_diff_malformed_json_document_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"v": 1,\n"metrics": [\n')
        assert main(["diff", str(bad), str(bad)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {bad}: not a JSON document"), out

    @pytest.mark.parametrize(
        "content",
        [
            None,  # the trace itself: JSONL, not one JSON document
            "[1, 2]\n",
            '{"v": 1, "metrics": [3]}\n',
            '{"v": 2, "metrics": []}\n',
        ],
    )
    def test_health_metrics_must_be_a_metrics_dump(
        self, content, trace_path, tmp_path, capsys
    ):
        metrics = trace_path
        if content is not None:
            metrics = tmp_path / "metrics.json"
            metrics.write_text(content)
        argv = ["health", str(trace_path), "--metrics", str(metrics)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: {metrics}: "), out
        assert out.count("\n") == 1, out

    def test_health_accepts_a_metrics_dump(self, trace_path, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("fleet.bytes.uploaded", system="d").inc(5)
        metrics = tmp_path / "metrics.json"
        registry.write_json(metrics)
        out = tmp_path / "health.json"
        argv = ["health", str(trace_path), "--metrics", str(metrics)]
        assert main(argv + ["-o", str(out)]) == 0
        ledger = json.loads(out.read_text())["ledger"]
        assert [entry["value"] for entry in ledger] == [5]

class TestPhaseTable:
    def test_phase_table_renders_for_scenario_traces(self):
        tracer = Tracer()
        tracer.span("node", "compute", 0.0, 2.0, node=0, stage=0, phase="p0")
        tracer.span("node", "compute", 2.0, 3.0, node=0, stage=1, phase="p1")
        tracer.event("scenario", "stage", 3.0, stage=1, phase="p1")
        text = summarize(tracer.records)
        lines = text.splitlines()
        assert any(line.startswith("phase") for line in lines)
        assert any(line.startswith("p0") for line in lines)
        assert any(line.startswith("p1") for line in lines)

    def test_phaseless_traces_keep_the_old_layout(self, trace_path):
        text = summarize(iter_jsonl(trace_path))
        assert not any(
            line.startswith("phase") for line in text.splitlines()
        )
