"""Summary determinism and the `python -m repro scenario` CLI.

The summary JSON is the scenario engine's published artifact: CI diffs
two back-to-back runs byte-for-byte, so its determinism across reruns is
pinned here, along with a cross-commit hash of one summary and the
replicate seeding scheme that makes bootstrap CIs reproducible.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenario import build_summary, load_spec, summary_json
from repro.scenario.cli import main as scenario_main
from repro.scenario.summary import replicate_seed, replicate_spec

SMALL_YAML = """\
scenario:
  name: summary-small
  seed: 3
  engine: lockstep

fleet:
  nodes: 2
  stages: 3
  base:
    stream_scale: 0.02
    pretrain_images: 32
    pretrain_epochs: 1
    init_epochs: 2
    update_epochs: 1
    eval_images: 32

processes:
  churn:
    rate: 0.4

replicates:
  count: 2
  bootstrap_samples: 50
"""


@pytest.fixture(scope="module")
def small_spec():
    return load_spec(SMALL_YAML, filename="small.yaml")


class TestReplicateSeeding:
    def test_replicate_zero_is_the_spec_itself(self, small_spec):
        assert replicate_spec(small_spec, 0) is small_spec
        assert replicate_seed(small_spec, 0) == small_spec.seed

    def test_later_replicates_reseed_everything(self, small_spec):
        spec1 = replicate_spec(small_spec, 1)
        assert spec1.seed == replicate_seed(small_spec, 1) != small_spec.seed
        assert spec1.fleet.seed == spec1.seed
        assert spec1.fleet.base.seed == spec1.seed

    def test_seeds_are_distinct_across_replicates(self, small_spec):
        seeds = [replicate_seed(small_spec, r) for r in range(8)]
        assert len(set(seeds)) == len(seeds)


class TestSummaryDeterminism:
    @pytest.fixture(scope="class")
    def summary(self, small_spec):
        return build_summary(small_spec)

    def test_byte_identical_across_reruns(self, small_spec, summary):
        again = build_summary(small_spec)
        assert summary_json(again) == summary_json(summary)

    def test_summary_bytes_are_pinned(self, summary):
        # Recorded when ``engine: lockstep`` still had its own stage loop;
        # the event engine's barrier mode reproduces it byte for byte.
        assert hashlib.sha256(summary_json(summary).encode()).hexdigest() == (
            "b6c57ee35fda0d1a28e427ccf15137f2884634aaaa2ad9f39247e1d55c77f4d8"
        )

    def test_shape(self, small_spec, summary):
        assert summary["schema"] == 1
        assert summary["scenario"]["name"] == "summary-small"
        assert summary["scenario"]["processes"] == ["churn"]
        assert summary["replicates"]["count"] == 2
        assert len(summary["per_replicate"]) == 2
        for name, entry in summary["metrics"].items():
            assert len(entry["values"]) == 2
            assert entry["ci_lo"] <= entry["mean"] <= entry["ci_hi"], name

    def test_json_is_sorted_and_newline_terminated(self, summary):
        text = summary_json(summary)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(
            json.dumps(summary, sort_keys=True)
        )


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.yaml"
        path.write_text(SMALL_YAML)
        assert scenario_main(["validate", str(path)]) == 0
        assert "summary-small" in capsys.readouterr().out

    def test_validate_error_points_at_line(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario:\n  name: x\n  engine: warp\n")
        assert scenario_main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error:" in out and "bad.yaml:3" in out

    def test_list_flags_invalid_files(self, tmp_path, capsys):
        (tmp_path / "ok.yaml").write_text(SMALL_YAML)
        (tmp_path / "bad.yaml").write_text("nonsense\n")
        binary = tmp_path / "binary.yaml"
        binary.write_bytes(b"scenario:\n  name: \xc0\xff\n")
        assert scenario_main(["list", str(tmp_path)]) == 0
        bad, undecodable, ok = capsys.readouterr().out.splitlines()
        assert bad.startswith("bad.yaml") and "INVALID: " in bad
        assert undecodable == (
            f"{'binary.yaml':<28} INVALID: {binary}:2: "
            "not UTF-8 text (invalid start byte)"
        )
        assert "summary-small" in ok

    def test_list_flags_unreadable_entries(self, tmp_path, capsys):
        (tmp_path / "ok.yaml").write_text(SMALL_YAML)
        (tmp_path / "sub.yaml").mkdir()
        assert scenario_main(["list", str(tmp_path)]) == 0
        ok, sub = capsys.readouterr().out.splitlines()
        assert "summary-small" in ok
        assert sub == (
            f"{'sub.yaml':<28} INVALID: {tmp_path / 'sub.yaml'}: Is a directory"
        )

    def test_run_writes_summary_and_trace(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(SMALL_YAML)
        out_json = tmp_path / "summary.json"
        trace = tmp_path / "trace.jsonl"
        code = scenario_main(
            [
                "run",
                str(path),
                "--out",
                str(out_json),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        summary = json.loads(out_json.read_text())
        assert summary["scenario"]["name"] == "summary-small"
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        stdout = capsys.readouterr().out
        assert "final_eval_accuracy" in stdout

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_missing_file_is_an_error_line(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.yaml"
        assert scenario_main([command, str(missing)]) == 1
        out = capsys.readouterr().out
        assert out == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_undecodable_file_is_an_error_line(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "binary.yaml"
        path.write_bytes(b"\xc0\xff")
        assert scenario_main([command, str(path)]) == 1
        out = capsys.readouterr().out
        assert out == (
            f"error: {path}:1: not UTF-8 text (invalid start byte)\n"
        )

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_run_refuses_a_missing_output_directory_up_front(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the scenario ran before the path check")

        monkeypatch.setattr("repro.scenario.cli.build_summary", never)
        path = tmp_path / "run.yaml"
        path.write_text(SMALL_YAML)
        target = tmp_path / "absent" / "file"
        assert scenario_main(["run", str(path), flag, str(target)]) == 1
        assert capsys.readouterr().out == (
            f"error: {target}: no such directory\n"
        )

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_run_refuses_an_existing_directory_up_front(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the scenario ran before the path check")

        monkeypatch.setattr("repro.scenario.cli.build_summary", never)
        path = tmp_path / "run.yaml"
        path.write_text(SMALL_YAML)
        assert scenario_main(["run", str(path), flag, str(tmp_path)]) == 1
        assert capsys.readouterr().out == (
            f"error: {tmp_path}: is a directory\n"
        )

    def test_run_rejects_bad_engine(self, tmp_path, capsys):
        # The engine comes from the spec alone; an unknown one is refused
        # with a line-anchored error before anything runs.
        path = tmp_path / "run.yaml"
        path.write_text(SMALL_YAML.replace("engine: lockstep", "engine: warp"))
        assert scenario_main(["run", str(path)]) == 1
        out = capsys.readouterr().out
        assert out == (
            f"error: {path}:4: top-level.scenario.engine must be one of "
            "lockstep, event\n"
        )
