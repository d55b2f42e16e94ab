"""CLI experiment runner tests."""

from __future__ import annotations

import re

import pytest

from repro.reports import figures
from repro.reports.claims import CLAIMS
from repro.reports.cli import _EXPERIMENTS, main
from repro.reports.tables import format_table


def _forbid_training(monkeypatch):
    """Make every claim's rows raise, so a test sees any training start."""

    def never(seed):
        raise AssertionError("a training claim ran")

    for name, (_, table) in CLAIMS.items():
        monkeypatch.setitem(CLAIMS, name, (never, table))


class TestFormatTable:
    def test_contains_title_and_cells(self):
        out = format_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        assert "=== T ===" in out
        assert "333" in out

    def test_alignment(self):
        out = format_table("T", ["col"], [["x"], ["longer"]])
        lines = out.splitlines()
        # Header padded to the longest cell.
        assert lines[1].startswith("col")

    def test_empty_rows(self):
        out = format_table("T", ["a"], [])
        assert out.splitlines() == ["=== T ===", "a"]


class TestCLI:
    def test_single_experiment(self, capsys):
        assert main(["fig15"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 15" in out

    def test_multiple_experiments(self, capsys):
        assert main(["fig11", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 11" in out and "Fig. 12" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_cheap_experiments_registered(self):
        # Every figure repro.reports.figures defines, plus the specs table.
        assert set(_EXPERIMENTS) == set(figures.FIGURES) | {"specs"}
        assert {"fig21", "fig23", "engines"} <= set(figures.FIGURES)
        # The training claims are a separate, named-only registry.
        assert not set(CLAIMS) & set(_EXPERIMENTS)

    @pytest.mark.parametrize("argv", [[], ["all"]])
    def test_default_run_trains_nothing(self, argv, capsys, monkeypatch):
        _forbid_training(monkeypatch)
        for name in _EXPERIMENTS:  # the tables themselves are tested above
            monkeypatch.setitem(_EXPERIMENTS, name, lambda name=name: name)
        assert main(argv) == 0
        assert capsys.readouterr().out.split() == sorted(_EXPERIMENTS)

    def test_help_names_every_claim(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        for name in CLAIMS:
            assert f"'{name}'" in out, name

    def test_import_repro_loads_no_claim(self):
        # Every e2e workload pays for `import repro`; the claims' training
        # stack is loaded only when a claim runs.
        import subprocess
        import sys

        code = (
            "import sys, repro, repro.reports.cli; "
            "sys.exit('repro.reports.claims' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_figure_titles_are_distinct(self):
        # A table's title line does not depend on its rows.
        titles = [
            table([]).splitlines()[0] for _, table in figures.FIGURES.values()
        ]
        assert all(t.startswith("=== ") for t in titles)
        assert len(set(titles)) == len(titles), titles


class TestFleetModeFlag:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--mode", "warp-speed"])

    def test_mode_validated_even_without_fleet_experiment(self):
        # The flag is validated on the consistent manual path regardless
        # of which experiments run.
        with pytest.raises(SystemExit):
            main(["fig15", "--mode", "warp-speed"])

    def test_horizon_requires_event_mode(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--mode", "lockstep", "--horizon", "10"])

    def test_horizon_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--mode", "event", "--horizon", "0"])

    def test_valid_modes_accepted_by_parser(self, capsys):
        # A cheap experiment with a valid mode flag parses and runs.
        assert main(["fig15", "--mode", "event", "--horizon", "5"]) == 0
        assert main(["fig15", "--mode", "lockstep"]) == 0
        capsys.readouterr()


class TestFleetSeed:
    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["fleet", "--nodes", "2", "--seed", "-1"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert re.search(
            r"error: --seed must be an integer >= 0, got -1$",
            err,
            re.MULTILINE,
        ), err

    @pytest.mark.parametrize("claim", sorted(CLAIMS))
    def test_negative_seed_refused_before_a_claim_trains(
        self, claim, capsys, monkeypatch
    ):
        _forbid_training(monkeypatch)
        with pytest.raises(SystemExit) as caught:
            main([claim, "--seed", "-1"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "error: --seed must be an integer >= 0" in err, err


class TestFleetOutputPaths:
    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_missing_directory_refused_before_the_fleet_runs(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the fleet ran before the path check")

        monkeypatch.setattr("repro.reports.cli._render_fleet", never)
        target = tmp_path / "absent" / "out"
        with pytest.raises(SystemExit) as caught:
            main(["fleet", "--nodes", "2", flag, str(target)])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {flag} {target}: no such directory" in err, err

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_existing_directory_refused_before_the_fleet_runs(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the fleet ran before the path check")

        monkeypatch.setattr("repro.reports.cli._render_fleet", never)
        with pytest.raises(SystemExit) as caught:
            main(["fleet", "--nodes", "2", flag, str(tmp_path)])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {flag} {tmp_path}: is a directory" in err, err


class TestFleetTopology:
    def test_lockstep_topology_is_the_event_barrier_run(self, capsys):
        assert main(
            ["fleet", "--nodes", "2", "--topology", "fan-out",
             "--fan-out", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "=== Event-driven fleet, barrier mode (2 nodes, "
            "policy=per-stage, full schedule)"
        ), out[:200]
        assert "Hierarchical topology — per-tier movement" in out
