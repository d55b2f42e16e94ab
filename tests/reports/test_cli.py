"""CLI experiment runner tests."""

from __future__ import annotations

import re

import pytest

from repro.reports import figures
from repro.reports.cli import _EXPERIMENTS, main
from repro.reports.tables import format_table


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
            main(["fleet", "--nodes", "2", "--fleet-seed", "-1"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert re.search(
            r"error: invalid fleet scenario: seed must be an integer >= 0, "
            r"got -1$",
            err,
            re.MULTILINE,
        ), err


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
