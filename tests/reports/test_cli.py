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


class TestFleetTopology:
    def test_workers_with_topology_refused(self, capsys):
        # The worker pool serves only the flat lockstep stage loop.
        with pytest.raises(SystemExit):
            main(
                ["fleet", "--nodes", "2", "--topology", "fan-out",
                 "--workers", "2"]
            )
        err = capsys.readouterr().err
        assert re.search(
            r"error: --workers > 1 cannot be combined with --topology "
            r"fan-out: the worker pool runs only flat fleets$",
            err,
            re.MULTILINE,
        ), err

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
