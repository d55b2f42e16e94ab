"""The repo must satisfy its own determinism contract.

This is the PR-blocking guarantee behind the CI lint gate: the full tree
lints clean, and every suppression that keeps it clean carries a
human-readable reason.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
TREES = ["src", "tests", "benchmarks", "examples"]


@pytest.fixture(scope="module")
def findings():
    return lint_paths([REPO_ROOT / t for t in TREES])


def test_repo_lints_clean(findings):
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n".join(
        f"{f.file}:{f.line}: {f.code} {f.message}" for f in active
    )


def test_every_suppression_carries_a_reason(findings):
    suppressed = [f for f in findings if f.suppressed]
    assert suppressed, "the tree documents intentional exceptions"
    for f in suppressed:
        assert f.suppress_reason, f"{f.file}:{f.line} lacks a reason"


def test_cli_exits_zero_on_the_repo(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([str(REPO_ROOT / t) for t in TREES]) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == [], "the sweep must leave no file behind"
