"""Static enforcement of the repo's determinism & performance contract.

The reproduction's correctness rests on invariants that no runtime test
can fully pin down: bit-identical RNG streams at any worker count,
no silent float64 promotion on hot paths, and strict isolation of the
``*.reference`` oracle modules.  ``repro.lint`` makes those invariants
machine-checked: a zero-dependency (stdlib ``ast``) analysis pass with a
stable rule registry (``RPR001``...), per-statement suppressions that
must carry a reason, and text/JSON reporters wired into CI.

Usage::

    python -m repro lint [paths ...] [--format json]
    python -m repro lint --list-rules

Programmatic::

    from repro.lint import lint_paths
    findings = lint_paths(["src", "tests"])
    active = [f for f in findings if not f.suppressed]
"""

from repro.lint.engine import (
    Finding,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.report import render_json, render_text
from repro.lint.rules import RULES, Rule, all_codes, select_rules

__all__ = [
    "Finding",
    "RULES",
    "Rule",
    "all_codes",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "select_rules",
]
