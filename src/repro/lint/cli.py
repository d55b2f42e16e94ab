"""``python -m repro lint`` — the determinism-contract gate.

Exit status: 0 when every finding is suppressed (or none exist), 1 when
any active finding remains, 2 on usage errors.  CI runs this over
``src tests benchmarks examples`` with ``--format json`` and fails on a
non-zero exit.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.report import render_json, render_list_rules, render_text
from repro.lint.rules import all_codes, select_rules

__all__ = ["main"]

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def _parse_codes(
    parser: argparse.ArgumentParser, value: str | None, flag: str
) -> tuple[str, ...] | None:
    if value is None:
        return None
    codes = tuple(c.strip() for c in value.split(",") if c.strip())
    known = set(all_codes())
    for code in codes:
        if code not in known:
            parser.error(
                f"{flag}: unknown rule code {code!r} (see --list-rules)"
            )
    if not codes:
        parser.error(f"{flag}: expected a comma-separated list of rule codes")
    return codes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "Static determinism & performance contract checker (stdlib-ast "
            "only). Lints the given files/directories; directories holding "
            "a .repro-lint-fixtures marker are skipped unless a file in "
            "them is named explicitly."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="path",
        help=(
            "files or directories to lint (default: "
            + " ".join(DEFAULT_PATHS)
            + ", those that exist)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json schema v1 is stable, see DESIGN.md)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (code, scope, summary, rationale)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_list_rules())
        return 0

    select = _parse_codes(parser, args.select, "--select")
    ignore = _parse_codes(parser, args.ignore, "--ignore")
    rules = select_rules(select, ignore)
    if not rules:
        parser.error("--select/--ignore left no rules to run")

    paths = args.paths or [p for p in DEFAULT_PATHS if Path(p).exists()]
    if not paths:
        parser.error(
            "no paths given and none of the default paths "
            f"({', '.join(DEFAULT_PATHS)}) exist here"
        )
    try:
        findings = lint_paths(paths, rules=rules)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))
    return 1 if any(not f.suppressed for f in findings) else 0
