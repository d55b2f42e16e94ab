"""Lint engine: file walking, pragma parsing, rule dispatch, suppression.

Pragmas (all are comments, matched only at the start of a comment):

``# repro-lint: ignore[RPR004] <reason>``
    Suppress the listed codes on this statement.  A suppression covers
    every physical line of the *logical* statement it is attached to
    (so a pragma on any line of a parenthesized continuation, chained
    call, or multi-line ``def`` signature matches findings anywhere in
    that statement); a pragma on a standalone comment line covers only
    that line.  The reason is mandatory (RPR009) and a suppression that
    matches no finding is itself flagged (RPR010).

``# repro-lint: module=repro.fleet.fake``
    Override the module identity used for rule scoping — rule fixtures
    outside ``src/`` use this to emulate production context.

``# repro-lint: scope=benchmarks``
    Override the file-kind (src/tests/benchmarks/examples) the same way.

Directories containing a ``.repro-lint-fixtures`` marker file are skipped
when walking (they hold intentionally-bad rule fixtures); explicitly
listed *files* are always linted.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.rules import RULES, Rule, all_codes

__all__ = [
    "FileContext",
    "Finding",
    "FIXTURE_MARKER",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

FIXTURE_MARKER = ".repro-lint-fixtures"

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")
_IGNORE_RE = re.compile(r"ignore\[(?P<codes>[^\]]*)\]\s*(?P<reason>.*)$")
_MODULE_RE = re.compile(r"module\s*=\s*(?P<module>[A-Za-z_][\w.]*)\s*$")
_SCOPE_RE = re.compile(r"scope\s*=\s*(?P<scope>[\w-]+)\s*$")
_CODE_RE = re.compile(r"RPR\d{3}$")


@dataclass
class Finding:
    """One reported contract violation.

    The JSON reporter serializes exactly these fields; the schema is
    stable (documented in DESIGN.md) so CI annotations and editor
    integrations can consume it.
    """

    file: str
    line: int
    col: int
    code: str
    message: str
    suppressed: bool = False
    suppress_reason: str | None = None

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.col, self.code)


@dataclass
class _Suppression:
    line: int
    col: int
    codes: tuple[str, ...]
    reason: str
    #: physical lines this suppression covers (its logical statement)
    covered: tuple[int, ...] = ()
    used: set[str] = field(default_factory=set)


@dataclass
class _Pragmas:
    suppressions: list[_Suppression] = field(default_factory=list)
    module: str | None = None
    kind: str | None = None
    problems: list[tuple[int, int, str]] = field(default_factory=list)


class _ImportMap:
    """Local name -> fully qualified dotted path, from import statements."""

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports never hide stdlib/numpy
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: Path
    display: str
    source: str
    tree: ast.AST
    module: str | None
    kind: str
    imports: _ImportMap

    def qualify(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path.

        Bare names resolve through the file's imports and fall back to
        themselves (builtins).  Attribute chains rooted at a name that
        was never imported resolve to ``None`` — an ``rng.random()`` or
        ``self.time.time()`` chain must not impersonate a module.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        mapped = self.imports.aliases.get(node.id)
        if mapped is None:
            if parts:
                return None
            return node.id
        parts.append(mapped)
        return ".".join(reversed(parts))

    def in_module(self, *prefixes: str) -> bool:
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )

    @property
    def is_reference(self) -> bool:
        return self.module is not None and (
            self.module == "reference" or self.module.endswith(".reference")
        )


def _module_from_path(parts: Sequence[str]) -> str | None:
    if "src" not in parts:
        return None
    rel = list(parts[len(parts) - parts[::-1].index("src"):])
    if not rel or not rel[-1].endswith(".py"):
        return None
    rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel.pop()
    return ".".join(rel) if rel else None


def _kind_from_path(parts: Sequence[str]) -> str:
    for kind in ("src", "tests", "benchmarks", "examples"):
        if kind in parts:
            return kind
    return "other"


def _logical_spans(source: str) -> dict[int, tuple[int, int]]:
    """Map each physical line of a logical statement to its line span.

    A logical statement runs from its first non-comment token to the
    ``NEWLINE`` token that terminates it, so a parenthesized
    continuation, a chained call split with ``\\``-free line breaks, or
    a multi-line ``def`` signature is one span.  Decorators terminate
    with their own ``NEWLINE`` and are therefore separate spans — a
    suppression on a decorator line does not leak onto the ``def``.
    Blank and comment-only lines belong to no span.
    """
    spans: dict[int, tuple[int, int]] = {}
    start: int | None = None
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NEWLINE:
                if start is not None:
                    for line in range(start, tok.end[0] + 1):
                        spans[line] = (start, tok.end[0])
                    start = None
            elif tok.type in (
                tokenize.NL,
                tokenize.COMMENT,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                continue
            elif start is None:
                start = tok.start[0]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return spans


def _scan_pragmas(source: str) -> _Pragmas:
    pragmas = _Pragmas()
    known = set(all_codes())
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    spans = _logical_spans(source)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.match(tok.string)
        if match is None:
            continue
        line, col = tok.start
        body = match.group("body").strip()
        ignore = _IGNORE_RE.match(body)
        if ignore is not None:
            codes = tuple(
                c.strip() for c in ignore.group("codes").split(",") if c.strip()
            )
            reason = ignore.group("reason").strip()
            bad = [c for c in codes if not _CODE_RE.match(c) or c not in known]
            if not codes:
                pragmas.problems.append(
                    (line, col, "suppression lists no rule codes")
                )
            for code in bad:
                pragmas.problems.append(
                    (line, col, f"suppression names unknown rule code `{code}`")
                )
            if not reason:
                pragmas.problems.append(
                    (
                        line,
                        col,
                        "suppression must carry a human-readable reason "
                        "after the bracket",
                    )
                )
            good = tuple(c for c in codes if c not in bad)
            if good:
                span = spans.get(line, (line, line))
                pragmas.suppressions.append(
                    _Suppression(
                        line=line,
                        col=col,
                        codes=good,
                        reason=reason,
                        covered=tuple(range(span[0], span[1] + 1)),
                    )
                )
            continue
        module = _MODULE_RE.match(body)
        if module is not None:
            pragmas.module = module.group("module")
            continue
        scope = _SCOPE_RE.match(body)
        if scope is not None:
            pragmas.kind = scope.group("scope")
            continue
        pragmas.problems.append(
            (
                line,
                col,
                f"malformed repro-lint pragma `{body or tok.string}`: "
                "expected ignore[CODES] reason, module=..., or scope=...",
            )
        )
    pragmas.suppressions.sort(key=lambda s: (s.line, s.col))
    return pragmas


def lint_source(
    source: str,
    path: Path | str,
    *,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one in-memory source blob.

    The ``module=`` / ``scope=`` pragmas in the source override the
    scoping context its path implies, as the CLI does on fixture files.
    """
    run = RULES if rules is None else tuple(rules)
    run_codes = {r.code for r in run}
    path = Path(path)
    display = str(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        if "RPR000" not in run_codes:
            return []
        return [
            Finding(
                file=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code="RPR000",
                message=f"syntax error: {exc.msg}",
            )
        ]

    pragmas = _scan_pragmas(source)
    parts = path.parts
    ctx = FileContext(
        path=path,
        display=display,
        source=source,
        tree=tree,
        module=pragmas.module or _module_from_path(parts),
        kind=pragmas.kind or _kind_from_path(parts),
        imports=_ImportMap(tree),
    )

    findings: list[Finding] = []
    for rule in run:
        if rule.meta or not rule.applies(ctx):
            continue
        findings.extend(rule.check(ctx))

    # Apply statement suppressions.
    for finding in findings:
        for sup in pragmas.suppressions:
            if finding.line in sup.covered and finding.code in sup.codes:
                finding.suppressed = True
                finding.suppress_reason = sup.reason or None
                sup.used.add(finding.code)
                break

    # Meta rules: suppression hygiene and unused suppressions.
    if "RPR009" in run_codes:
        for line, col, message in pragmas.problems:
            findings.append(
                Finding(
                    file=display, line=line, col=col, code="RPR009",
                    message=message,
                )
            )
    if "RPR010" in run_codes:
        for sup in pragmas.suppressions:
            for code in sup.codes:
                # Only judge codes whose rules actually ran: a
                # --select'ed subset must not condemn suppressions
                # for the rules it skipped.
                if code in run_codes and code not in sup.used:
                    findings.append(
                        Finding(
                            file=display,
                            line=sup.line,
                            col=sup.col,
                            code="RPR010",
                            message=(
                                f"suppression for {code} matches no "
                                "finding on this line: remove it or "
                                "re-anchor it"
                            ),
                        )
                    )

    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: Path | str,
    *,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one file on disk (:func:`lint_source` on its contents)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path, rules=rules)


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories to the ordered list of files to lint.

    Directories are walked recursively in sorted order, pruning hidden
    directories, ``__pycache__``, and fixture directories (those holding
    a ``.repro-lint-fixtures`` marker).  Explicit file paths are yielded
    unconditionally.
    """
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            yield p
        elif p.is_dir():
            for dirpath, dirnames, filenames in os.walk(p):
                if FIXTURE_MARKER in filenames:
                    dirnames[:] = []
                    continue
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield Path(dirpath) / name
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")


def lint_paths(
    paths: Iterable[Path | str],
    *,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint every file :func:`iter_python_files` yields, sorted by
    (file, line, col, code)."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules=rules))
    findings.sort(key=Finding.sort_key)
    return findings
