"""Module-level imports in ``src/repro`` only point at the same or a lower tier.

Deferred (function-level) imports are the sanctioned inversion seam and are
not looked at; ``repro/__init__.py`` and ``__main__.py`` are exempt dispatchers.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TIERS = (
    "lint obs comm", "nn events", "data models", "hw selfsup transfer",
    "diagnosis", "core", "fleet", "topology", "scenario reports",
)  # lowest first
TIER_OF = {pkg: i for i, group in enumerate(TIERS) for pkg in group.split()}


def _imports(body, importer):
    """(dotted target, line) of every import ``body`` runs at import time."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importer.split(".")[: -node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:  # `from repro import fleet` names a package
                yield f"{module}.{alias.name}", node.lineno
        elif isinstance(node, ast.If) and "TYPE_CHECKING" not in ast.dump(node.test):
            yield from _imports(node.body + node.orelse, importer)
        elif isinstance(node, ast.Try):
            blocks = [node.body, node.orelse, node.finalbody]
            for block in blocks + [h.body for h in node.handlers]:
                yield from _imports(block, importer)


def upward_imports(importer: str, source: str) -> list[str]:
    """``importer``'s (``repro.<pkg>.<mod>``) imports of a higher tier."""
    own = TIER_OF[importer.split(".")[1]]
    return [
        f"{importer}:{line} imports {target}"
        for target, line in _imports(ast.parse(source).body, importer)
        if target.startswith("repro.") and TIER_OF[target.split(".")[1]] > own
    ]


def test_no_module_level_import_points_up_the_tiers():
    found = []
    for path in sorted((SRC / "repro").glob("*/**/*.py")):
        importer = ".".join(path.relative_to(SRC).with_suffix("").parts)
        found += upward_imports(importer, path.read_text(encoding="utf-8"))
    assert found == []


def test_a_synthetic_upward_import_is_reported():
    source = "import numpy\nfrom repro.fleet import run_fleet\n"
    assert upward_imports("repro.nn.fake", source) == [
        "repro.nn.fake:2 imports repro.fleet.run_fleet"
    ]
