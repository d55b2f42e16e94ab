"""Text and JSON reporters for lint findings.

The JSON schema is stable (version 1) and documented in DESIGN.md:

.. code-block:: json

    {
      "version": 1,
      "findings": [
        {"file": "src/repro/x.py", "line": 10, "col": 4,
         "code": "RPR004", "message": "...",
         "suppressed": false, "suppress_reason": null}
      ],
      "summary": {"total": 1, "active": 1, "suppressed": 0}
    }

``findings`` is sorted by (file, line, col, code) and includes suppressed
entries so CI annotators can surface them; exit status is governed by
``summary.active`` alone.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.lint.engine import Finding
from repro.lint.rules import RULES

__all__ = ["render_json", "render_list_rules", "render_text"]

JSON_SCHEMA_VERSION = 1


def render_text(
    findings: Sequence[Finding], *, show_suppressed: bool = False
) -> str:
    """Human-oriented report: one ``path:line:col: CODE message`` per line."""
    lines = []
    active = 0
    suppressed = 0
    for f in findings:
        if f.suppressed:
            suppressed += 1
            if not show_suppressed:
                continue
            reason = f.suppress_reason or "no reason given"
            lines.append(
                f"{f.file}:{f.line}:{f.col + 1}: {f.code} [suppressed: "
                f"{reason}] {f.message}"
            )
        else:
            active += 1
            lines.append(f"{f.file}:{f.line}:{f.col + 1}: {f.code} {f.message}")
    noun = "finding" if active == 1 else "findings"
    lines.append(f"{active} {noun} ({suppressed} suppressed)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [
            {
                "file": f.file,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
                "suppressed": f.suppressed,
                "suppress_reason": f.suppress_reason,
            }
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "active": sum(1 for f in findings if not f.suppressed),
            "suppressed": sum(1 for f in findings if f.suppressed),
        },
    }
    return json.dumps(payload, indent=2)


def render_list_rules() -> str:
    """``--list-rules`` output: code, scope, and summary per registry entry."""
    out = []
    for rule in RULES:
        kind = "meta" if rule.meta else "ast"
        out.append(f"{rule.code}  {rule.name}  [{kind}; scope: {rule.scope}]")
        out.append(f"    {rule.summary}")
        out.append(f"    why: {rule.rationale}")
    return "\n".join(out)
