"""Suppression-comment round trips and hygiene semantics."""

from __future__ import annotations

import json

from repro.lint import lint_source, render_json, select_rules

BAD = "import numpy as np\nnp.random.seed(1)\n"
SUPPRESSED = (
    "import numpy as np\n"
    "np.random.seed(1)  # repro-lint: ignore[RPR001] exercising the legacy "
    "API on purpose\n"
)


def test_round_trip_suppression_neutralizes_the_finding():
    before = lint_source(BAD, "x.py")
    assert [f.code for f in before if not f.suppressed] == ["RPR001"]

    after = lint_source(SUPPRESSED, "x.py")
    assert [f for f in after if not f.suppressed] == []
    (finding,) = [f for f in after if f.suppressed]
    assert finding.code == "RPR001"
    assert finding.suppress_reason == "exercising the legacy API on purpose"


def test_suppressed_finding_survives_into_json():
    payload = json.loads(render_json(lint_source(SUPPRESSED, "x.py")))
    (entry,) = payload["findings"]
    assert entry["suppressed"] is True
    assert entry["suppress_reason"] == "exercising the legacy API on purpose"
    assert payload["summary"] == {"total": 1, "active": 0, "suppressed": 1}


def test_missing_reason_still_suppresses_but_flags_rpr009():
    source = "import numpy as np\nnp.random.seed(1)  # repro-lint: ignore[RPR001]\n"
    findings = lint_source(source, "x.py")
    assert [f.code for f in findings if not f.suppressed] == ["RPR009"]
    assert [f.code for f in findings if f.suppressed] == ["RPR001"]


def test_unused_suppression_flags_rpr010():
    source = (
        "# repro-lint: module=repro.models.fake\n"
        "x = 1  # repro-lint: ignore[RPR004] nothing here widens dtypes\n"
    )
    findings = lint_source(source, "x.py")
    assert [f.code for f in findings] == ["RPR010"]


def test_one_comment_may_suppress_multiple_codes():
    source = (
        "# repro-lint: module=repro.models.fake\n"
        "import numpy as np\n"
        "acc = np.zeros(3, dtype=np.float64).astype(float)"
        "  # repro-lint: ignore[RPR004] annotated f64 accumulator\n"
    )
    findings = lint_source(source, "x.py")
    assert [f for f in findings if not f.suppressed] == []
    assert {f.code for f in findings if f.suppressed} == {"RPR004"}


def test_rpr010_is_judged_only_against_rules_that_ran():
    # A suppression for a deselected rule must not be condemned as unused.
    source = "x = 1  # repro-lint: ignore[RPR004] kept for a rule not run here\n"
    rules = select_rules(select=("RPR001", "RPR010"))
    assert lint_source(source, "x.py", rules=rules) == []


def test_suppression_only_applies_to_its_own_line():
    source = (
        "import numpy as np\n"
        "np.random.seed(1)  # repro-lint: ignore[RPR001] first call only\n"
        "np.random.seed(2)\n"
    )
    findings = lint_source(source, "x.py")
    active = [f for f in findings if not f.suppressed]
    assert [(f.code, f.line) for f in active] == [("RPR001", 3)]


class TestMultiLineStatements:
    """A suppression covers every physical line of its logical statement.

    Pragmas land wherever the statement has room — the closing paren of
    a wrapped call, the ``):`` of a multi-line signature — while the
    finding anchors on the AST node's first line.  Span matching joins
    the two; standalone comment lines and decorator lines stay separate
    statements on purpose.
    """

    def test_pragma_on_closing_paren_covers_the_whole_call(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(\n"
            "    1\n"
            ")  # repro-lint: ignore[RPR001] spanning the full statement\n"
        )
        findings = lint_source(source, "x.py")
        assert [f for f in findings if not f.suppressed] == []
        assert [f.code for f in findings if f.suppressed] == ["RPR001"]

    def test_pragma_inside_chained_call_split_across_lines(self):
        source = (
            "import numpy as np\n"
            "value = (\n"
            "    np.random\n"
            "    .seed(3)  # repro-lint: ignore[RPR001] chained call\n"
            ")\n"
        )
        findings = lint_source(source, "x.py")
        assert [f for f in findings if not f.suppressed] == []
        assert [f.code for f in findings if f.suppressed] == ["RPR001"]

    def test_pragma_on_signature_close_covers_multiline_def(self):
        source = (
            "def bench_run(\n"
            "    n,\n"
            "):  # repro-lint: ignore[RPR008] script-path bench, not pytest\n"
            "    return n\n"
        )
        findings = lint_source(source, "benchmarks/bench_x.py")
        assert [f for f in findings if not f.suppressed] == []
        assert [f.code for f in findings if f.suppressed] == ["RPR008"]

    def test_decorator_line_is_its_own_statement(self):
        # A pragma on a decorator must not leak onto the def below: the
        # finding stays active and the suppression is condemned unused.
        source = (
            "import pytest\n"
            "@pytest.mark.parametrize('n', [1])"
            "  # repro-lint: ignore[RPR008] wrong line\n"
            "def bench_run(n):\n"
            "    return n\n"
        )
        findings = lint_source(source, "benchmarks/bench_x.py")
        active = {f.code for f in findings if not f.suppressed}
        assert active == {"RPR008", "RPR010"}

    def test_standalone_comment_pragma_covers_only_its_own_line(self):
        source = (
            "import numpy as np\n"
            "# repro-lint: ignore[RPR001] standalone comments do not attach\n"
            "np.random.seed(1)\n"
        )
        findings = lint_source(source, "x.py")
        active = {f.code for f in findings if not f.suppressed}
        assert active == {"RPR001", "RPR010"}
