"""One bad/good fixture pair per rule code.

Every ``*_bad.py`` fixture must produce *only* its own code among active
findings (suppressed findings may ride along — RPR009's fixture shows a
reasonless suppression, which suppresses the target but flags the
hygiene rule), and every ``*_good.py`` must come back fully clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import all_codes, lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

CASES = {
    "RPR001": ("rpr001_bad.py", "rpr001_good.py"),
    "RPR002": ("rpr002_bad.py", "rpr002_good.py"),
    "RPR003": ("rpr003_bad.py", "rpr003_good.py"),
    "RPR004": ("rpr004_bad.py", "rpr004_good.py"),
    "RPR005": ("rpr005_bad.py", "rpr005_good.py"),
    "RPR006": ("rpr006_bad.py", "rpr006_good.py"),
    "RPR007": ("rpr007_bad.py", "rpr007_good.py"),
    "RPR008": ("bench_rpr008_bad.py", "bench_rpr008_good.py"),
    "RPR009": ("rpr009_bad.py", "rpr009_good.py"),
    "RPR010": ("rpr010_bad.py", "rpr010_good.py"),
    "RPR011": ("rpr011_bad.py", "rpr011_good.py"),
    "RPR012": ("rpr012_bad.py", "rpr012_good.py"),
    "RPR016": ("rpr016_bad.py", "rpr016_good.py"),
}

EXPECTED_BAD_COUNTS = {
    "RPR001": 3,  # seed, uniform, from-import of rand
    "RPR002": 3,  # random.random, os.urandom, argless default_rng
    "RPR003": 1,
    "RPR004": 3,  # dtype=np.float64, dtype=float, astype(float)
    "RPR005": 2,  # import x and from-import
    "RPR006": 2,  # for-loop over set(), list() of set union
    "RPR007": 2,  # aug-assign and subscript assign
    "RPR008": 1,
    "RPR009": 3,  # missing reason, unknown code, malformed pragma
    "RPR010": 1,
    "RPR011": 3,  # time.time, time.perf_counter, datetime.datetime.now
    "RPR012": 2,  # ProcessPoolExecutor(...), shared_memory.SharedMemory(...)
    "RPR016": 3,  # print, json.dump, json.dumps
}


def test_every_rule_code_has_a_fixture_pair():
    assert set(CASES) == set(all_codes()) - {"RPR000"}


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_fixture_triggers_exactly_its_code(code):
    findings = lint_file(FIXTURES / CASES[code][0])
    active = [f for f in findings if not f.suppressed]
    assert {f.code for f in active} == {code}
    assert len(active) == EXPECTED_BAD_COUNTS[code]


@pytest.mark.parametrize("code", sorted(CASES))
def test_good_fixture_is_clean(code):
    findings = lint_file(FIXTURES / CASES[code][1])
    assert [f for f in findings if not f.suppressed] == []


def test_rpr000_syntax_error_inline():
    findings = lint_source("def broken(:\n    pass\n", "broken.py")
    assert [f.code for f in findings] == ["RPR000"]
    assert "syntax error" in findings[0].message


def test_findings_carry_stable_locations():
    findings = lint_file(FIXTURES / "rpr001_bad.py")
    first = [f for f in findings if not f.suppressed][0]
    assert first.file.endswith("rpr001_bad.py")
    assert first.line > 0 and first.col >= 0


def test_rpr003_allows_seeded_fallback_but_not_argless():
    source = (
        "# repro-lint: scope=src\n"
        "import numpy as np\n"
        "def f(rng=None):\n"
        "    rng = rng if rng is not None else np.random.default_rng()\n"
        "    return rng.random()\n"
    )
    codes = {f.code for f in lint_source(source, "f.py")}
    # argless fallback: both the shadowing rule and the entropy rule bite
    assert "RPR003" in codes and "RPR002" in codes


def test_qualify_does_not_flag_lookalike_attribute_chains():
    # rng.random() / self.time.time() must not impersonate modules
    source = (
        "# repro-lint: module=repro.hw.fake\n"
        "def f(rng, obj):\n"
        "    return rng.random() + obj.time.time()\n"
    )
    assert lint_source(source, "f.py") == []


class TestRpr008AnalyticalExemption:
    """Benches over the analytical models alone run unmarked in CI."""

    @staticmethod
    def _codes(imports: str, params: str) -> set[str]:
        args = ", ".join(a for a in ("benchmark", params) if a)
        source = f"{imports}\ndef bench_fig({args}):\n    pass\n"
        return {f.code for f in lint_source(source, "benchmarks/bench_x.py")}

    def test_analytical_bench_needs_no_slow_marker(self):
        imports = "from repro.reports.figures import fig11_rows, fig11_table\n"
        assert "RPR008" not in self._codes(imports, "")

    @pytest.mark.parametrize(
        "imports, params",
        [
            # any fixture beyond `benchmark`
            ("from repro.reports.figures import fig11_rows\n", "system_results"),
            # the training claims are not analytical
            ("from repro.reports.claims import table1_rows\n", ""),
            # any import beyond the analytical modules
            (
                "from repro.reports.figures import fig11_rows\n"
                "from repro.fleet import run_fleet\n",
                "alexnet",
            ),
            ("import repro.reports.figures\n", "alexnet"),
            # no repro import at all is no evidence of an analytical bench
            ("", "alexnet"),
        ],
    )
    def test_anything_else_still_needs_it(self, imports, params):
        assert "RPR008" in self._codes(imports, params)


class TestTopologyScope:
    """The gateway tier is scheduling code: RPR006/RPR011 apply there.

    Historical note (resolved): the PR 6 ISSUE text mislabeled the
    set-iteration rule as "RPR007".  The registry is and was the source
    of truth — RPR006 is ``no-set-iteration`` and RPR007 is
    ``grad-via-accumulate`` — and DESIGN §8 agrees; the identities are
    pinned by ``TestDesignCrossReference`` (every Name/Scope cell must
    equal the registry) and ``test_rpr006_rpr007_identities_are_pinned``
    below, so a relabeling can no longer drift in silently.
    """

    @pytest.mark.parametrize(
        "fixture, code, count",
        [
            ("rpr006_topology_bad.py", "RPR006", 2),
            ("rpr011_topology_bad.py", "RPR011", 2),
        ],
    )
    def test_bad_topology_fixture_flags(self, fixture, code, count):
        findings = lint_file(FIXTURES / fixture)
        active = [f for f in findings if not f.suppressed]
        assert {f.code for f in active} == {code}
        assert len(active) == count

    @pytest.mark.parametrize(
        "fixture",
        ["rpr006_topology_good.py", "rpr011_topology_good.py"],
    )
    def test_good_topology_fixture_is_clean(self, fixture):
        findings = lint_file(FIXTURES / fixture)
        assert [f for f in findings if not f.suppressed] == []

    def test_rpr006_scope_names_topology(self):
        from repro.lint import get_rule

        assert "repro.topology" in get_rule("RPR006").scope


class TestScenarioScope:
    """The scenario engine is scheduling code: RPR006/RPR011 apply there.

    Set iteration is RPR006 (see the historical note on
    ``TestTopologyScope``: the registry and DESIGN §8 agree, and the
    cross-reference tests pin the identities).  RPR011 already spans all
    of ``src/repro`` — its fixtures pin that ``repro.scenario`` modules
    inherit the ban rather than widening it.
    """

    @pytest.mark.parametrize(
        "fixture, code, count",
        [
            ("rpr006_scenario_bad.py", "RPR006", 2),
            ("rpr011_scenario_bad.py", "RPR011", 2),
        ],
    )
    def test_bad_scenario_fixture_flags(self, fixture, code, count):
        findings = lint_file(FIXTURES / fixture)
        active = [f for f in findings if not f.suppressed]
        assert {f.code for f in active} == {code}
        assert len(active) == count

    @pytest.mark.parametrize(
        "fixture",
        ["rpr006_scenario_good.py", "rpr011_scenario_good.py"],
    )
    def test_good_scenario_fixture_is_clean(self, fixture):
        findings = lint_file(FIXTURES / fixture)
        assert [f for f in findings if not f.suppressed] == []

    def test_rpr006_scope_names_scenario(self):
        from repro.lint import get_rule

        assert "repro.scenario" in get_rule("RPR006").scope


class TestDesignCrossReference:
    """DESIGN.md §8's rule table mirrors the live registry exactly.

    Rule codes have been confused before (the RPR006/RPR007 mix-up this
    file documents twice), so the table is held to the registry row by
    row: same code set, and per code the Name and Scope cells must equal
    ``get_rule(code).name`` / ``.scope`` modulo backticks.  Rationale
    cells stay prose — only identity columns are pinned.
    """

    @staticmethod
    def _design_rows():
        design = Path(__file__).parents[2] / "DESIGN.md"
        rows = {}
        for line in design.read_text().splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) >= 3 and cells[0].startswith("RPR"):
                code, name, scope = cells[0], cells[1], cells[2]
                rows[code] = (name.replace("`", ""), scope.replace("`", ""))
        return rows

    def test_table_covers_exactly_the_registry_codes(self):
        assert set(self._design_rows()) == set(all_codes())

    @pytest.mark.parametrize("code", sorted(CASES) + ["RPR000"])
    def test_name_and_scope_cells_match_registry(self, code):
        from repro.lint import get_rule

        name, scope = self._design_rows()[code]
        rule = get_rule(code)
        assert name == rule.name
        assert scope == rule.scope

    def test_rpr006_rpr007_identities_are_pinned(self):
        # The PR 6 mix-up, nailed down: any future attempt to relabel
        # these two rules (in the registry or in DESIGN §8, which the
        # tests above hold cell-by-cell to the registry) fails here
        # with the exact names in the diff.
        from repro.lint import get_rule

        assert get_rule("RPR006").name == "no-set-iteration"
        assert get_rule("RPR007").name == "grad-via-accumulate"
        assert get_rule("RPR006").scope == (
            "repro.fleet, repro.events, repro.topology, and repro.scenario"
        )
        assert get_rule("RPR007").scope == (
            "src/repro/nn, excluding nn.reference"
        )
