"""CLI behavior: exit codes, JSON schema, selection, rule listing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import all_codes
from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# The stable v1 schema (DESIGN.md "Determinism contract & static
# enforcement"); CI annotators key on exactly these fields.
SCHEMA_FINDING_KEYS = {
    "file",
    "line",
    "col",
    "code",
    "message",
    "suppressed",
    "suppress_reason",
}


def test_list_rules_prints_every_code(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in all_codes():
        assert code in out


def test_bad_fixture_exits_nonzero_with_its_code(capsys):
    rc = main([str(FIXTURES / "rpr001_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RPR001" in out


def test_good_fixture_exits_zero(capsys):
    assert main([str(FIXTURES / "rpr001_good.py")]) == 0


def test_json_schema_is_stable(capsys):
    rc = main([str(FIXTURES / "rpr004_bad.py"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["version"] == 1
    assert set(payload["summary"]) == {"total", "active", "suppressed"}
    assert payload["findings"], "bad fixture must produce findings"
    for entry in payload["findings"]:
        assert set(entry) == SCHEMA_FINDING_KEYS
    assert payload["summary"]["active"] == len(
        [f for f in payload["findings"] if not f["suppressed"]]
    )


def test_select_limits_the_rule_set(capsys):
    # rpr001_bad violates only RPR001; selecting RPR004 finds nothing.
    assert main([str(FIXTURES / "rpr001_bad.py"), "--select", "RPR004"]) == 0
    assert main([str(FIXTURES / "rpr001_bad.py"), "--select", "RPR001"]) == 1
    capsys.readouterr()


def test_ignore_drops_a_rule(capsys):
    rc = main(
        [str(FIXTURES / "rpr001_bad.py"), "--ignore", "RPR001,RPR009,RPR010"]
    )
    capsys.readouterr()
    assert rc == 0


def test_unknown_code_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--select", "RPR999"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "removed", [["--format", "sarif"], ["--since", "HEAD"], ["--cache", "c.json"]]
)
def test_removed_options_are_usage_errors(removed, capsys):
    # The whole-program layer's options are gone, not silently accepted.
    with pytest.raises(SystemExit) as exc:
        main([str(FIXTURES / "rpr001_good.py"), *removed])
    assert exc.value.code == 2


def test_missing_path_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(FIXTURES / "does_not_exist.py")])
    assert exc.value.code == 2


def test_directory_walk_skips_fixture_dirs(capsys):
    # Linting the whole tests/lint tree must skip fixtures/ (marker file)
    # and come back clean on the real test modules.
    assert main([str(Path(__file__).parent)]) == 0


def test_explicit_fixture_file_overrides_the_skip(capsys):
    # ...but naming a fixture file explicitly always lints it.
    assert main([str(FIXTURES / "bench_rpr008_bad.py")]) == 1
    capsys.readouterr()


def test_show_suppressed_includes_reasons(capsys):
    main([str(FIXTURES / "rpr010_good.py"), "--show-suppressed"])
    out = capsys.readouterr().out
    assert "suppressed:" in out and "suppression matching" in out
