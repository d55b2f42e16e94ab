"""The zero-dependency YAML subset: values parse, errors carry lines."""

from __future__ import annotations

import pytest

from repro.scenario.yaml_lite import YamlError, parse


def load(text):
    """Parse ``text`` into plain data (no line anchors)."""
    return parse(text).strip()


class TestParsing:
    def test_nested_mappings_and_scalars(self):
        doc = load(
            "a:\n"
            "  b: 1\n"
            "  c: hello\n"
            "  d: 2.5\n"
            "  e: true\n"
            "  f: null\n"
        )
        assert doc == {
            "a": {"b": 1, "c": "hello", "d": 2.5, "e": True, "f": None}
        }

    def test_block_and_inline_sequences(self):
        doc = load(
            "groups:\n"
            "  - [0, 1]\n"
            "  - [2, 3]\n"
            "stages: [0, 2]\n"
        )
        assert doc == {"groups": [[0, 1], [2, 3]], "stages": [0, 2]}

    def test_comments_and_blank_lines_are_skipped(self):
        doc = load("# header\n\na: 1  # trailing\n\n# footer\n")
        assert doc == {"a": 1}

    def test_quoted_strings_keep_specials(self):
        doc = load('a: "x: y # not a comment"\n')
        assert doc == {"a": "x: y # not a comment"}


class TestLineAnchoredErrors:
    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("a: 1\na: 2\n", 2, "duplicate key"),
            ("a:\n\tb: 1\n", 2, "tabs"),
            ("a: [1, 2\n", 1, "unterminated inline list"),
            ("a: 1\njust words\n", 2, "key: value"),
            ("a: {b: 1}\n", 1, "flow mappings"),
            ("a:\n  - [1]\n  - b: 1\n", 3, "ambiguous scalar"),
        ],
    )
    def test_error_points_at_offending_line(self, text, line, fragment):
        with pytest.raises(YamlError) as exc:
            load(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)
