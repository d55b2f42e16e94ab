"""Minimal line-anchored YAML-subset loader for scenario files.

The scenario DSL deliberately depends on no third-party YAML parser: the
container image carries only the numeric toolchain, and a full YAML 1.2
implementation is far more grammar than a scenario file needs.  This
module parses the subset the DSL actually uses and — unlike most loaders
— keeps the *source line* of every value, so :mod:`repro.scenario.schema`
can raise errors that point at the offending line of the user's file.

Supported subset:

- block mappings (``key: value`` / ``key:`` followed by an indented block)
- block sequences (``- item``, ``- [1, 2]``, or ``-`` followed by an
  indented block); a ``- key: value`` item is rejected as an ambiguous
  scalar — no scenario field takes a list of mappings
- inline sequences of scalars (``[1, 2, 3]``)
- scalars: ints, floats (incl. scientific notation), ``true``/``false``,
  ``null``/``~``, single/double-quoted strings, bare strings
- ``#`` comments (full-line and trailing)

Anchors, aliases, multi-line strings, flow mappings, and tabs are out of
scope and raise :class:`YamlError`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Node", "YamlError", "parse"]


class YamlError(ValueError):
    """A parse failure, carrying the 1-based source line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Node:
    """One parsed value plus the source line it started on.

    ``value`` is a ``dict[str, Node]`` (mapping), ``list[Node]``
    (sequence), or a plain scalar (``int | float | bool | str | None``).
    """

    value: object
    line: int

    def strip(self) -> object:
        """Recursively drop line anchors, returning plain data."""
        if isinstance(self.value, dict):
            return {k: v.strip() for k, v in self.value.items()}
        if isinstance(self.value, list):
            return [item.strip() for item in self.value]
        return self.value


@dataclass(frozen=True)
class _Line:
    number: int
    indent: int
    content: str


def _strip_comment(raw: str, number: int) -> str:
    """Remove a trailing ``#`` comment, respecting quoted strings."""
    quote = None
    for idx, ch in enumerate(raw):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "#" and (idx == 0 or raw[idx - 1] in " \t"):
            return raw[:idx]
    if quote is not None:
        raise YamlError("unterminated quoted string", number)
    return raw


def _split_lines(text: str) -> list[_Line]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation", number)
        content = _strip_comment(raw, number).rstrip()
        if not content.strip():
            continue
        indent = len(content) - len(content.lstrip(" "))
        lines.append(_Line(number, indent, content.strip()))
    return lines


def _parse_scalar(text: str, number: int) -> object:
    t = text.strip()
    if t in ("null", "~", ""):
        return None
    if t in ("true", "True"):
        return True
    if t in ("false", "False"):
        return False
    if len(t) >= 2 and t[0] == t[-1] and t[0] in ("'", '"'):
        return t[1:-1]
    if t.startswith("["):
        return _parse_inline_list(t, number)
    if t.startswith("{"):
        raise YamlError("flow mappings ({...}) are not supported", number)
    try:
        return int(t, 10)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    if ":" in t and t.split(":", 1)[1].startswith(" "):
        raise YamlError(
            f"ambiguous scalar {t!r}: quote it if a literal string "
            "was intended",
            number,
        )
    return t


def _parse_inline_list(text: str, number: int) -> list[Node]:
    if not text.endswith("]"):
        raise YamlError("unterminated inline list", number)
    body = text[1:-1].strip()
    if "[" in body or "]" in body:
        raise YamlError("nested inline lists are not supported", number)
    if not body:
        return []
    items = []
    for part in body.split(","):
        part = part.strip()
        if not part:
            raise YamlError("empty item in inline list", number)
        items.append(Node(_parse_scalar(part, number), number))
    return items


_KEY_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_-.")


def _split_key(content: str, number: int) -> tuple[str, str]:
    if ":" not in content:
        raise YamlError(f"expected 'key: value', got {content!r}", number)
    key, _, rest = content.partition(":")
    key = key.strip()
    if rest and not rest.startswith(" "):
        raise YamlError(f"missing space after ':' in {content!r}", number)
    if not key or not set(key.lower()) <= _KEY_OK:
        raise YamlError(f"invalid mapping key {key!r}", number)
    return key, rest.strip()


class _Parser:
    def __init__(self, lines: list[_Line]) -> None:
        self.lines = lines
        self.pos = 0

    def peek(self) -> _Line | None:
        if self.pos < len(self.lines):
            return self.lines[self.pos]
        return None

    def parse_block(self, indent: int) -> Node:
        line = self.peek()
        assert line is not None
        if line.content == "-" or line.content.startswith("- "):
            return self.parse_sequence(indent)
        return self.parse_mapping(indent)

    def parse_mapping(self, indent: int) -> Node:
        entries: dict[str, Node] = {}
        first_line = self.lines[self.pos].number
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                break
            if line.indent > indent:
                raise YamlError(
                    f"unexpected indent ({line.indent} > {indent})",
                    line.number,
                )
            if line.content.startswith("- "):
                raise YamlError(
                    "sequence item where a mapping key was expected",
                    line.number,
                )
            key, rest = _split_key(line.content, line.number)
            if key in entries:
                raise YamlError(f"duplicate key {key!r}", line.number)
            self.pos += 1
            if rest:
                entries[key] = Node(_parse_scalar(rest, line.number), line.number)
            else:
                child = self.peek()
                if child is not None and child.indent > indent:
                    entries[key] = self.parse_block(child.indent)
                else:
                    entries[key] = Node(None, line.number)
        return Node(entries, first_line)

    def parse_sequence(self, indent: int) -> Node:
        items: list[Node] = []
        first_line = self.lines[self.pos].number
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                break
            if line.indent > indent:
                raise YamlError(
                    f"unexpected indent ({line.indent} > {indent})",
                    line.number,
                )
            if line.content != "-" and not line.content.startswith("- "):
                break
            rest = line.content[1:].strip()
            if not rest:
                self.pos += 1
                child = self.peek()
                if child is None or child.indent <= indent:
                    items.append(Node(None, line.number))
                else:
                    items.append(self.parse_block(child.indent))
            else:
                self.pos += 1
                items.append(Node(_parse_scalar(rest, line.number), line.number))
        return Node(items, first_line)


def parse(text: str) -> Node:
    """Parse ``text`` into a line-anchored :class:`Node` tree."""
    lines = _split_lines(text)
    if not lines:
        return Node({}, 1)
    parser = _Parser(lines)
    root = parser.parse_block(lines[0].indent)
    leftover = parser.peek()
    if leftover is not None:
        raise YamlError(
            f"unparsed content {leftover.content!r}", leftover.number
        )
    return root
