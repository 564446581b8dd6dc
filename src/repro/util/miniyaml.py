"""A dependency-free YAML subset parser and dumper.

LLMTailor keeps MergeKit's YAML-driven interface (paper §3-4), but this
environment has no PyYAML, so recipes are parsed with this module.  The
supported subset covers everything MergeKit-style recipes need:

* block mappings (``key: value``) nested by indentation,
* block sequences (``- item``), including sequences of mappings and the
  compact ``- key: value`` first-line form,
* flow collections (``[1, 2]``, ``{a: 1, b: 2}``) one level deep inside
  themselves (nesting of flow inside flow is supported recursively),
* scalars: integers, floats (incl. ``1e-4``), booleans (``true/false``),
  ``null``/``~``, single/double-quoted strings, and plain strings,
* ``#`` comments and blank lines.

Not supported (raises :class:`YamlError` where detectable): anchors,
aliases, tags, multi-line block scalars, multi-document streams, and
nesting deeper than :data:`MAX_DEPTH` levels.  The dumper emits
documents this parser round-trips.
"""

from __future__ import annotations

from typing import Any

from .errors import YamlError

__all__ = ["MAX_DEPTH", "loads", "dumps", "load_file", "dump_file"]

# The deepest a document may nest, counted separately for block and flow
# collections.  Recipes and fault plans use a handful of levels; the
# bound refuses a hostile document with a YamlError naming its line
# instead of exhausting the interpreter's recursion limit.
MAX_DEPTH = 64


# --------------------------------------------------------------------------
# Scanner
# --------------------------------------------------------------------------

class _Line:
    __slots__ = ("indent", "content", "number")

    def __init__(self, indent: int, content: str, number: int) -> None:
        self.indent = indent
        self.content = content
        self.number = number

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Line({self.indent}, {self.content!r}, line={self.number})"


def _strip_comment(text: str) -> str:
    """Remove a trailing comment, respecting quoted strings."""
    quote: str | None = None
    escaped = False
    for i, ch in enumerate(text):
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\" and quote == '"':
                escaped = True
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or text[i - 1] in " \t"):
            return text[:i].rstrip()
    return text.rstrip()


def _scan(document: str) -> list[_Line]:
    lines: list[_Line] = []
    for number, raw in enumerate(document.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError(f"line {number}: tabs are not allowed in indentation")
        content = _strip_comment(raw)
        if not content.strip():
            continue
        if content.strip() == "---":
            if lines:
                raise YamlError(f"line {number}: multi-document streams are unsupported")
            continue
        indent = len(content) - len(content.lstrip(" "))
        stripped = content.strip()
        for bad in ("&", "*"):
            if stripped.startswith(bad):
                raise YamlError(f"line {number}: anchors/aliases are unsupported")
        lines.append(_Line(indent, stripped, number))
    return lines


# --------------------------------------------------------------------------
# Scalar parsing
# --------------------------------------------------------------------------

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "on": True, "off": False}
# Note: "none" is deliberately NOT null — recipe values like
# ``cache_mode: none`` must stay strings (matches PyYAML behaviour).
_NULLS = {"null", "~", ""}


def _parse_scalar(token: str, line_no: int, depth: int = 0) -> Any:
    token = token.strip()
    if token.startswith(("'", '"')):
        if len(token) < 2 or token[-1] != token[0]:
            raise YamlError(f"line {line_no}: unterminated quoted string: {token!r}")
        body = token[1:-1]
        if token[0] == '"':
            body = (
                body.replace("\\\\", "\x00")
                .replace('\\"', '"')
                .replace("\\n", "\n")
                .replace("\\t", "\t")
                .replace("\x00", "\\")
            )
        return body
    if token.startswith("[") or token.startswith("{"):
        return _parse_flow(token, line_no, depth + 1)
    low = token.lower()
    if low in _NULLS:
        return None
    if low in _BOOLS:
        return _BOOLS[low]
    try:
        if low.startswith("0x"):
            return int(token, 16)
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_flow_items(body: str, line_no: int) -> list[str]:
    items: list[str] = []
    depth = 0
    quote: str | None = None
    escaped = False
    current = ""
    for ch in body:
        if quote is not None:
            current += ch
            if escaped:
                escaped = False
            elif ch == "\\" and quote == '"':
                escaped = True
            elif ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
            current += ch
        elif ch in "[{":
            depth += 1
            current += ch
        elif ch in "]}":
            depth -= 1
            current += ch
        elif ch == "," and depth == 0:
            items.append(current.strip())
            current = ""
        else:
            current += ch
    if quote is not None or depth != 0:
        raise YamlError(f"line {line_no}: unbalanced flow collection")
    if current.strip():
        items.append(current.strip())
    return items


def _parse_flow(token: str, line_no: int, depth: int) -> Any:
    if depth > MAX_DEPTH:
        raise YamlError(
            f"line {line_no}: flow collections nested deeper than {MAX_DEPTH} levels"
        )
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise YamlError(f"line {line_no}: unterminated flow sequence: {token!r}")
        body = token[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(item, line_no, depth) for item in _split_flow_items(body, line_no)]
    if token.startswith("{"):
        if not token.endswith("}"):
            raise YamlError(f"line {line_no}: unterminated flow mapping: {token!r}")
        body = token[1:-1].strip()
        out: dict[str, Any] = {}
        if not body:
            return out
        for item in _split_flow_items(body, line_no):
            key, sep, value = item.partition(":")
            if not sep:
                raise YamlError(f"line {line_no}: flow mapping entry missing ':': {item!r}")
            out[str(_parse_scalar(key, line_no, depth))] = _parse_scalar(value, line_no, depth)
        return out
    raise YamlError(f"line {line_no}: not a flow collection: {token!r}")


def _split_key(content: str, line_no: int) -> tuple[str, str] | None:
    """Split ``key: rest`` respecting quotes; None if no mapping key."""
    quote: str | None = None
    escaped = False
    depth = 0
    for i, ch in enumerate(content):
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\" and quote == '"':
                escaped = True
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == ":" and depth == 0:
            if i + 1 == len(content) or content[i + 1] in " \t":
                return content[:i].strip(), content[i + 1 :].strip()
    return None


# --------------------------------------------------------------------------
# Block parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, lines: list[_Line]) -> None:
        self.lines = lines
        self.pos = 0
        self.depth = 0

    def nested(self, parse, indent: int) -> Any:
        """``parse(indent)`` one block level down, refused past MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise YamlError(
                f"line {self.peek().number}: block collections nested deeper "
                f"than {MAX_DEPTH} levels"
            )
        self.depth += 1
        value = parse(indent)  # a raise abandons the whole parse
        self.depth -= 1
        return value

    def peek(self) -> _Line | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def parse_node(self, indent: int) -> Any:
        line = self.peek()
        if line is None:
            return None
        if line.content.startswith("- ") or line.content == "-":
            return self.nested(self.parse_sequence, line.indent)
        return self.nested(self.parse_mapping, line.indent)

    def parse_mapping(self, indent: int) -> dict[str, Any]:
        out: dict[str, Any] = {}
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                return out
            if line.indent > indent:
                raise YamlError(f"line {line.number}: unexpected indent")
            if line.content.startswith("- ") or line.content == "-":
                raise YamlError(f"line {line.number}: sequence item inside mapping")
            split = _split_key(line.content, line.number)
            if split is None:
                raise YamlError(f"line {line.number}: expected 'key: value', got {line.content!r}")
            key, rest = split
            key = str(_parse_scalar(key, line.number))
            if key in out:
                raise YamlError(f"line {line.number}: duplicate key {key!r}")
            self.pos += 1
            if rest:
                out[key] = _parse_scalar(rest, line.number)
            else:
                nxt = self.peek()
                if nxt is not None and nxt.indent > indent:
                    out[key] = self.parse_node(nxt.indent)
                else:
                    out[key] = None

    def parse_sequence(self, indent: int) -> list[Any]:
        out: list[Any] = []
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                return out
            if line.indent > indent:
                raise YamlError(f"line {line.number}: unexpected indent in sequence")
            if not (line.content.startswith("- ") or line.content == "-"):
                return out
            rest = line.content[1:].strip()
            item_indent = line.indent + 2
            if not rest:
                self.pos += 1
                nxt = self.peek()
                if nxt is not None and nxt.indent >= item_indent:
                    out.append(self.parse_node(nxt.indent))
                else:
                    out.append(None)
                continue
            if rest.startswith("- ") or rest == "-":
                # Nested sequence in compact form ("- - item"): rewrite the
                # line at the item indent and recurse.
                self.lines[self.pos] = _Line(item_indent, rest, line.number)
                out.append(self.nested(self.parse_sequence, item_indent))
                continue
            split = _split_key(rest, line.number)
            if split is not None:
                # Compact "- key: value" form: rewrite the first line as a
                # mapping entry at the item indent and parse the mapping.
                self.lines[self.pos] = _Line(item_indent, rest, line.number)
                out.append(self.nested(self.parse_mapping, item_indent))
            else:
                self.pos += 1
                out.append(_parse_scalar(rest, line.number))


def loads(document: str) -> Any:
    """Parse a YAML-subset document into Python objects."""
    lines = _scan(document)
    if not lines:
        return None
    parser = _Parser(lines)
    result = parser.parse_node(lines[0].indent)
    leftover = parser.peek()
    if leftover is not None:
        raise YamlError(f"line {leftover.number}: trailing content {leftover.content!r}")
    return result


def load_file(path) -> Any:
    """Parse the YAML-subset file at ``path`` (see :func:`loads`)."""
    from pathlib import Path

    return loads(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Dumper
# --------------------------------------------------------------------------

_PLAIN_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-./")


def _dump_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    needs_quote = (
        not text
        or not all(c in _PLAIN_SAFE for c in text)
        or text.startswith("-")  # would parse as a sequence item
        or text.lower() in _BOOLS
        or text.lower() in _NULLS
        or _looks_numeric(text)
    )
    if needs_quote:
        escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    return text


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _dump_node(value: Any, indent: int, lines: list[str]) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}{{}}")
            return
        for key, val in value.items():
            key_text = _dump_scalar(key)
            if isinstance(val, dict) and val:
                lines.append(f"{pad}{key_text}:")
                _dump_node(val, indent + 2, lines)
            elif isinstance(val, list) and val:
                lines.append(f"{pad}{key_text}:")
                _dump_node(val, indent + 2, lines)
            elif isinstance(val, (dict, list)):
                lines.append(f"{pad}{key_text}: {'{}' if isinstance(val, dict) else '[]'}")
            else:
                lines.append(f"{pad}{key_text}: {_dump_scalar(val)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, dict) and item:
                sub: list[str] = []
                _dump_node(item, 0, sub)
                lines.append(f"{pad}- {sub[0]}")
                lines.extend(f"{pad}  {s}" for s in sub[1:])
            elif isinstance(item, list) and item:
                sub = []
                _dump_node(item, 0, sub)
                lines.append(f"{pad}- {sub[0].strip()}" if sub else f"{pad}-")
                lines.extend(f"{pad}  {s}" for s in sub[1:])
            elif isinstance(item, (dict, list)):
                lines.append(f"{pad}- {'{}' if isinstance(item, dict) else '[]'}")
            else:
                lines.append(f"{pad}- {_dump_scalar(item)}")
    else:
        lines.append(f"{pad}{_dump_scalar(value)}")


def dumps(value: Any) -> str:
    """Serialize Python objects into the YAML subset (round-trips loads)."""
    lines: list[str] = []
    _dump_node(value, 0, lines)
    return "\n".join(lines) + "\n"


def dump_file(path, value: Any) -> None:
    """Serialize ``value`` as YAML into ``path`` (see :func:`dumps`)."""
    from pathlib import Path

    Path(path).write_text(dumps(value), encoding="utf-8")
