"""Deterministic serialization for CLI records.

JSON uses a canonical writer: keys in construction order, floats at 17
significant digits (round-trip safe for doubles), no whitespace variation, LF
line endings.  Parsing the emitted JSON and re-serializing it reproduces the
bytes, which the golden tests rely on.  Strings are escaped as
``json.dumps(..., ensure_ascii=False)`` escapes them, by the same
``json.encoder.encode_basestring``.  The writer dispatches first on the exact
types the CLI builds (``str``, ``float``, ``dict``, ``list``, ``tuple``,
``int``); any other value (``None``, a bool, a subclass such as
``numpy.float64``, a non-dict Mapping) takes the generic isinstance branches
and comes out as it would on its own.  Human tables print 15 significant
digits; CSV uses the 17-digit form.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring
from typing import Iterable, Mapping, Sequence


def format_float(value: float, digits: int = 17) -> str:
    """Fixed significant-digit decimal form of a float.

    Negative zero is normalized to "0" so that parse/re-serialize round trips
    are byte-identical (JSON parsers read "-0" back as the integer zero).
    """
    if not math.isfinite(value):
        raise ValueError(f"cannot format non-finite value {value!r}")
    if value == 0.0:
        return "0"
    return format(value, f".{digits}g")


def canonical_json(payload) -> str:
    """Serialize to canonical JSON text (no trailing newline)."""
    pieces: list[str] = []
    _write(payload, pieces)
    return "".join(pieces)


def _write(node, out: list[str]) -> None:
    kind = type(node)
    if kind is str:
        out.append(encode_basestring(node))
    elif kind is float:
        out.append(format_float(node))
    elif kind is dict:
        _write_mapping(node, out)
    elif kind is list or kind is tuple:
        _write_sequence(node, out)
    elif kind is int:
        out.append(str(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, str):
        out.append(encode_basestring(node))
    elif isinstance(node, int):
        out.append(str(node))
    elif isinstance(node, float):
        out.append(format_float(node))
    elif isinstance(node, Mapping):
        _write_mapping(node, out)
    elif isinstance(node, Sequence):
        _write_sequence(node, out)
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def _write_mapping(node: Mapping, out: list[str]) -> None:
    out.append("{")
    for i, (key, value) in enumerate(node.items()):
        if i:
            out.append(",")
        out.append(encode_basestring(str(key)) + ":")
        _write(value, out)
    out.append("}")


def _write_sequence(node: Sequence, out: list[str]) -> None:
    out.append("[")
    for i, value in enumerate(node):
        if i:
            out.append(",")
        _write(value, out)
    out.append("]")


def render_csv(rows: Iterable[Mapping]) -> str:
    """CSV with a header row, comma separators, '.' decimals, LF endings."""
    rows = list(rows)
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[column]) for column in header))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_table(payload: Mapping) -> str:
    """Human-readable rendering of a CLI record (15 significant digits)."""
    lines: list[str] = []
    _render_section(payload, lines, indent="")
    return "\n".join(lines) + "\n"


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (str, bool, int, float))


def _render_section(node: Mapping, lines: list[str], indent: str) -> None:
    for key, value in node.items():
        if isinstance(value, Mapping):
            lines.append(f"{indent}{key}:")
            _render_section(value, lines, indent + "  ")
        elif isinstance(value, Sequence) and not isinstance(value, str):
            items = list(value)
            if not items:
                lines.append(f"{indent}{key}: []")
            elif all(isinstance(item, Mapping) for item in items):
                lines.append(f"{indent}{key}:")
                if all(_is_scalar(v) for item in items for v in item.values()):
                    _render_rows(items, lines, indent + "  ")
                else:
                    for item in items:
                        _render_list_item(item, lines, indent + "  ")
            elif all(_is_scalar(item) for item in items) and sum(len(_human(i)) for i in items) <= 60:
                lines.append(f"{indent}{key}: {_human_scalar_list(items)}")
            else:
                lines.append(f"{indent}{key}:")
                for item in items:
                    lines.append(f"{indent}  - {_human(item)}")
        else:
            lines.append(f"{indent}{key}: {_human(value)}")


def _render_list_item(item: Mapping, lines: list[str], indent: str) -> None:
    sub: list[str] = []
    _render_section(item, sub, indent + "  ")
    if sub:
        lines.append(indent + "- " + sub[0][len(indent) + 2 :])
        lines.extend(sub[1:])


def _render_rows(rows: list[Mapping], lines: list[str], indent: str) -> None:
    header = list(rows[0].keys())
    table = [[_human(row.get(column)) for column in header] for row in rows]
    widths = [max(len(header[i]), *(len(row[i]) for row in table)) for i in range(len(header))]
    lines.append(indent + "  ".join(header[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    for row in table:
        lines.append(indent + "  ".join(row[i].ljust(widths[i]) for i in range(len(header))).rstrip())


def _human_scalar_list(values) -> str:
    return "[" + ", ".join(_human(v) for v in values) + "]"


def _human(value) -> str:
    if value is None:
        return "-"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value, 15)
    return str(value)
