"""Serialization contracts: canonical JSON, CSV shape, human rendering."""

from __future__ import annotations

import json
import math
import sys
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blend.output import canonical_json, format_float, render_csv, render_table


def _reference_write(node, out: list[str]) -> None:
    """The writer as it was before its exact-type fast path: isinstance checks and json.dumps."""
    if node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, str):
        out.append(json.dumps(node, ensure_ascii=False))
    elif isinstance(node, int):
        out.append(str(node))
    elif isinstance(node, float):
        out.append(format_float(node))
    elif isinstance(node, Mapping):
        out.append("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _reference_write(value, out)
        out.append("}")
    elif isinstance(node, Sequence):
        out.append("[")
        for i, value in enumerate(node):
            if i:
                out.append(",")
            _reference_write(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def _reference_json(payload) -> str:
    pieces: list[str] = []
    _reference_write(payload, pieces)
    return "".join(pieces)


_TRICKY_CHARACTERS = '"\\/\x00\x08\t\n\x1f\x7f\u00e9\u03b8\u2028\u2029\ufeff\U0001f600'
_TEXT = st.text(st.sampled_from(_TRICKY_CHARACTERS) | st.characters(), max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.min, sys.float_info.max, -sys.float_info.max, 1e308, 1.0 / 3.0]
)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT | _FLOATS.map(np.float64)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT | st.integers(), children, max_size=4)
        | st.dictionaries(_TEXT, children, max_size=4).map(MappingProxyType)
    ),
    max_leaves=24,
)


class TestFormatFloat:
    def test_seventeen_digits_round_trip(self):
        for value in (0.1, 1.0 / 3.0, 1e-300, 6.02e23, -2.5, 160.0):
            assert float(format_float(value)) == value

    def test_negative_zero_normalized(self):
        assert format_float(-0.0) == "0"
        assert format_float(0.0) == "0"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(math.inf)
        with pytest.raises(ValueError):
            format_float(math.nan)


class TestCanonicalJson:
    def test_key_order_preserved(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_nested_structures(self):
        payload = {"x": [1, 2.5, None, True, "s"], "y": {"z": []}}
        text = canonical_json(payload)
        assert json.loads(text) == payload

    def test_parse_reserialize_identity(self):
        payload = {
            "value": 0.999999998963623,
            "rows": [{"N": 1, "delta": 0.1}, {"N": 2, "delta": -0.0}],
            "note": "unicode ok: θ",
        }
        text = canonical_json(payload)
        assert canonical_json(json.loads(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_matches_reference_writer(self, payload):
        assert canonical_json(payload) == _reference_json(payload)

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})


class TestCsv:
    def test_header_and_lf(self):
        text = render_csv([{"a": 1, "b": 0.5}, {"a": 2, "b": None}])
        assert text == "a,b\n1,0.5\n2,\n"

    def test_quoting(self):
        text = render_csv([{"a": 'x,"y"', "b": True}])
        assert text.splitlines()[1] == '"x,""y""",true'

    def test_empty(self):
        assert render_csv([]) == ""


class TestHumanTable:
    def test_scalar_rows_align(self):
        payload = {"rows": [{"N": 1, "delta": 0.5}, {"N": 10, "delta": -2.0}]}
        lines = render_table(payload).splitlines()
        assert lines[0] == "rows:"
        assert lines[1].split() == ["N", "delta"]
        assert lines[2].split() == ["1", "0.5"]

    def test_nested_mappings_render_as_items(self):
        payload = {"tables": [{"table": 1, "rows": [{"N": 1, "v": 2.0}], "notes": ["a" * 70]}]}
        text = render_table(payload)
        assert "- table: 1" in text
        assert "- " + "a" * 70 in text

    def test_fifteen_digit_scalars(self):
        text = render_table({"value": 0.9999999989636164})
        assert "0.999999998963616" in text
