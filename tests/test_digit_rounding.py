"""The tests' significant-digit rounding helper, which criterion 3 relies on."""

from __future__ import annotations

import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from digit_rounding import round_to_digits


class TestRounding:
    def test_round_to_digits(self):
        assert round_to_digits(0.999999998963623, 9) == 0.999999999
        assert round_to_digits(159.9999999999981, 10) == 160.0
        assert round_to_digits(0.99999999951, 9) == 1.0  # carry across the leading digit
        assert round_to_digits(-123.456, 2) == -120.0
        assert round_to_digits(0.0, 5) == 0.0

    def test_decimal_beyond_the_largest_double_keeps_x(self):
        # 1.7976931348623157e308 rounds to 1.7977e308 at 5 digits, past every double.
        top = sys.float_info.max
        assert round_to_digits(top, 5) == top
        assert round_to_digits(-top, 1) == -top

    @given(
        x=st.floats(min_value=1e-200, max_value=1e200),
        sign=st.sampled_from([1.0, -1.0]),
        digits=st.integers(1, 15),
    )
    @example(x=5.966622165309635e199, sign=1.0, digits=15)
    @settings(max_examples=100, deadline=None)
    def test_round_to_digits_properties(self, x, sign, digits):
        # The correctly rounded decimal lies within half a unit in the last
        # kept digit of x; the returned double lies within half an ulp of
        # that decimal.  At 15 digits the second term is not negligible: in
        # the example above the result lies 5.099e184 from x, past the first
        # term's 5e184, and half its ulp is 4.2e183.
        value = sign * x
        rounded = round_to_digits(value, digits)
        exponent = math.floor(math.log10(abs(value)))
        bound = 0.5000001 * 10.0 ** (exponent - digits + 1) + 0.5 * math.ulp(rounded)
        assert abs(rounded - value) <= bound
        assert round_to_digits(rounded, digits) == rounded  # idempotent
