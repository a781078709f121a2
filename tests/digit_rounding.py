"""Rounding to significant digits, which criterion 3 states its target in.

No command rounds a value: a report carries the last partial sum as computed,
with the agreed digits as its claim.  So the helper lives with the tests.
pytest does not collect this module (its name does not start with ``test_``);
test modules import it from the tests directory.
"""

from __future__ import annotations

import math


def round_to_digits(x: float, digits: int) -> float:
    """Round x to ``digits`` significant digits (round-half-even).

    The result is the double nearest to the decimal that rounds x's exact
    value correctly to ``digits`` significant digits.  That decimal is rarely
    representable, so the guarantee is

        |result - x| <= 0.5 * 10**(E - digits + 1) + 0.5 * ulp(result),

    with E = floor(log10|x|).  The ulp term matters only at 15 digits and up,
    where the decimal spacing nears the binary one.  Rounding a result again
    returns it unchanged.  A decimal beyond the largest double has no nearest
    double, so x is then returned as it is, which keeps the bound.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if x == 0.0 or not math.isfinite(x):
        return x
    exponent = math.floor(math.log10(abs(x)))
    try:
        return round(x, digits - 1 - exponent)
    except OverflowError:
        return x
