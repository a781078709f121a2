"""The paper's lemma references, which the tests check the operator-power code against.

Neither runs in a command, so they live with the tests.  pytest does not
collect this module (its name does not start with ``test_``); test modules
import it from the tests directory.
"""

from __future__ import annotations

import math

from blend import GrowthEnvelope


def operator_power_bound(envelope: GrowthEnvelope, n: int, h: float) -> float:
    """Bound on |(J - T_h)^n phi(theta)|: M / sqrt(2*pi*n) * (2*h*b*e)**n."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"order must be an integer >= 1, got {n!r}")
    h = float(h)
    if not math.isfinite(h) or h < 0.0:
        raise ValueError(f"step h must be a non-negative finite real, got {h!r}")
    x = 2.0 * h * envelope.growth * math.e
    return envelope.magnitude / math.sqrt(2.0 * math.pi * n) * x**n


def exp_density_operator_power_closed_form(theta: float, x: float, h: float, n: int) -> float:
    """Closed form of (J - T_h)^n applied to theta * exp(-theta * x).

    Splitting phi(theta + k*h) = theta*e^{-theta x} e^{-k h x} + k h e^{-theta
    x} e^{-k h x} and using the binomial theorem collapses the alternating sum
    to

        theta e^{-theta x} (1 - e^{-h x})^n - n h e^{-(theta+h) x} (1 - e^{-h x})^{n-1}.

    Summing -(1/(h n)) of this over all n >= 1 telescopes to the exact
    derivative (1 - theta x) e^{-theta x}, which is what makes the family a
    useful end-to-end oracle for the operator-power code.
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"x must be a positive finite real, got {x!r}")
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"h must be a positive finite real, got {h!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    q = -math.expm1(-h * x)  # 1 - exp(-h*x), accurate for small h*x
    first = theta * math.exp(-theta * x) * q**n
    second = n * h * math.exp(-(theta + h) * x) * q ** (n - 1)
    return first - second
