"""Independent references and the checks the benchmark applies to outputs.

Nothing here imports ``blend``: every reference is computed apart from the
program (``math``, ``fractions``, ``mpmath``, ``numpy.linalg``), and every
check is a property the method must have, never a stored copy of an earlier
output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

EPS = 2.0**-52

#: Digits are capped where doubles stop carrying them.
DIGIT_CAP = 15


def significant_digits(value: float, reference: float, scale: float | None = None) -> float:
    """Leading significant digits on which ``value`` agrees with ``reference``.

    Uses the yardstick of the driver's own digit count: L digits agree when
    |value - reference| <= 0.5 * 10**(E - L + 1), E being the decimal exponent
    of the larger magnitude.  The result is that largest L as a real number
    (its floor is the integer count), clamped to [0, 15].  Against a zero
    reference the error is measured on ``scale``, the magnitude of the
    function's values, since no relative error exists there.
    """
    if not math.isfinite(value):
        return 0.0
    if value == reference:
        return float(DIGIT_CAP)
    if reference == 0.0:
        if scale is None or scale <= 0.0:
            raise ValueError("a zero reference needs the scale of the function's values")
        magnitude = scale
    else:
        if value == 0.0 or (value > 0.0) != (reference > 0.0):
            return 0.0
        magnitude = max(abs(value), abs(reference))
    exponent = math.floor(math.log10(magnitude))
    digits = exponent + 1 - math.log10(2.0 * abs(value - reference))
    return min(float(DIGIT_CAP), max(0.0, digits))


def adaptive_failure(stabilized: bool, agreed_digits: int, digits: float) -> str | None:
    """Why a stabilization run failed, or None when it kept its promise.

    A run fails when it does not stabilize, or when its value carries fewer
    correct digits than it claims minus one.
    """
    if not stabilized:
        return "not stabilized"
    if math.floor(digits) < agreed_digits - 1:
        return f"claims {agreed_digits} digits, has {math.floor(digits)}"
    return None


@lru_cache(maxsize=None)
def exact_weights(order_n: int) -> tuple[Fraction, ...]:
    """w_k = (-1)^k * sum_{n=max(k,1)}^{N} C(n,k)/n, straight from the definition."""
    return tuple(
        (-1) ** k * sum(Fraction(math.comb(n, k), n) for n in range(max(k, 1), order_n + 1))
        for k in range(order_n + 1)
    )


def rounding_allowance(order_n: int, h: float, value_errors: Sequence[float], result: float) -> float:
    """Error that rounding alone can put into Delta(N, h).

    ``value_errors[k]`` bounds the error of the computed f(theta + k*h),
    grid-point rounding included; the stencil scales each by |w_k| / h, and
    the final division adds a few ulps of the result.
    """
    weights = exact_weights(order_n)
    spread = math.fsum(abs(float(w)) * e for w, e in zip(weights, value_errors))
    return spread / h + 4.0 * EPS * abs(result)


def lemma2_bound(magnitude: float, growth: float, order_n: int, h: float) -> float:
    """M / (sqrt(2 pi) (N+1)^1.5 h) * x^(N+1) / (1 - x), x = 2 h b e < 1."""
    x = 2.0 * h * growth * math.e
    if x >= 1.0:
        return math.inf
    return magnitude / (math.sqrt(2.0 * math.pi) * (order_n + 1) ** 1.5 * h) * x ** (order_n + 1) / (1.0 - x)


def eq12_bound(magnitude: float, growth: float, order_n: int, h: float) -> float:
    """The circulated form: no 1/h, and 2^((N+1)/2) in place of (N+1)^1.5."""
    x = 2.0 * h * growth * math.e
    if x >= 1.0:
        return math.inf
    return magnitude / (math.sqrt(2.0 * math.pi) * 2.0 ** ((order_n + 1) / 2.0)) * x ** (order_n + 1) / (1.0 - x)


def directional_reference(coeffs: Sequence[float], theta: Sequence[float], direction: Sequence[float]) -> float:
    """sum_i 2 a_i theta_i v_i in exact rational arithmetic, rounded once."""
    return float(sum(2 * Fraction(a) * Fraction(t) * Fraction(v) for a, t, v in zip(coeffs, theta, direction)))


# ---------------------------------------------------------------------------
# Tandem queue: exact sensitivity from the balance equations
# ---------------------------------------------------------------------------


def queue_generator(arrival_rate: float, mu1: float, mu2: float, cap1: int, cap2: int):
    """Generator Q and dQ/dlambda of the tandem queue, states (n1, n2) in lexicographic order.

    Arrivals move (n1, n2) -> (n1+1, n2) while station 1 has room; station-1
    completions move (n1, n2) -> (n1-1, n2+1) while station 2 has room;
    station-2 completions move (n1, n2) -> (n1, n2-1).
    """
    import numpy as np

    size = (cap1 + 1) * (cap2 + 1)
    q = np.zeros((size, size))
    dq = np.zeros((size, size))
    for n1 in range(cap1 + 1):
        for n2 in range(cap2 + 1):
            i = n1 * (cap2 + 1) + n2
            if n1 < cap1:
                j = (n1 + 1) * (cap2 + 1) + n2
                q[i, j] += arrival_rate
                dq[i, j] += 1.0
                dq[i, i] -= 1.0
            if n1 > 0 and n2 < cap2:
                q[i, (n1 - 1) * (cap2 + 1) + n2 + 1] += mu1
            if n2 > 0:
                q[i, i - 1] += mu2
    q[np.arange(size), np.arange(size)] -= q.sum(axis=1)
    return q, dq


def queue_blocking_and_sensitivity(arrival_rate: float, mu1: float, mu2: float, cap1: int, cap2: int):
    """Blocking probability B and the exact dB/dlambda.

    pi Q = 0 with sum(pi) = 1.  Differentiating gives pi' Q = -pi Q' with
    sum(pi') = 0, the same matrix with another right-hand side; B is the mass
    of the states with station 1 full.
    """
    import numpy as np

    q, dq = queue_generator(arrival_rate, mu1, mu2, cap1, cap2)
    size = q.shape[0]
    system = q.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    rhs_d = -(dq.T @ pi)
    rhs_d[-1] = 0.0
    dpi = np.linalg.solve(system, rhs_d)
    full = cap1 * (cap2 + 1)
    return float(pi[full:].sum()), float(dpi[full:].sum())
