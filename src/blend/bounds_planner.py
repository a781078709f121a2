"""Truncation-error bounds and step-size planning.

Everything here is driven by a growth envelope (M, b) on the derivatives of
the target function: sup |phi^(n)| <= M * b**n on the stencil interval for
the orders in play.  Under that condition the operator powers obey

    |(J - T_h)^n phi(theta)| <= M / sqrt(2*pi*n) * (2*h*b*e)**n,

and since the order-N truncation remainder is (1/h) * sum_{n>N} |T_n| / n,
summing the geometric majorant gives, for h < 1/(2*b*e),

    R(N, h) <= M / (sqrt(2*pi) * (N+1)**1.5 * h) * (2*h*b*e)**(N+1) / (1 - 2*h*b*e).

That is the "lemma2" formula and the default.  A second form circulates in
which the remainder display is printed without the leading 1/h and with
2**((N+1)/2) in place of (N+1)**1.5; it is not a consequence of the
operator-power bound, but it is the form the classical worked step-size
example solves, so it is kept available as "eq12".  Empirical domination
tests (sin with M=b=1 at N=2, h=0.001 has true remainder h^2/3 ~ 3.3e-7
versus a printed-form value of 1.2e-8) confirm only the 1/h-corrected form
actually bounds the truncation error.  The CLI's ``plan`` record, not the
:class:`StepPlan`, carries which formula was used.  Outside the open domain
h < 1/(2*b*e) the geometric series diverges and the bound is ``math.inf``
rather than an error, so sweep tooling can probe the boundary; inside it the
bound is never NaN.

The envelope is a user input.  There is no automated estimation of (M, b)
from samples: pretending to infer it would manufacture a false sense of
certification, and the stabilization heuristic in the driver covers the
unknown-envelope case.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .series_core import _check_step, _integer, _real

BOUND_FORMULAS = ("lemma2", "eq12")

#: Fallback shrink applied to the domain edge when a step-size target is
#: looser than the bound anywhere inside the valid domain.
DOMAIN_EDGE_SAFETY = 0.99

_BISECTION_MAX_ITER = 200
_RESIDUAL_RTOL = 1e-3
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GrowthEnvelope:
    """Constants (M, b) bounding derivative growth: sup|phi^(n)| <= M * b**n.

    ``magnitude`` is M (value units); ``growth`` is b (1/parameter units).
    A growth for which 2*b*e overflows is rejected, as its step domain
    1/(2*b*e) would be empty, and so is one for which 1/(2*b*e) overflows,
    as its domain would have no finite edge.
    """

    magnitude: float
    growth: float

    def __post_init__(self):
        for field in ("magnitude", "growth"):
            object.__setattr__(self, field, _real(getattr(self, field), f"envelope {field}"))
        if math.isinf(2.0 * self.growth * math.e):
            raise ValueError(f"envelope growth {self.growth!r} is too large: 2*b*e overflows, so the step domain 1/(2*b*e) is empty")
        if math.isinf(h_domain(self)):
            raise ValueError(f"envelope growth {self.growth!r} is too small: 1/(2*b*e) overflows, so the step domain has no finite edge")


def _check_formula(formula: str) -> str:
    if formula not in BOUND_FORMULAS:
        raise ValueError(f"formula must be one of {BOUND_FORMULAS}, got {formula!r}")
    return formula


def h_domain(envelope: GrowthEnvelope) -> float:
    """Upper limit of the open step-size domain, 1 / (2 * b * e)."""
    return 1.0 / (2.0 * envelope.growth * math.e)


def remainder_bound(envelope: GrowthEnvelope, n: int, h: float, formula: str = "lemma2") -> float:
    """Bound on |phi'(theta) - Delta(n, h) phi(theta)| under the envelope.

    "lemma2" is the provable bound (it carries the remainder's 1/h
    prefactor); "eq12" is the circulated display without it, kept for
    reproducing the classical worked example.  Returns ``math.inf`` outside
    the open domain h < 1/(2*b*e).  See the module docstring.
    """
    _integer(n, "order", 1)
    h = _check_step(h)
    return _remainder_bound(envelope, n, h, _check_formula(formula))


def _remainder_bound(envelope: GrowthEnvelope, n: int, h: float, formula: str) -> float:
    # remainder_bound on checked arguments: an int n >= 1, a positive finite
    # float h and a known formula.
    x = 2.0 * h * envelope.growth * math.e
    if x >= 1.0:
        return math.inf
    if formula == "lemma2":
        denom = (n + 1) ** 1.5 * h
    else:
        denom = 2.0 ** ((n + 1) / 2.0)
    bound = envelope.magnitude / (math.sqrt(2.0 * math.pi) * denom) * x ** (n + 1) / (1.0 - x)
    if math.isfinite(bound):
        return bound
    # M/h overflowed while x**(n+1) underflowed (inf * 0 = NaN), or a partial
    # product overflowed: the same formula in logarithms, with log(x) taken
    # from its factors because x itself may have underflowed.
    log_denom = 1.5 * math.log(n + 1) + math.log(h) if formula == "lemma2" else (n + 1) / 2.0 * math.log(2.0)
    log_x = math.log(2.0 * math.e) + math.log(h) + math.log(envelope.growth)
    log_bound = math.log(envelope.magnitude) - 0.5 * math.log(2.0 * math.pi) - log_denom + (n + 1) * log_x - math.log1p(-x)
    return math.exp(log_bound) if log_bound < _LOG_MAX else math.inf


@dataclass(frozen=True)
class StepPlan:
    """Result of the digit-exact step solve.

    ``clipped`` flags the fallback case: the accuracy target was looser than
    the bound everywhere inside the domain, so ``h`` is the domain edge shrunk
    by :data:`DOMAIN_EDGE_SAFETY` instead of a root.
    """

    h: float
    bound: float
    target: float
    clipped: bool


def solve_k_exact_h(
    envelope: GrowthEnvelope, n: int, k_digits: int, formula: str = "lemma2"
) -> StepPlan:
    """Solve bound(n, h) = 10**-(k_digits+1) for h inside the valid domain.

    The returned step makes the order-n approximation exact in at least the
    first ``k_digits`` digits under the envelope.  The target must be a
    normal double, so ``k_digits`` is at most 306.  The bound is smooth and
    strictly increasing in h on (0, 1/(2*b*e)), so plain bracketed bisection
    suffices; the root satisfies |bound(h*) - target| <= 1e-3 * target.

    ``k_digits`` and ``formula`` are checked first, then ``n``, by the one
    :func:`remainder_bound` call at the domain edge; every other step of the
    solve is a positive finite float below that edge, so the bisection
    evaluates the bound on the checked arguments without checking them again.
    """
    _integer(k_digits, "k_digits", 1)
    _check_formula(formula)
    target = 10.0 ** (-(k_digits + 1))
    if target < sys.float_info.min:
        raise ValueError(f"k_digits={k_digits} puts the target 10**-{k_digits + 1} below the normal doubles")

    # Each step evaluates the bound at one new point; the bound at ``best``
    # travels with it instead of being evaluated again.
    hi = DOMAIN_EDGE_SAFETY * h_domain(envelope)
    hi_bound = remainder_bound(envelope, n, hi, formula)
    if hi_bound < target:
        # Even near the domain edge the truncation is tighter than asked for.
        return StepPlan(h=hi, bound=hi_bound, target=target, clipped=True)
    lo = hi * 1e-12
    lo_bound = _remainder_bound(envelope, n, lo, formula)
    while lo_bound > target:
        lo *= 0.5
        if lo < 5e-324:
            raise ArithmeticError("failed to bracket the step-size root")
        lo_bound = _remainder_bound(envelope, n, lo, formula)
    best, best_bound = lo, lo_bound
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = _remainder_bound(envelope, n, mid, formula)
        if value <= target:
            lo, best, best_bound = mid, mid, value
        else:
            hi = mid
        if abs(best_bound - target) <= _RESIDUAL_RTOL * target:
            break
    return StepPlan(h=best, bound=best_bound, target=target, clipped=False)
