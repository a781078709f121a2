"""Stabilization-driven derivative estimation.

Strategy: run the partial sums up to a fixed order, measure how many leading
significant digits the last two partial sums share, and accept those digits if
the agreement is strong enough.  If not, shrink the step and try again.  The
digit count L is a heuristic certificate: agreement of the last two partial
sums indicates the geometric error decay has set in, so later orders should
only touch digits beyond L.  It can be fooled (a step of 2*pi makes every
partial sum of sin's stencil exactly zero), which is why reports always carry
the full trace and certified error control lives in ``bounds_planner``.

Also provides the directional adapter: the directional derivative of a
multivariate function along a unit vector v is the scalar derivative at t=0 of
g(t) = phi(theta + t*v), so one scalar run prices a directional derivative at
a cost independent of the dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .oracle import FunctionOracle
from .series_core import ORDER_CAP, PartialSumTrace, blend_partial_sums

_NORM_TOL = 1e-12

#: Each refinement halves the step, so the grid at h/2 takes its even points
#: bit-identically from the grid at h.
H_SHRINK_FACTOR = 0.5

#: Most significant digits a double can be claimed to hold.
PRECISION_CAP = 15


def agreed_significant_digits(a: float, b: float) -> int:
    """Number of leading significant digits on which a and b agree.

    Returns the largest L <= PRECISION_CAP with |a - b| <= 0.5 * 10**(E-L+1),
    where E is the decimal exponent of max(|a|, |b|).  Magnitude-aware
    comparison, not string comparison: decimal expansions are fragile around
    carries (0.9999 and 1.0001 agree to 4 digits here, to none textually).

    Bit-identical inputs return the cap; differing signs, or a zero against a
    nonzero value, return 0.  Two non-finite inputs are an argument error; one
    non-finite input simply fails to agree (returns 0).
    """
    a = float(a)
    b = float(b)
    a_bad = not math.isfinite(a)
    b_bad = not math.isfinite(b)
    if a_bad and b_bad:
        raise ValueError(f"cannot compare two non-finite values: {a!r}, {b!r}")
    if a_bad or b_bad:
        return 0
    if a == b:
        return PRECISION_CAP
    if a == 0.0 or b == 0.0 or (a > 0) != (b > 0):
        return 0
    exponent = math.floor(math.log10(max(abs(a), abs(b))))
    diff = abs(a - b)
    for digits in range(PRECISION_CAP, 0, -1):
        if diff <= 0.5 * 10.0 ** (exponent - digits + 1):
            return digits
    return 0


def round_to_digits(x: float, digits: int) -> float:
    """Round x to ``digits`` significant digits (round-half-even).

    The result is the double nearest to the decimal that rounds x's exact
    value correctly to ``digits`` significant digits.  That decimal is rarely
    representable, so the guarantee is

        |result - x| <= 0.5 * 10**(E - digits + 1) + 0.5 * ulp(result),

    with E = floor(log10|x|).  The ulp term matters only at 15 digits and up,
    where the decimal spacing nears the binary one.  Rounding a result again
    returns it unchanged.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if x == 0.0 or not math.isfinite(x):
        return x
    exponent = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - exponent)


@dataclass(frozen=True)
class BlendConfig:
    """Driver configuration.

    ``n_max`` needs at least 2 partial sums for the stopping rule to have a
    pair to compare.  ``min_agree_digits`` defaults to 2 because one matching
    digit does not separate oscillation from convergence (diverging traces
    routinely share a leading digit); it lies in [1, PRECISION_CAP].  Each
    refinement multiplies the step by the constant H_SHRINK_FACTOR = 0.5, and
    agreement is counted up to PRECISION_CAP = 15 digits.
    """

    h0: float
    n_max: int = 8
    max_h_refinements: int = 8
    min_agree_digits: int = 2

    def __post_init__(self):
        if not (isinstance(self.h0, (int, float)) and math.isfinite(self.h0) and self.h0 > 0):
            raise ValueError(f"h0 must be a positive finite real, got {self.h0!r}")
        object.__setattr__(self, "h0", float(self.h0))
        if not isinstance(self.n_max, int) or isinstance(self.n_max, bool) or not 2 <= self.n_max <= ORDER_CAP:
            raise ValueError(f"n_max must be an integer in [2, {ORDER_CAP}], got {self.n_max!r}")
        if not isinstance(self.max_h_refinements, int) or self.max_h_refinements < 0:
            raise ValueError(f"max_h_refinements must be >= 0, got {self.max_h_refinements!r}")
        if not isinstance(self.min_agree_digits, int) or not 1 <= self.min_agree_digits <= PRECISION_CAP:
            raise ValueError(f"min_agree_digits must be an integer in [1, {PRECISION_CAP}], got {self.min_agree_digits!r}")


@dataclass(frozen=True)
class BlendReport:
    """Outcome of a stabilization run.

    When ``stabilized`` is true, ``value`` is the last partial sum rounded to
    the ``agreed_digits`` the rule certified; otherwise it is the raw last
    partial sum of the final trace, kept for diagnostics.  ``h_used`` equals
    h0 * H_SHRINK_FACTOR**refinements exactly.
    """

    value: float
    agreed_digits: int
    h_used: float
    trace: PartialSumTrace
    refinements: int
    stabilized: bool
    eval_count: int


def run_blend(
    oracle: FunctionOracle,
    theta: float,
    config: BlendConfig,
    *,
    max_workers: int | None = None,
) -> BlendReport:
    """Run partial sums at h0, accepting when the last two stabilize.

    Each attempt performs exactly n_max + 1 fresh oracle evaluations; a run
    with r refinements therefore costs (r+1)*(n_max+1).  Attempt r steps by
    h0 * H_SHRINK_FACTOR**r, with H_SHRINK_FACTOR = 0.5, and agreement counts
    at most PRECISION_CAP = 15 digits.  Values are not reused across
    refinements, although each halved grid repeats half of the previous one
    bit for bit.  Non-finite partial sums count as zero agreement and trigger
    refinement rather than aborting.
    """
    start_count = oracle.eval_count
    for attempt in range(config.max_h_refinements + 1):
        h = config.h0 * H_SHRINK_FACTOR**attempt
        trace = blend_partial_sums(oracle, theta, h, config.n_max, max_workers=max_workers)
        previous, last = trace.deltas[-2], trace.deltas[-1]
        if math.isfinite(previous) and math.isfinite(last):
            digits = agreed_significant_digits(previous, last)
        else:
            digits = 0
        stabilized = digits >= config.min_agree_digits
        if stabilized:
            break
    return BlendReport(
        value=round_to_digits(last, digits) if stabilized else last,
        agreed_digits=digits,
        h_used=h,
        trace=trace,
        refinements=attempt,
        stabilized=stabilized,
        eval_count=oracle.eval_count - start_count,
    )


@dataclass(frozen=True)
class DirectionSpec:
    """A unit direction in parameter space; :meth:`unit` normalizes any vector."""

    direction: tuple[float, ...]

    def __post_init__(self):
        direction = tuple(float(v) for v in self.direction)
        object.__setattr__(self, "direction", direction)
        if not direction:
            raise ValueError("direction must have at least one component")
        if not all(math.isfinite(v) for v in direction):
            raise ValueError(f"direction components must be finite, got {direction!r}")
        norm = math.sqrt(math.fsum(v * v for v in direction))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"direction is not normalized: |v| = {norm!r} (use DirectionSpec.unit)")

    @classmethod
    def unit(cls, vector: Sequence[float]) -> "DirectionSpec":
        """Normalize ``vector`` to Euclidean length 1.

        A finite nonzero vector whose squares underflow or overflow is first
        divided by its largest magnitude; any other vector keeps the plain
        sqrt(fsum(v*v)) norm.
        """
        values = [float(v) for v in vector]
        norm = math.sqrt(math.fsum(v * v for v in values))
        if norm == 0.0 or not math.isfinite(norm):
            scale = max(map(abs, values), default=0.0)
            if scale == 0.0 or not all(map(math.isfinite, values)):
                raise ValueError(f"cannot normalize vector with norm {norm!r}; the norm must be finite and nonzero")
            values = [v / scale for v in values]
            norm = math.sqrt(math.fsum(v * v for v in values))
        return cls(direction=tuple(v / norm for v in values))


def directional_oracle(
    multi_fn: Callable[[tuple[float, ...]], float],
    theta: Sequence[float],
    direction: DirectionSpec,
    *,
    parallel_safe: bool = False,
    name: str | None = None,
) -> FunctionOracle:
    """Scalar restriction g(t) = phi(theta + t*v) of a multivariate function.

    Running the driver on the returned oracle at t = 0 yields the directional
    derivative of phi along v at theta; the step enters the grid as
    theta + k*h*v.  The oracle-evaluation cost of a run is independent of the
    dimension of theta.
    """
    anchor = tuple(float(v) for v in theta)
    vec = direction.direction
    if len(anchor) != len(vec):
        raise ValueError(f"dimension mismatch: theta has {len(anchor)} components, direction {len(vec)}")

    def restricted(t: float) -> float:
        return multi_fn(tuple(a + t * v for a, v in zip(anchor, vec)))

    return FunctionOracle(restricted, parallel_safe=parallel_safe, name=name or "directional")
