"""Stabilization-driven derivative estimation.

Strategy: run the partial sums up to a fixed order, measure how many leading
significant digits the last two partial sums share, and accept the run if the
agreement is strong enough.  If not, shrink the step and try again, unless
the two partial sums already differ by no more than twice their rounding
floor (Stepleman & Winarsky, 1979): the error that rounding of the grid
values and of the points theta + k*h puts into Delta(N), whose formula is
given at ``series_core._rounding_floor``.  A smaller step only raises that
floor, so such a run ends not stabilized, as an exhausted refinement budget
does.  So a run whose derivative is zero, which never agrees in relative
digits, and a run whose ``min_agree_digits`` rounding leaves out of reach
end at the first attempt that meets the floor, not after the whole budget.
The report carries the last partial sum unrounded, with the shared digit
count as its claim; digits past the claim are kept, since more terms of the
series make more of them right.  The digit count L is a heuristic certificate:
agreement of the last two partial sums indicates the geometric error decay
has set in, so later orders should only touch digits beyond L.  It can be
fooled: at a step of 2*pi the grid values of sin at 0 are rounding residues
that grow linearly in k, so every partial sum is about -3.9e-17 and they
agree to 15 digits.  That is why reports always carry the full trace and
certified error control lives in ``bounds_planner``.

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
from .series_core import (
    ORDER_CAP,
    PartialSumTrace,
    _grid_points,
    _integer,
    _real,
    _rounding_floor,
    blend_partial_sums,
)

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
        object.__setattr__(self, "h0", _real(self.h0, "h0"))
        _integer(self.n_max, "n_max", 2, ORDER_CAP)
        _integer(self.max_h_refinements, "max_h_refinements", 0)
        _integer(self.min_agree_digits, "min_agree_digits", 1, PRECISION_CAP)


@dataclass(frozen=True)
class BlendReport:
    """Outcome of a stabilization run.

    ``value`` is the last partial sum of the final trace, unrounded, whether
    or not the run stabilized.  When it did, ``agreed_digits`` is the claim
    the rule makes for it: that many leading significant digits are settled.
    The final step is ``trace.h``, which equals
    h0 * H_SHRINK_FACTOR**refinements exactly.  ``value`` is the sum the run
    compared, kept on the trace, so reading it sums nothing; ``trace.deltas``,
    the table of all orders, sums the orders below that pair on its first
    read, one row sum each.
    """

    agreed_digits: int
    trace: PartialSumTrace
    refinements: int
    stabilized: bool
    eval_count: int

    @property
    def value(self) -> float:
        """Delta(n_max, trace.h), the last partial sum the run computed."""
        return self.trace._delta(len(self.trace.cached_values) - 1)


def run_blend(
    oracle: FunctionOracle,
    theta: float,
    config: BlendConfig,
    *,
    max_workers: int | None = None,
) -> BlendReport:
    """Run partial sums at h0, accepting when the last two stabilize.

    The report's ``value`` is the last partial sum of the final attempt as
    computed, and ``agreed_digits`` the number of leading digits it shares
    with the one before.  An attempt reads only those two orders of its
    trace, which sums each on its first read, and the rounding floor, when
    it needs it: no attempt sums the table of all orders.  The final trace
    sums the orders below the pair, one row sum each, when its ``deltas`` is
    read.
    Every attempt takes the worker budget ``max_workers``; None, the
    default, means serial grids, as 0 does, and no environment variable is
    read.

    Each attempt performs exactly n_max + 1 fresh oracle evaluations, except
    that an attempt whose top grid point theta + n_max*h overflows to +inf is
    skipped, unless it is the last one the budget and the step allow: it
    spends no evaluation and counts as a refinement, so a run at the edge of
    the float range goes on to its first finite grid, and every report still
    carries a trace.  A run with r refinements, s of them skipped, therefore
    costs (r + 1 - s)*(n_max + 1).  Attempt r steps by
    h0 * H_SHRINK_FACTOR**r, with H_SHRINK_FACTOR = 0.5, and agreement counts
    at most PRECISION_CAP = 15 digits.  Values are not reused across
    refinements, although each halved grid repeats half of the previous one
    bit for bit.  Non-finite partial sums count as zero agreement and trigger
    refinement rather than aborting.  A run whose next step would underflow to
    zero stops at the last positive step and is reported as not stabilized.
    So does a run whose grid collapses: when two of its points theta + k*h
    round to the same number, the attempt scores 0 digits and the run stops,
    since a smaller step only collapses the grid further.  A run also stops,
    not stabilized, after an attempt that did not stabilize although its last
    two partial sums are finite and differ by no more than twice the rounding
    floor of :func:`series_core._rounding_floor`: a smaller step would only
    raise the floor.  This stop spends no evaluations of its own, and an
    attempt that stabilizes never computes the floor.
    The floor's two sums over k are exact and rounded once; a sum beyond the
    float range makes it NaN, and the run refines.  An oracle that
    raises ends the run with the grid's :class:`OracleEvaluationError`, which
    names the lowest failing slot; the failing attempt stops at its first
    failing slot, as :func:`blend_partial_sums` describes, so it spends fewer
    than n_max + 1 evaluations.

    ``config`` checked n_max and h0 when it was made.  Theta is checked where
    each attempt forms its grid points, before any evaluation: an int or a
    rational theta beyond the float range raises ValueError.  Each attempt's
    :func:`blend_partial_sums` checks its order, step and worker budget
    again, as a public call does.
    """
    start_count = oracle.eval_count
    for attempt in range(config.max_h_refinements + 1):
        h = config.h0 * H_SHRINK_FACTOR**attempt
        last_step = attempt == config.max_h_refinements or config.h0 * H_SHRINK_FACTOR ** (attempt + 1) == 0.0
        points = _grid_points(theta, h, config.n_max)
        # +inf is the one non-finite point a finite theta and a positive step
        # can form; an mpf theta beyond the float range is no float and stays.
        if points[-1] == math.inf and not last_step:
            continue
        trace = blend_partial_sums(oracle, theta, h, config.n_max, max_workers=max_workers)
        previous, last = trace._delta(config.n_max - 1), trace._delta(config.n_max)
        # Two of the points round alike: a smaller step only collapses more.
        collapsed = len(set(points)) <= config.n_max
        comparable = math.isfinite(previous) and math.isfinite(last) and not collapsed
        digits = agreed_significant_digits(previous, last) if comparable else 0
        stabilized = digits >= config.min_agree_digits
        # A smaller step only raises the rounding floor, so a pair that differs
        # by no more than it cannot be settled by halving.
        at_floor = comparable and not stabilized and abs(last - previous) <= 2 * _rounding_floor(trace, last)
        if stabilized or collapsed or at_floor or last_step:
            break
    return BlendReport(
        agreed_digits=digits,
        trace=trace,
        refinements=attempt,
        stabilized=stabilized,
        eval_count=oracle.eval_count - start_count,
    )


def _components(values, what: str) -> tuple[float, ...]:
    """float() of each of ``values``, refusing a str or a bool, which float() takes as well."""
    values = tuple(values)
    if not {str, bool}.isdisjoint(map(type, values)):
        bad = next(v for v in values if type(v) in (str, bool))
        raise ValueError(f"{what} must be real numbers, got {bad!r}")
    return tuple(map(float, values))


@dataclass(frozen=True)
class DirectionSpec:
    """A unit direction in parameter space; :meth:`unit` normalizes any vector."""

    direction: tuple[float, ...]

    def __post_init__(self):
        direction = _components(self.direction, "direction components")
        object.__setattr__(self, "direction", direction)
        if not direction:
            raise ValueError("direction must have at least one component")
        if not all(map(math.isfinite, direction)):
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
        values = _components(vector, "vector components")
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
    anchor = _components(theta, "theta components")
    vec = direction.direction
    if len(anchor) != len(vec):
        raise ValueError(f"dimension mismatch: theta has {len(anchor)} components, direction {len(vec)}")

    def restricted(t: float) -> float:
        return multi_fn(tuple(a + t * v for a, v in zip(anchor, vec)))

    return FunctionOracle(restricted, parallel_safe=parallel_safe, name=name or "directional")
