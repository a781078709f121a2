"""Core of the logarithmic-series derivative approximation.

The derivative of an analytic function can be written as a series over powers
of the difference between the identity and the shift operator ``T_h``::

    phi'(theta) = -(1/h) * sum_{n>=1} (1/n) * (J - T_h)^n phi(theta)
    (J - T_h)^n phi(theta) = sum_{k=0}^{n} (-1)^k C(n,k) phi(theta + k*h)

Truncating at order N gives the approximation Delta(N, h).  Collapsing the
double sum over (n, k) into a single sum over grid points yields stencil
weights

    w_k = (-1)^k * sum_{n=max(k,1)}^{N} C(n,k) / n,

so that Delta(N, h) = -(1/h) * sum_k w_k * phi(theta + k*h): the function is
evaluated once per grid point instead of once per (n, k) pair, which enables
caching and concurrent evaluation.  Weights are accumulated in exact rational
arithmetic and converted to floating point once; the alternating binomials
would otherwise cancel catastrophically.

Every finite float is an integer over a power of two, so each float row (once
per order) and each float grid (once per attempt) is written as integers over
one common denominator.  Each product w_k * phi_k is then exact in integers,
and each order's sum is rounded once, by a correctly rounded division.
Non-finite inputs, and sums beyond the float range, give NaN.  A sweep over
N = 1..N_max costs O(N_max^2) integer multiplications per attempt on top of
the N_max + 1 oracle evaluations.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .oracle import FunctionOracle, OracleEvaluationError

#: Largest supported truncation order.  lcm(1..40) and C(40,20) stay exact in
#: integer arithmetic with room to spare; beyond this, cancellation in the
#: function values dominates any benefit of more terms.
ORDER_CAP = 40


class OrderCapError(ValueError):
    """Requested truncation order exceeds the exact-weight cap."""


def _check_order(n: int, what: str = "order") -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    if n > ORDER_CAP:
        raise OrderCapError(f"{what} {n} too large for exact weights (cap {ORDER_CAP})")
    return n


def _check_step(h: float) -> float:
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"step h must be a positive finite real, got {h!r}")
    return h


@dataclass(frozen=True)
class StencilWeights:
    """Collapsed grid-point coefficients of the order-N truncated series.

    ``weights`` are the float conversions used on the fast path; ``exact``
    keeps the underlying rationals for high-precision verification.  Row
    identities (exact arithmetic): sum w_k = 0 and sum k*w_k = -1.
    """

    order_n: int
    weights: tuple[float, ...]
    exact: tuple[Fraction, ...]


@lru_cache(maxsize=None)
def _weight_row(n: int) -> StencilWeights:
    # Incremental construction: row N adds the order-N operator-power term to
    # row N-1, so a sweep over N = 1..N_max costs one new row per step.  The
    # float conversion happens here, once per order.
    if n == 1:
        exact = (Fraction(1), Fraction(-1))
    else:
        prev = _weight_row(n - 1).exact
        inv_n = Fraction(1, n)
        exact = tuple(
            prev[k] + (-1) ** k * math.comb(n, k) * inv_n if k < n else (-1) ** k * inv_n
            for k in range(n + 1)
        )
    return StencilWeights(order_n=n, weights=tuple(float(w) for w in exact), exact=exact)


def stencil_weights(order_n: int) -> StencilWeights:
    """Weights w_k of the order-N collapsed stencil, k = 0..N.

    The order is validated before the cache lookup: ``True == 1`` hashes
    alike, so a cache hit must not stand in for the type check.
    """
    return _weight_row(_check_order(order_n))


def _fixed_point(xs: Sequence[float]) -> tuple[tuple[int, ...], int]:
    # Finite floats as integers over their largest denominator: xs[k] is
    # ints[k] / den exactly, since each denominator is a power of two.
    ratios = [x.as_integer_ratio() for x in xs]
    den = max([d for _, d in ratios], default=1)
    return tuple([m * (den // d) for m, d in ratios]), den


@lru_cache(maxsize=None)
def _fixed_row(n: int) -> tuple[tuple[int, ...], int]:
    return _fixed_point(_weight_row(n).weights)


def _exact_dot(a: tuple[tuple[int, ...], int], b: tuple[tuple[int, ...], int]) -> float:
    # sum_k a_k * b_k of two fixed-point vectors, up to the shorter one: exact
    # in integers, then one correctly rounded int / int; NaN past the float range.
    try:
        return sum(map(operator.mul, a[0], b[0])) / (a[1] * b[1])
    except OverflowError:
        return math.nan


def _neumaier(values) -> object:
    # Generic compensated accumulation for non-float numerics (exact rationals,
    # multi-precision floats).  Fixed iteration order.
    total = None
    comp = None
    for v in values:
        if total is None:
            total, comp = v, v - v  # zero of the right type
            continue
        t = total + v
        if abs(total) >= abs(v):
            comp = comp + ((total - t) + v)
        else:
            comp = comp + ((v - t) + total)
        total = t
    if total is None:
        return 0.0
    return total + comp


def compensated_dot(coeffs: Sequence, values: Sequence) -> object:
    """sum_k coeffs[k] * values[k], rounded once on the float path.

    For float values each product (the coefficient taken as a float) is exact
    in integers and the sum is rounded once, correctly; a non-finite input, or
    a sum beyond the float range, gives NaN.  So integer coefficients that
    cancel (the binomial rows of :func:`operator_power` on a constant) give
    exact zeros, while a float stencil row, whose sum is not exactly 0, leaves
    a residue of up to about u * sum|w_k| * |c| against a constant c.  Other
    numeric types use compensated Neumaier accumulation in fixed k order.
    """
    if all(type(v) is float for v in values):
        coeffs = [float(c) for c in coeffs]
        if all(map(math.isfinite, coeffs)) and all(map(math.isfinite, values)):
            return _exact_dot(_fixed_point(coeffs), _fixed_point(values))
        return math.nan
    return _neumaier(c * v for c, v in zip(coeffs, values))


def operator_power(
    oracle: FunctionOracle,
    theta: float,
    h: float,
    n: int,
    *,
    cache: Sequence | None = None,
) -> object:
    """(J - T_h)^n phi(theta) = sum_k (-1)^k C(n,k) phi(theta + k*h), as one compensated sum.

    Consumes exactly n+1 fresh oracle evaluations, made like the grid of
    :func:`blend_partial_sums`, or none when ``cache`` (pre-evaluated
    phi(theta + k*h) for k = 0..n, in slot order) is supplied.
    On a polynomial of degree < n the alternating binomial row annihilates the
    value, so the result sits at cancellation level.
    """
    _check_order(n)
    _check_step(h)
    if cache is not None:
        if len(cache) < n + 1:
            raise ValueError(f"cache must cover k=0..{n}, got {len(cache)} values")
        values = list(cache[: n + 1])
    else:
        values = _evaluate_grid(oracle, theta, h, n, max_workers=None)
    coeffs = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    return compensated_dot(coeffs, values)


@dataclass(frozen=True)
class PartialSumTrace:
    """Partial sums Delta(1,h)..Delta(N_max,h) plus the cached grid values.

    ``deltas[N-1]`` is recomputable bit-identically from ``cached_values`` and
    ``stencil_weights(N)`` alone via :func:`delta_from_cache`, which reduces
    with the same kernel.
    """

    theta: float
    h: float
    deltas: tuple[float, ...]
    cached_values: tuple[float, ...]


def delta_from_cache(weights: StencilWeights, cached_values: Sequence, h: float) -> float:
    """Delta(N, h) = -(1/h) * sum_k w_k * phi(theta + k*h) from cached values.

    A float grid is reduced against the float row ``weights.weights`` by
    :func:`compensated_dot`.  Other grids (exact rationals, multi-precision
    floats) take the exact row ``weights.exact``, so the rounding of the
    weights does not cap their precision.  Non-finite cached values yield NaN
    (callers treat that as "not stabilized") rather than propagating inf-inf
    artifacts out of the sum.
    """
    _check_step(h)
    n = weights.order_n
    if len(cached_values) < n + 1:
        raise ValueError(f"need {n + 1} cached values for order {n}, got {len(cached_values)}")
    values = cached_values[: n + 1]
    if all(type(v) is float for v in values):
        return -compensated_dot(weights.weights, values) / h
    if any(type(v) is float and not math.isfinite(v) for v in values):
        return math.nan
    return -_neumaier(w * v for w, v in zip(weights.exact, values)) / h


def _evaluate_at(oracle: FunctionOracle, theta, h: float, k: int):
    point = theta + k * h
    try:
        return oracle.evaluate(point)
    except Exception as exc:
        name = oracle.name or "oracle"
        raise OracleEvaluationError(
            f"{name} failed at grid point theta + {k}*h = {point!r}: {exc}",
            point=point,
            index=k,
        ) from exc


def _env_workers() -> int:
    """The worker budget set by the BLEND_THREADS environment variable (unset: 0).

    Raises ValueError, naming the variable and its value, unless the value
    is an integer >= 0.
    """
    raw = os.environ.get("BLEND_THREADS", "0").strip() or "0"
    try:
        workers = int(raw)
    except ValueError:
        pass
    else:
        if workers >= 0:
            return workers
    raise ValueError(f"BLEND_THREADS must be an integer >= 0, got {raw!r}")


def _resolve_workers(max_workers: int | None) -> int:
    if max_workers is None:
        return _env_workers()
    if max_workers < 0:
        raise ValueError(f"max_workers must be >= 0, got {max_workers}")
    return max_workers


def _evaluate_grid(oracle: FunctionOracle, theta, h: float, n_max: int, max_workers: int | None) -> list:
    workers = _resolve_workers(max_workers)
    ks = range(n_max + 1)
    if oracle.batch is None:
        return _evaluate_points(oracle, theta, h, ks, workers)
    try:
        return oracle.evaluate_many([theta + k * h for k in ks])
    except Exception:
        # A batch raises where fn would, so the grid point by point names the
        # lowest failing slot.  If no slot fails, the batch itself is broken
        # and its own error stands.
        _evaluate_points(oracle, theta, h, ks, workers)
        raise


def _evaluate_points(oracle: FunctionOracle, theta, h: float, ks: range, workers: int) -> list:
    if not oracle.parallel_safe or workers <= 1:
        # Strictly sequential in increasing k for oracles that demand it.
        return [_evaluate_at(oracle, theta, h, k) for k in ks]
    # Imported here: concurrent.futures loads logging, about 8 ms that a serial
    # run never needs.  Leaving the pool waits for every slot; reading in slot
    # order raises the lowest failing k.  pool.map would cancel pending slots
    # on an error.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(ks))) as pool:
        futures = [pool.submit(_evaluate_at, oracle, theta, h, k) for k in ks]
        return [f.result() for f in futures]


def blend_partial_sums(
    oracle: FunctionOracle,
    theta: float,
    h: float,
    n_max: int,
    *,
    max_workers: int | None = None,
) -> PartialSumTrace:
    """Evaluate the grid once and compute Delta(N, h) for N = 1..n_max.

    phi(theta + k*h) is evaluated exactly once per k.  An oracle with a
    ``batch`` receives the whole grid in one :meth:`FunctionOracle.evaluate_many`
    call, and the worker budget does not apply to it.  Should the batch
    raise, the grid is evaluated again point by point, as below, so that the
    error names the lowest failing slot, or, when no slot fails, the batch's
    own error is raised; a failed batch therefore costs up to 2*(n_max + 1)
    evaluations on ``eval_count``.  Other oracles' evaluations run
    concurrently when the oracle declares ``parallel_safe`` and the worker
    budget (``max_workers``, defaulting to the BLEND_THREADS environment
    variable) exceeds one.  Results are deposited into slot k and the
    reduction is always performed serially in fixed index order, so serial,
    parallel and batched runs produce bit-identical traces.

    Raises:
        OracleEvaluationError: an evaluation failed; the failing grid slot is
            identified on the exception.
    """
    _check_order(n_max, "n_max")
    _check_step(h)
    values = _evaluate_grid(oracle, theta, h, n_max, max_workers)
    orders = range(1, n_max + 1)
    if all(type(v) is float for v in values):
        # delta_from_cache's kernel, with the grid checked and converted once;
        # the orders that reach the first non-finite slot are NaN.
        finite = next((k for k, v in enumerate(values) if not math.isfinite(v)), n_max + 1)
        grid = _fixed_point(values[:finite])
        deltas = tuple([-_exact_dot(_fixed_row(n), grid) / h if n < finite else math.nan for n in orders])
    else:
        deltas = tuple([delta_from_cache(_weight_row(n), values, h) for n in orders])
    return PartialSumTrace(theta=theta, h=h, deltas=deltas, cached_values=tuple(values))
