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

On float grids each product w_k * phi_k is made error-free (Dekker's
TwoProduct) and every order is summed with one ``math.fsum``.  The Veltkamp
halves that TwoProduct needs are taken once per float stencil row (cached next
to the row) and once per grid, not once per (N, k) pair, so a sweep over
N = 1..N_max costs O(N_max^2) multiplications and N_max ``fsum`` calls per
attempt on top of the N_max + 1 oracle evaluations.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .oracle import FunctionOracle, OracleEvaluationError

#: Largest supported truncation order.  lcm(1..40) and C(40,20) stay exact in
#: integer arithmetic with room to spare; beyond this, cancellation in the
#: function values dominates any benefit of more terms.
ORDER_CAP = 40

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


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


def _split_all(xs) -> list[tuple[float, float, float]]:
    """Veltkamp split of each float: (a, a_hi, a_lo) with a == a_hi + a_lo."""
    pieces = []
    for a in xs:
        ah = a * _SPLIT
        ah = ah - (ah - a)
        pieces.append((a, ah, a - ah))
    return pieces


@lru_cache(maxsize=None)
def _split_row(n: int) -> tuple[tuple[float, ...], list[tuple[float, float, float]]]:
    # The float row of order n with its pieces; the row is returned so that a
    # caller can check it split the row it was handed.
    weights = _weight_row(n).weights
    return weights, _split_all(weights)


def _split_dot(coeffs: Sequence[tuple], values: Sequence[tuple]) -> float:
    """math.fsum of the Dekker products of pre-split coeffs and values, pair by pair.

    Each product contributes p = a*b and its exact error, or 0.0 when p is not
    finite; the parts keep the order p_0, err_0, p_1, err_1, ...  Products
    that overflow to infinities of both signs, or a sum beyond the float
    range, give NaN where ``math.fsum`` would raise.
    """
    parts: list[float] = []
    append = parts.append
    for (a, ah, al), (b, bh, bl) in zip(coeffs, values):
        p = a * b
        append(p)
        append(((ah * bh - p) + ah * bl + al * bh) + al * bl if p - p == 0.0 else 0.0)
    try:
        return math.fsum(parts)
    except (ValueError, OverflowError):
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
    """sum_k coeffs[k] * values[k] with error-free products on the float path.

    For float inputs each product is split exactly (Dekker) and the pieces are
    summed with ``math.fsum``, so the result is the correctly rounded sum of
    the float products.  Coefficients that are exact in floating point and
    cancel algebraically (the integer binomial rows of :func:`operator_power`
    on a constant) therefore give exact zeros.  The float stencil rows do not:
    they are rounded rationals whose sum is not exactly 0, so a stencil row
    against a constant c leaves a residue of up to about u * sum|w_k| * |c|.
    Other numeric types fall back to compensated Neumaier accumulation in the
    same fixed k order.
    """
    if all(type(v) is float for v in values):
        return _split_dot(_split_all(float(c) for c, _ in zip(coeffs, values)), _split_all(values))
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
    ``stencil_weights(N)`` alone via :func:`delta_from_cache` (it is how the
    entries are produced in the first place).
    """

    theta: float
    h: float
    deltas: tuple[float, ...]
    cached_values: tuple[float, ...]


class _SplitGrid(list):
    """An all-float grid as (value, high, low) triples, split once, and its count of leading finite values."""

    def __init__(self, values: Sequence[float]):
        super().__init__(_split_all(values))
        self.finite_prefix = next((k for k, v in enumerate(values) if not math.isfinite(v)), len(values))


def delta_from_cache(weights: StencilWeights, cached_values: Sequence, h: float) -> float:
    """Delta(N, h) = -(1/h) * sum_k w_k * phi(theta + k*h) from cached values.

    Non-finite cached values yield NaN (callers treat that as "not
    stabilized") rather than propagating inf-inf artifacts out of the sum.
    :func:`blend_partial_sums` passes its float grids pre-split (a private
    ``_SplitGrid``); the result is bit-identical to passing the plain values.
    """
    _check_step(h)
    n = weights.order_n
    if len(cached_values) < n + 1:
        raise ValueError(f"need {n + 1} cached values for order {n}, got {len(cached_values)}")
    if type(cached_values) is _SplitGrid:
        if n >= cached_values.finite_prefix:
            return math.nan
        row_weights, row = _split_row(n)
        if row_weights is not weights.weights:
            row = _split_all(weights.weights)
        return -_split_dot(row, cached_values) / h
    values = cached_values[: n + 1]
    if any(type(v) is float and not math.isfinite(v) for v in values):
        return math.nan
    return -compensated_dot(weights.weights, values) / h


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


def _resolve_workers(max_workers: int | None) -> int:
    if max_workers is None:
        raw = os.environ.get("BLEND_THREADS", "0").strip() or "0"
        try:
            max_workers = int(raw)
        except ValueError:
            raise ValueError(f"BLEND_THREADS must be an integer, got {raw!r}") from None
    if max_workers < 0:
        raise ValueError(f"max_workers must be >= 0, got {max_workers}")
    return max_workers


def _evaluate_grid(oracle: FunctionOracle, theta, h: float, n_max: int, max_workers: int | None) -> list:
    workers = _resolve_workers(max_workers)
    ks = range(n_max + 1)
    if not oracle.parallel_safe or workers <= 1:
        # Strictly sequential in increasing k for oracles that demand it.
        return [_evaluate_at(oracle, theta, h, k) for k in ks]
    # Leaving the pool waits for every slot; reading in slot order raises the
    # lowest failing k.  pool.map would cancel pending slots on an error.
    with ThreadPoolExecutor(max_workers=min(workers, n_max + 1)) as pool:
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

    phi(theta + k*h) is evaluated exactly once per k; evaluations run
    concurrently when the oracle declares ``parallel_safe`` and the worker
    budget (``max_workers``, defaulting to the BLEND_THREADS environment
    variable) exceeds one.  Results are deposited into slot k and the
    reduction is always performed serially in fixed index order, so serial and
    parallel runs produce bit-identical traces.

    Raises:
        OracleEvaluationError: an evaluation failed; the failing grid slot is
            identified on the exception.
    """
    _check_order(n_max, "n_max")
    _check_step(h)
    values = _evaluate_grid(oracle, theta, h, n_max, max_workers)
    # Type and finiteness are checked once per grid here, not once per order.
    grid = _SplitGrid(values) if all(type(v) is float for v in values) else values
    deltas = tuple([delta_from_cache(_weight_row(n), grid, h) for n in range(1, n_max + 1)])
    return PartialSumTrace(theta=theta, h=h, deltas=deltas, cached_values=tuple(values))
