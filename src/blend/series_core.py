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

Every weighted sum over a grid (the partial sums, :func:`delta_from_cache`
and :func:`operator_power`) goes through one kernel, which reads the grid once.
Every finite float is an integer over a power of two, so a float grid is
written once as integers over one common denominator, and so is each float
row (once per order).  Each product w_k * phi_k is then exact in integers, and
each sum is rounded once, by a correctly rounded division; a sum beyond the
float range gives NaN.  Grids of other numeric types (exact rationals,
multi-precision floats) take the exact row in Neumaier order.  An order that
reaches a non-finite float gives NaN.  A sweep over N = 1..N_max costs
O(N_max^2) integer multiplications per attempt on top of the N_max + 1 oracle
evaluations.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .oracle import FunctionOracle, OracleEvaluationError

#: Largest supported truncation order.  lcm(1..40) and C(40,20) stay exact in
#: integer arithmetic with room to spare; beyond this, cancellation in the
#: function values dominates any benefit of more terms.
ORDER_CAP = 40


class OrderCapError(ValueError):
    """Requested truncation order exceeds the exact-weight cap."""


def _is_int(x) -> bool:
    # bool is an int subclass, but True is no count.
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    # An int or a float, not a bool.
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_order(n: int, what: str = "order") -> int:
    if not _is_int(n):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    if n > ORDER_CAP:
        raise OrderCapError(f"{what} {n} too large for exact weights (cap {ORDER_CAP})")
    return n


def _check_step(h: float) -> float:
    # Any real type passes (exact rationals and multi-precision floats keep
    # their exact rows), but not a bool or a string, though float() takes both.
    f = math.nan if isinstance(h, (bool, str)) else float(h)
    if not (math.isfinite(f) and f > 0.0):
        raise ValueError(f"step h must be a positive finite real, got {h!r}")
    return f


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


def _fixed_point(xs: Iterable[float]) -> tuple[tuple[int, ...], int]:
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


def _neumaier(terms) -> object:
    # Generic compensated accumulation for non-float numerics (exact rationals,
    # multi-precision floats).  Fixed iteration order.
    terms = iter(terms)
    total = next(terms, 0.0)
    comp = total - total  # zero of the right type
    for v in terms:
        t = total + v
        if abs(total) >= abs(v):
            comp = comp + ((total - t) + v)
        else:
            comp = comp + ((v - t) + total)
        total = t
    return total + comp


def _reduce(values: Sequence, orders: Sequence[int], fixed_row, exact_row) -> list:
    """sum_k row_k * values[k], k = 0..n, for each order n of ``orders``.

    The grid is checked, and its floats converted to fixed point, once for
    all orders.  An order whose slots all hold finite floats takes
    ``fixed_row(n)``, a row in fixed point: its sum is exact in integers and
    rounded once, NaN past the float range.  An order that reaches a
    non-finite float gives NaN.  Other orders take ``exact_row(n)`` in
    Neumaier order.
    """
    end = len(values)
    fixed = next((k for k, v in enumerate(values) if type(v) is not float or not math.isfinite(v)), end)
    finite = end if fixed == end else next((k for k, v in enumerate(values[fixed:], fixed) if type(v) is float and not math.isfinite(v)), end)
    grid = _fixed_point(values[:fixed])
    return [
        _exact_dot(fixed_row(n), grid) if n < fixed
        else math.nan if n >= finite
        else _neumaier(map(operator.mul, exact_row(n), values))
        for n in orders
    ]


def operator_power(
    oracle: FunctionOracle,
    theta: float,
    h: float,
    n: int,
    *,
    cache: Sequence | None = None,
) -> object:
    """(J - T_h)^n phi(theta) = sum_k (-1)^k C(n,k) phi(theta + k*h), by the grid kernel.

    Consumes exactly n+1 fresh oracle evaluations, made like the grid of
    :func:`blend_partial_sums`, or none when ``cache`` (pre-evaluated
    phi(theta + k*h) for k = 0..n, in slot order) is supplied.
    The integer binomial row is reduced like a stencil row: against a float
    grid the sum is exact and rounded once, so on a constant the row cancels
    to an exact zero, and on a polynomial of degree < n the result sits at
    the rounding level of the values.
    """
    _check_order(n)
    _check_step(h)
    if cache is not None:
        if len(cache) < n + 1:
            raise ValueError(f"cache must cover k=0..{n}, got {len(cache)} values")
        values = list(cache[: n + 1])
    else:
        values = _evaluate_grid(oracle, theta, h, n, max_workers=None)
    row = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    return _reduce(values, (n,), lambda _: (row, 1), lambda _: row)[0]


@dataclass(frozen=True)
class PartialSumTrace:
    """Partial sums Delta(1,h)..Delta(N_max,h) plus the cached grid values.

    ``deltas[N-1]`` is recomputable bit-identically from ``cached_values`` and
    ``stencil_weights(N)`` alone via :func:`delta_from_cache`: both reduce
    through the one grid kernel, and an exact sum rounded once does not depend
    on the common denominator of the grid it was read from.
    """

    theta: float
    h: float
    deltas: tuple[float, ...]
    cached_values: tuple[float, ...]


def delta_from_cache(weights: StencilWeights, cached_values: Sequence, h: float) -> float:
    """Delta(N, h) = -(1/h) * sum_k w_k * phi(theta + k*h) from cached values.

    The grid kernel reduces the row it is handed: a float grid against
    ``weights.weights``, taken as floats, in fixed point, exact and rounded
    once; other grids (exact rationals, multi-precision floats) against
    ``weights.exact``, so the rounding of the weights does not cap their
    precision.  A non-finite cached value yields NaN (callers treat that as
    "not stabilized") rather than an inf - inf artifact, and so does a sum
    beyond the float range.
    """
    _check_step(h)
    n = weights.order_n
    if len(cached_values) < n + 1:
        raise ValueError(f"need {n + 1} cached values for order {n}, got {len(cached_values)}")
    values = cached_values[: n + 1]
    return -_reduce(values, (n,), lambda _: _fixed_point(map(float, weights.weights)), lambda _: weights.exact)[0] / h


def _grid_points(theta, h: float, n_max: int) -> list:
    """The points theta + k*h, k = 0..n_max, of a grid, slot k at index k."""
    return [theta + k * h for k in range(n_max + 1)]


def _evaluate_at(oracle: FunctionOracle, point, k: int):
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


def _evaluate_grid(oracle: FunctionOracle, theta, h: float, n_max: int, max_workers: int | None) -> list:
    workers = _env_workers() if max_workers is None else max_workers
    if workers < 0:
        raise ValueError(f"max_workers must be >= 0, got {workers}")
    points = _grid_points(theta, h, n_max)
    if oracle.batch is None:
        return _evaluate_points(oracle, points, workers)
    try:
        return oracle.evaluate_many(points)
    except Exception:
        # A batch raises where fn would, so the grid point by point names the
        # lowest failing slot.  If no slot fails, the batch itself is broken
        # and its own error stands.
        _evaluate_points(oracle, points, workers)
        raise


def _evaluate_points(oracle: FunctionOracle, points: list, workers: int) -> list:
    if not oracle.parallel_safe or workers <= 1:
        # Strictly sequential in increasing k for oracles that demand it.
        return [_evaluate_at(oracle, point, k) for k, point in enumerate(points)]
    # The calling thread runs the grid beside up to workers - 1 helpers, then
    # waits only for slots already claimed, never for a ticket no helper has
    # taken: so a grid evaluated inside an oracle, or in a forked child,
    # cannot deadlock.  An interrupt of the calling thread propagates at
    # once, and no slot is claimed after it.
    grid = _Grid(oracle, points)
    _post(grid, min(workers, grid.size) - 1)
    try:
        grid.run(Exception)
        grid.idle.acquire()
    except BaseException:
        grid.close()
        raise
    if grid.errors:
        raise grid.errors[min(grid.errors)]
    return grid.values


class _Grid:
    """The slots of one parallel grid, claimed in increasing order under ``lock``.

    The first failing slot closes the grid, as an interrupt of the calling
    thread does: no slot is claimed after it.  Every slot below it was
    claimed before it, so it finishes, and the lowest failing slot of the
    grid is among ``errors``.  ``busy`` counts the threads evaluating a slot;
    ``idle`` is held until the last of them leaves a closed grid.
    """

    def __init__(self, oracle: FunctionOracle, points: list):
        self.oracle, self.points = oracle, points
        self.size = len(points)
        self.values: list = [None] * self.size
        self.errors: dict[int, BaseException] = {}
        self.next = 0
        self.busy = 0
        self.lock = threading.Lock()
        self.idle = threading.Lock()
        self.idle.acquire()

    def claim(self) -> int:
        """The next unclaimed slot, or ``size`` when the grid is closed."""
        with self.lock:
            i = self.next
            if i < self.size:
                self.next = i + 1
                self.busy += 1
            return i

    def close(self) -> None:
        with self.lock:
            self.next = self.size

    def run(self, catch: type[BaseException]) -> None:
        """Evaluate slots until the grid is closed; an exception of type ``catch`` is its slot's outcome."""
        while (i := self.claim()) < self.size:
            try:
                self.values[i] = _evaluate_at(self.oracle, self.points[i], i)
            except catch as exc:
                self.errors[i] = exc
                self.close()
            with self.lock:
                self.busy -= 1
                last = not self.busy and self.next == self.size
            if last:
                self.idle.release()


#: Helper threads started in this process, the queue of grids they take
#: tickets from, and the lock under which more are started.
_helpers = 0
_tickets = None
_pool_lock = threading.Lock()


def _post(grid: _Grid, seats: int) -> None:
    """Offer ``grid`` to ``seats`` helpers, starting any that the process lacks."""
    global _helpers, _tickets
    if _helpers < seats:
        with _pool_lock:
            if _tickets is None:
                from queue import SimpleQueue

                _tickets = SimpleQueue()
            while _helpers < seats:
                threading.Thread(target=_help, args=(_tickets,), name="blend-grid", daemon=True).start()
                _helpers += 1
    for _ in range(seats):
        _tickets.put(grid)


def _help(tickets) -> None:
    # A helper's exception, of any kind, is its slot's outcome.
    while True:
        tickets.get().run(BaseException)


def _forget_helpers() -> None:
    # A forked child has none of its parent's threads; it starts its own.
    global _helpers, _tickets, _pool_lock
    _helpers, _tickets, _pool_lock = 0, None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


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
    call, and the worker budget does not apply to it.  Other oracles'
    evaluations run concurrently when the oracle declares ``parallel_safe``
    and the worker budget (``max_workers``, defaulting to the BLEND_THREADS
    environment variable) exceeds one: the calling thread evaluates slots
    side by side with up to ``min(workers, n_max + 1) - 1`` helper threads.
    The helpers are daemon threads named ``blend-grid``, started by the first
    such grid and kept for the life of the process, so no grid starts a
    thread of its own.  Results are deposited into slot k and the reduction
    is always performed serially in fixed index order, so serial, parallel
    and batched runs produce bit-identical traces.

    Slots are taken in increasing k, and the first failing slot ends the
    grid: no slot is started after it, every slot below it is finished, and
    the lowest failing slot is raised.  A grid whose slot j fails therefore
    costs j + 1 evaluations serially, and at most j + workers in parallel,
    where each other thread may have one later slot under way.  Should a
    batch raise, the grid is evaluated again point by point, by the same
    rule, so that the error names the lowest failing slot, or, when no slot
    fails, the batch's own error is raised; the batch's n_max + 1 points
    count on ``eval_count`` as well.

    Raises:
        OracleEvaluationError: an evaluation failed; the failing grid slot is
            identified on the exception.
    """
    _check_order(n_max, "n_max")
    _check_step(h)
    values = _evaluate_grid(oracle, theta, h, n_max, max_workers)
    sums = _reduce(values, range(1, n_max + 1), _fixed_row, lambda n: _weight_row(n).exact)
    return PartialSumTrace(theta=theta, h=h, deltas=tuple([-s / h for s in sums]), cached_values=tuple(values))
