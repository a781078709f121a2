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

Every weighted sum over a grid (the partial sums, :func:`delta_from_cache`,
:func:`operator_power` and :func:`_rounding_floor`, the rounding floor at
which ``run_blend`` stops) goes through one kernel, which reads the grid once.
Every finite float is an integer over a power of two, so a float grid is
written once as integers over one common denominator, and so is each float
row (once per order).  Each product w_k * phi_k is then exact in integers, and
each sum is rounded once, by a correctly rounded division; a sum beyond the
float range gives NaN.  Grids of other numeric types (exact rationals,
multi-precision floats) take the exact row in Neumaier order.  An order that
reaches a non-finite float gives NaN.

The partial sums of every order come from one sweep (Kronecker substitution):
the stencil rows 1..N_max are packed column-wise, one big integer per grid
slot with each order in its own slot of bits, so the N_max + 1 oracle
evaluations are followed by N_max + 1 products of a grid integer by a packed
column and N_max divisions, one per order.  The packed columns are cached for
the last 32 pairs of top order and slot width.  A single row, as in
:func:`delta_from_cache`, :func:`operator_power` and :func:`_rounding_floor`,
takes one dot product, :func:`_row_sum`; the floor's row is the cached float
row with its signs dropped.

Arguments are checked at the public functions, once per call: the order and
the step by :func:`_check_order` and :func:`_check_step`, the worker budget
when a grid is evaluated, and theta where the grid points are formed, by
:func:`_grid_points`, before any evaluation.  The loops below them (the
serial grid, the sweep, the reduction) run on checked values: a serial grid
calls ``oracle.evaluate`` once per slot in one loop, and a failing slot is
named from the number of values already taken.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from bisect import bisect_left
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


def _real(x, what: str, *, zero: bool = False) -> float:
    """float(x) for an int or a float, not a bool, that is finite and > 0 (>= 0 with ``zero``)."""
    # float() takes a bool or a string as well, and a concrete isinstance is
    # cheaper than numbers.Real.
    try:
        f = float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        f = math.nan
    if not (0.0 < f < math.inf or zero and f == 0.0):
        raise ValueError(f"{what} must be {'a finite real >= 0' if zero else 'a positive finite real'}, got {x!r}")
    return f


def _integer(x, what: str, low: int, high: int | None = None) -> int:
    """x, an int that is not a bool, when low <= x (<= high, if given)."""
    if not (isinstance(x, int) and not isinstance(x, bool) and low <= x and (high is None or x <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{what} must be an integer {bounds}, got {x!r}")
    return x


def _check_order(n: int, what: str = "order") -> int:
    # bool is an int subclass, but True is no count.
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    if n > ORDER_CAP:
        raise OrderCapError(f"{what} {n} too large for exact weights (cap {ORDER_CAP})")
    return n


def _check_step(h: float) -> float:
    # Any real type passes (exact rationals and multi-precision floats keep
    # their exact rows), but not a bool or a string, though float() takes both.
    try:
        f = math.nan if isinstance(h, (bool, str)) else float(h)
    except OverflowError:  # an int or a rational beyond the float range
        f = math.nan
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
    bits = den.bit_length()
    return tuple([m << (bits - d.bit_length()) for m, d in ratios]), den


@lru_cache(maxsize=None)
def _fixed_row(n: int) -> tuple[tuple[int, ...], int]:
    return _fixed_point(_weight_row(n).weights)


def _quotient(num: int, den: int) -> float:
    # One correctly rounded int / int; NaN past the float range.
    try:
        return num / den
    except OverflowError:
        return math.nan


@lru_cache(maxsize=None)
def _row_scales(top: int) -> tuple[int, tuple[int, ...]]:
    """Bit length of max_n sum_k |r_nk|, and the denominators, of the fixed-point stencil rows n = 1..top."""
    rows = [_fixed_row(n) for n in range(1, top + 1)]
    return max(sum(map(abs, ints)) for ints, _ in rows).bit_length(), tuple([den for _, den in rows])


# Packed columns are kept for 32 (top order, slot width) pairs at most.  An
# entry holds about (top + 1) * top * width bytes: 31 KB for a sin grid at
# order 40 (19-byte slots), 450 KB for the widest float grids (275 bytes).
# One round of the benchmark's analytic workload uses 24-27 pairs.
@lru_cache(maxsize=32)
def _columns(top: int, width: int) -> tuple[tuple[int, ...], int]:
    """Column k = 0..top of the fixed-point stencil rows 1..top, packed, and the bias.

    Row n takes bytes (n - 1) * width onwards of each column, read
    little-endian as a signed sum of slots.  The bias holds half a slot in
    every slot, so that bias + sum_k g_k * column_k holds each row's sum
    plus half a slot in the row's own slot, as long as every such sum, and
    every r_nk, lies within half a slot.
    """
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * top, "little")
    rows = [_fixed_row(n)[0] for n in range(1, top + 1)]

    def column(k: int) -> int:
        slots = b"".join(((r[k] if k < len(r) else 0) + half).to_bytes(width, "little") for r in rows)
        return int.from_bytes(slots, "little") - bias

    return tuple(map(column, range(top + 1))), bias


def _sweep(grid: tuple[tuple[int, ...], int], top: int) -> list[float]:
    """sum_k r_nk * g_k / (den_n * den), for the fixed-point stencil rows n = 1..top, against a fixed-point grid.

    Kronecker substitution: each grid integer g_k is multiplied once by
    column k, and the products are summed, so every order's exact sum lands
    in its own slot.  A slot is wide enough for any such sum: the bit length
    of max_n sum_k |r_nk|, plus that of max_k |g_k|, plus 2, in whole bytes.
    Each sum is read back and rounded once, by the division of
    :func:`_row_sum`, so the bits are those of one row sum per order.
    """
    ints, den = grid
    bits, dens = _row_scales(top)
    width = (bits + max(map(abs, ints)).bit_length() + 2 + 7) // 8
    columns, bias = _columns(top, width)
    packed = (sum(map(operator.mul, ints, columns)) + bias).to_bytes(top * width, "little")
    half = 1 << (8 * width - 1)
    nums = [int.from_bytes(packed[i : i + width], "little") - half for i in range(0, top * width, width)]
    try:
        return [num / (d * den) for num, d in zip(nums, dens)]
    except OverflowError:  # a sum beyond the float range, which _quotient makes NaN
        return [_quotient(num, d * den) for num, d in zip(nums, dens)]


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


def _reduce(values: Sequence, orders: Sequence[int], fixed_sums, exact_row) -> list:
    """sum_k row_k * values[k], k = 0..n, for each order n of ``orders``, in increasing order.

    The grid is checked, and its floats converted to fixed point, once for
    all orders.  The m orders whose slots all hold finite floats take
    ``fixed_sums(grid, m)``, with the grid's float prefix in fixed point:
    each sum is exact in integers and rounded once, NaN past the float
    range.  An order that reaches a non-finite float gives NaN.  Other
    orders take ``exact_row(n)`` in Neumaier order.
    """
    end = len(values)
    fixed = next((k for k, v in enumerate(values) if type(v) is not float or not math.isfinite(v)), end)
    if fixed == end:  # a grid of finite floats, the common case: every order takes fixed_sums
        return fixed_sums(_fixed_point(values), len(orders))
    finite = next((k for k, v in enumerate(values[fixed:], fixed) if type(v) is float and not math.isfinite(v)), end)
    m = bisect_left(orders, fixed)
    sums = fixed_sums(_fixed_point(values[:fixed]), m) if m else []
    return sums + [
        math.nan if n >= finite else _neumaier(map(operator.mul, exact_row(n), values))
        for n in orders[m:]
    ]


def _row_sum(values: Sequence, row: tuple[tuple[int, ...], int], exact: Sequence) -> object:
    """sum_k exact[k] * values[k], k = 0..n, over a grid of n + 1 values, by :func:`_reduce`.

    ``row`` is ``exact`` in fixed point.  A grid of finite floats takes it:
    the sum is exact in integers and rounded once, NaN past the float range.
    Other grids take ``exact`` as it is.
    """
    ints, den = row
    return _reduce(
        values, (len(values) - 1,), lambda grid, _: [_quotient(sum(map(operator.mul, ints, grid[0])), den * grid[1])], lambda _: exact
    )[0]


def _rounding_floor(trace: PartialSumTrace) -> float:
    """floor_N = u * sum_k |w_k| * (|f_k| + |Delta(N)| * |theta + k*h|) / h at the trace's last order N.

    u = 2**-53 is the unit roundoff of a double, w the order-N float row and
    f the cached grid values: the rounding that the values and the points
    theta + k*h carry moves Delta(N) by about this much.  Both sums over k
    are row sums, against the float magnitudes |w_k| (in fixed point, the
    cached row with its signs dropped), and are scaled by u before
    |Delta(N)| multiplies in, so a sum beyond the float range gives NaN,
    which meets no comparison.
    """
    n = len(trace.deltas)
    ints, den = _fixed_row(n)
    row = (tuple(map(abs, ints)), den)
    magnitudes = [abs(w) for w in _weight_row(n).weights]
    values = 2.0**-53 * _row_sum([abs(v) for v in trace.cached_values], row, magnitudes)
    points = 2.0**-53 * _row_sum([abs(x) for x in _grid_points(trace.theta, trace.h, n)], row, magnitudes)
    return (values + points * abs(trace.deltas[-1])) / trace.h


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
    return _row_sum(values, (row, 1), row)


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
    # The cached row of stencil_weights(n) has its fixed-point form cached too.
    cached = type(n) is int and 0 < n <= ORDER_CAP and weights is _weight_row(n)
    row = _fixed_row(n) if cached else _fixed_point(map(float, weights.weights))
    return -_row_sum(cached_values[: n + 1], row, weights.exact) / h


def _grid_points(theta, h: float, n_max: int) -> list:
    """The points theta + k*h, k = 0..n_max, of a grid, slot k at index k.

    Raises ValueError, naming theta, for an int or a rational theta beyond
    the float range: the one theta for which theta + k*h overflows.
    """
    try:
        return [theta + k * h for k in range(n_max + 1)]
    except OverflowError:
        raise ValueError(f"theta must lie within the float range, got {theta!r}") from None


def _slot_error(oracle: FunctionOracle, point, k: int, exc: Exception) -> OracleEvaluationError:
    name = oracle.name or "oracle"
    return OracleEvaluationError(f"{name} failed at grid point theta + {k}*h = {point!r}: {exc}", point=point, index=k)


def _evaluate_at(oracle: FunctionOracle, point, k: int):
    try:
        return oracle.evaluate(point)
    except Exception as exc:
        raise _slot_error(oracle, point, k, exc) from exc


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
    workers = _env_workers() if max_workers is None else _integer(max_workers, "max_workers", 0)
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
        # Strictly sequential in increasing k for oracles that demand it; the
        # slot that raised is the number of values already taken.
        values: list = []
        try:
            for point in points:
                values.append(oracle.evaluate(point))
        except Exception as exc:
            k = len(values)
            raise _slot_error(oracle, points[k], k, exc) from exc
        return values
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
    sums = _reduce(values, range(1, n_max + 1), _sweep, lambda n: _weight_row(n).exact)
    return PartialSumTrace(theta=theta, h=h, deltas=tuple([-s / h for s in sums]), cached_values=tuple(values))
