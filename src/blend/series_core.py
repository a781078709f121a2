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
which ``run_blend`` stops) is one call of one single-row kernel,
:func:`_sum`, over the grid as :func:`_prepare` reads it once.
Every finite float is an integer over a power of two, so a float grid is
written once as integers over one common denominator, and so is each float
row (once per order).  Each product w_k * phi_k is then exact in integers, and
each sum is rounded once, by a correctly rounded division; a sum beyond the
float range gives NaN.  Floats of any float type (``numpy.float64`` too)
take this path.  Grids of other numeric types (exact rationals,
multi-precision floats) take the exact row in Neumaier order.  An order that
reaches a non-finite float gives NaN.

Over a float grid each sum is one dot product, :func:`_dot`, of a row in
fixed point against the grid: a partial sum takes the cached stencil row of
its order, so the table of orders 1..N is N row sums.  A
:class:`PartialSumTrace` owns its grid and its sums: it puts the grid in
fixed point once, when it is made, and sums each order on its first read,
whatever is read first, and keeps it.  ``run_blend`` reads only the last two
orders of each attempt and, when the pair is not settled, the rounding
floor, whose row is the cached float row with its signs dropped and whose
sum over |f_k| takes the trace's fixed-point grid with its signs dropped.

Arguments are checked at the public functions, once per call: the order and
the step by :func:`_check_order` and :func:`_check_step`, the worker budget
when a grid is evaluated, and theta where the grid points are formed, by
:func:`_grid_points`, before any evaluation.  The loops below them (the
serial grid, the reduction) run on checked values: a serial grid calls
``oracle.evaluate`` once per slot in one loop, and a failing slot is named
from the number of values already taken.
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
    # row N-1, so the rows of N = 1..N_max cost one new row per order.  The
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
    # float.as_integer_ratio is exact on a float of any subclass.
    ratios = list(map(float.as_integer_ratio, xs))
    den = max([d for _, d in ratios], default=1)
    bits = den.bit_length()
    return tuple([m << (bits - d.bit_length()) for m, d in ratios]), den


@lru_cache(maxsize=None)
def _fixed_row(n: int) -> tuple[tuple[int, ...], int]:
    return _fixed_point(_weight_row(n).weights)


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


def _prepare(values: Sequence) -> tuple:
    """The grid as :func:`_sum` reads it: (values, floats, finite, point).

    Slots below ``floats`` hold finite floats (of any float type, such as
    ``numpy.float64``), and ``point`` is that prefix in fixed point;
    ``finite`` is the first slot that holds a non-finite float.  Either
    index is len(values) when there is no such slot.
    """
    end = len(values)
    floats = next((k for k, v in enumerate(values) if not isinstance(v, float) or not math.isfinite(v)), end)
    if floats == end:  # a grid of finite floats, the common case
        return values, end, end, _fixed_point(values)
    finite = next((k for k, v in enumerate(values[floats:], floats) if isinstance(v, float) and not math.isfinite(v)), end)
    return values, floats, finite, _fixed_point(values[:floats])


def _dot(point: tuple[tuple[int, ...], int], row: tuple[tuple[int, ...], int]) -> float:
    # One row sum over a fixed-point grid, exact and rounded once, NaN past
    # the float range; the shorter of the two sets the slots summed.
    try:
        return sum(map(operator.mul, row[0], point[0])) / (row[1] * point[1])
    except OverflowError:
        return math.nan


def _sum(grid: tuple, n: int, fixed: tuple[tuple[int, ...], int], exact: Sequence) -> object:
    """sum_k exact[k] * values[k], k = 0..n, over the grid ``grid``, :func:`_prepare` of the values.

    ``fixed`` is the row in fixed point.  When slots 0..n hold finite floats
    it takes one :func:`_dot`: the sum is exact in integers and rounded
    once, NaN past the float range.  When one of them holds a non-finite
    float the sum is NaN.  Other grids take ``exact`` in Neumaier order.
    """
    values, floats, finite, point = grid
    if n < floats:
        return _dot(point, fixed)
    return math.nan if n >= finite else _neumaier(map(operator.mul, exact, values))


def _rounding_floor(trace: PartialSumTrace, last: float) -> float:
    """floor_N = u * sum_k |w_k| * (|f_k| + |Delta(N)| * |theta + k*h|) / h at the trace's top order N.

    ``last`` is Delta(N), u = 2**-53 the unit roundoff of a double, w the
    order-N float row and f the cached grid values: the rounding that the
    values and the points theta + k*h carry moves Delta(N) by about this
    much.  Both sums over k are row sums, against the float magnitudes
    |w_k| (in fixed point, the cached row with its signs dropped), and are
    scaled by u before |Delta(N)| multiplies in, so a sum beyond the float
    range gives NaN, which meets no comparison.  A grid of finite floats
    lends the sum over |f_k| its fixed-point form with the signs dropped.
    """
    n = len(trace.cached_values) - 1
    ints, den = _fixed_row(n)
    row = (tuple(map(abs, ints)), den)
    magnitudes = [abs(w) for w in _weight_row(n).weights]
    cached, floats, finite, point = trace._grid
    if floats == len(cached):
        grid = cached, floats, finite, (tuple(map(abs, point[0])), point[1])
    else:
        grid = _prepare([abs(v) for v in cached])
    values = 2.0**-53 * _sum(grid, n, row, magnitudes)
    points = 2.0**-53 * _sum(_prepare([abs(x) for x in _grid_points(trace.theta, trace.h, n)]), n, row, magnitudes)
    return (values + points * abs(last)) / trace.h


def operator_power(
    oracle: FunctionOracle,
    theta: float,
    h: float,
    n: int,
    *,
    cache: Sequence | None = None,
) -> object:
    """(J - T_h)^n phi(theta) = sum_k (-1)^k C(n,k) phi(theta + k*h), by the grid kernel.

    Consumes exactly n+1 fresh oracle evaluations, made like the serial grid
    of :func:`blend_partial_sums`, or none when ``cache`` (pre-evaluated
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
    return _sum(_prepare(values), n, (row, 1), row)


@dataclass(frozen=True)
class PartialSumTrace:
    """The grid values phi(theta + k*h), k = 0..N_max, and their partial sums Delta(1,h)..Delta(N_max,h).

    The trace owns its sums.  It puts the grid in fixed point once, when it
    is made, and every reduction of the trace shares it.  Each order is
    summed on its first read, one row sum, and kept, whatever is read first:
    ``run_blend`` reads only orders N_max-1 and N_max of each attempt, and
    ``deltas``, the table of all orders, then sums only the orders below
    them.  Threads that read the trace at once all receive the one value,
    and the one ``deltas`` tuple, stored first.

    ``deltas[N-1]`` is recomputable bit-identically from ``cached_values`` and
    ``stencil_weights(N)`` alone via :func:`delta_from_cache`: both reduce
    through the one grid kernel, and an exact sum rounded once does not depend
    on the common denominator of the grid it was read from.
    """

    theta: float
    h: float
    cached_values: tuple[float, ...]

    # The grid and the sums are kept in the instance __dict__, which a frozen
    # dataclass leaves free and which ==, hash and repr do not read;
    # dict.setdefault stores one value however many threads race.
    def __post_init__(self):
        self.__dict__.update(_grid=_prepare(self.cached_values), _sums={})

    def _delta(self, n: int) -> object:
        """Delta(n, h), summed on its first read and kept."""
        delta = self._sums.get(n)
        if delta is None:
            delta = self._sums.setdefault(n, -_sum(self._grid, n, _fixed_row(n), _weight_row(n).exact) / self.h)
        return delta

    @property
    def deltas(self) -> tuple[float, ...]:
        deltas = self.__dict__.get("_deltas")
        if deltas is None:
            table = tuple([self._delta(n) for n in range(1, len(self.cached_values))])
            deltas = self.__dict__.setdefault("_deltas", table)
        return deltas


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
    return -_sum(_prepare(cached_values[: n + 1]), n, row, weights.exact) / h


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

    Only the command line calls it, once per command; a library call takes
    its budget as ``max_workers`` and reads no environment.

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
    workers = 0 if max_workers is None else _integer(max_workers, "max_workers", 0)
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
    """Evaluate the grid once, for the partial sums Delta(N, h), N = 1..n_max.

    The trace sums each order on its first read (see
    :class:`PartialSumTrace`): this call evaluates the grid and sums nothing,
    so a value that is no number fails at the first read, not here.
    phi(theta + k*h) is evaluated exactly once per k.  An oracle with a
    ``batch`` receives the whole grid in one :meth:`FunctionOracle.evaluate_many`
    call, and the worker budget does not apply to it.  Other oracles'
    evaluations run concurrently when the oracle declares ``parallel_safe``
    and the worker budget ``max_workers`` exceeds one (None, the default, and
    0 mean a serial grid; no environment variable is read): the calling
    thread evaluates slots side by side with up to
    ``min(max_workers, n_max + 1) - 1`` helper threads.
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
    return PartialSumTrace(theta=theta, h=h, cached_values=tuple(_evaluate_grid(oracle, theta, h, n_max, max_workers)))
