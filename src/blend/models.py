"""Test functions with reference derivatives, and the tandem-queue model.

The analytic catalog supplies functions whose derivatives are known in closed
form, for calibrating and property-testing the series machinery.  The queue is
the flagship genuinely-black-box application: a two-station tandem network
with finite buffers has no closed-form stationary distribution, but its
block-tridiagonal generator is solved level by level, so the blocking
probability is an ordinary numerically-evaluated function of the arrival rate.
One Gauss-Jordan kernel on M-matrix blocks eliminates every level, level 0
included: it fixes the empty state's probability instead of a normalization row.
The kernel (:class:`_GaussJordan`) and the solve (:func:`_solve_stack`) run on
a stack of arrival rates, the rates on the last axis of every array, so a whole
stencil grid costs one pass of numpy calls.  Each contract is stated where it
is kept: a member's bits in :func:`_solve_stack`, the pivot test in
:meth:`_GaussJordan.invert` and the ownership of the work arrays in
:class:`_GaussJordan`.  A stacked solve returns the normalized rows alone: the
oracle reads only their blocking mass, and the balance residual ||pi Q||_inf is
computed only for the rows whose :class:`StationaryDistribution` is asked for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .bounds_planner import GrowthEnvelope
from .oracle import FunctionOracle
from .series_core import _integer, _real

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class AnalyticTestFunction:
    """A catalog entry: evaluator plus reference derivative.

    For a scalar entry the reference derivative maps a point to phi'(point);
    for :func:`quadratic_form` it maps (point, direction) to the directional
    derivative.
    ``envelope`` carries derivative-growth constants (M, b) when known, scoped
    to the catalog's standard experiment region.
    """

    name: str
    evaluate: Callable
    reference_derivative: Callable
    envelope: GrowthEnvelope | None = None


def _quartic5(theta: float) -> float:
    return 5.0 * theta**4


SIN = AnalyticTestFunction(
    name="sin",
    evaluate=math.sin,
    reference_derivative=math.cos,
    # |sin^(n)| <= 1 everywhere.
    envelope=GrowthEnvelope(magnitude=1.0, growth=1.0),
)

QUARTIC5 = AnalyticTestFunction(
    name="quartic5",
    evaluate=_quartic5,
    reference_derivative=lambda theta: 20.0 * theta**3,
    # Valid near theta = 2 with steps up to 0.1: only derivatives 1..4 are
    # nonzero, and sup |phi^(n)| over [2, 2.4] <= 120 * 2.4**n there.
    envelope=GrowthEnvelope(magnitude=120.0, growth=2.4),
)


def exp_density(x: float = 1.0) -> AnalyticTestFunction:
    """The family theta * exp(-theta * x) for fixed x > 0.

    d/dtheta = (1 - theta*x) * exp(-theta*x).  The x = 1 member carries an
    envelope valid around theta = 1: |phi^(n)(t)| = e^{-t} |t - n| <=
    (n + 2) / e <= 1.0 * 1.3**n for t in [1, 1 + n*h], h <= 0.1.
    """
    x = _real(x, "x")
    envelope = GrowthEnvelope(magnitude=1.0, growth=1.3) if x == 1.0 else None
    return AnalyticTestFunction(
        name=f"exp_density(x={x:g})",
        evaluate=lambda theta: theta * math.exp(-theta * x),
        reference_derivative=lambda theta: (1.0 - theta * x) * math.exp(-theta * x),
        envelope=envelope,
    )


def _scaled_fsum(terms: list[float]) -> float:
    """The sum of ``terms`` where ``math.fsum`` raises: NaN for inf - inf, else ±inf past the float range.

    ``fsum`` refuses a partial sum past the float range even when the exact
    sum is finite.  Scaled by 2**-k, with 2**k above the number of terms, no
    partial sum can overflow; the scaling is exact on normal terms, so a
    finite exact sum comes back correctly rounded and one past the range as
    ±inf, as a single overflowing term gives.
    """
    scale = 2.0 ** len(terms).bit_length()
    try:
        return math.fsum(t / scale for t in terms) * scale
    except ValueError:  # inf - inf
        return math.nan


def quadratic_form(coefficients: Sequence[float]) -> AnalyticTestFunction:
    """phi(theta) = sum_i a_i * theta_i**2 with gradient (2*a_i*theta_i)_i.

    The directional reference is NaN where the derivative is not a finite double.
    """
    coeffs = tuple(float(a) for a in coefficients)
    if not coeffs:
        raise ValueError("need at least one coefficient")

    def evaluate(point: Sequence[float]) -> float:
        if len(point) != len(coeffs):
            raise ValueError(f"expected {len(coeffs)} components, got {len(point)}")
        try:
            return math.fsum(a * p * p for a, p in zip(coeffs, point))
        except (ValueError, OverflowError):  # inf - inf among the terms, or a partial sum past the float range
            return _scaled_fsum([a * p * p for a, p in zip(coeffs, point)])

    def directional(point: Sequence[float], direction: Sequence[float]) -> float:
        # Doubled after the sum, so a finite derivative near the top of the
        # float range is not lost to 2.0 * a overflowing.
        try:
            derivative = 2.0 * math.fsum(a * p * v for a, p, v in zip(coeffs, point, direction))
        except (ValueError, OverflowError):  # inf - inf among the terms, or a sum past the float range
            return math.nan
        return derivative if math.isfinite(derivative) else math.nan

    return AnalyticTestFunction(
        name=f"quadratic_form(m={len(coeffs)})",
        evaluate=evaluate,
        reference_derivative=directional,
    )


#: Scalar functions addressable by name from the CLI.
CATALOG: dict[str, AnalyticTestFunction] = {
    "sin": SIN,
    "quartic5": QUARTIC5,
}


# ---------------------------------------------------------------------------
# Tandem queue
# ---------------------------------------------------------------------------


# numpy is imported inside the queue functions, so the analytic commands never
# load it; sys.float_info.epsilon equals np.finfo(float).eps.
_EPS = sys.float_info.epsilon


class SingularGeneratorError(RuntimeError):
    """The stationary solve failed in working precision.

    A level block lost a pivot to rounding, or the stationary vector left the
    float range.
    """


def _check_outflow(arrival_rate: float, mu1: float, mu2: float) -> None:
    # Summed in the order of _outflow, which fills the generator diagonal.
    if not math.isfinite(mu1 + mu2 + arrival_rate):
        raise ValueError(f"total outflow arrival_rate + mu1 + mu2 must be finite, got {arrival_rate!r} + {mu1!r} + {mu2!r}")


@dataclass(frozen=True)
class TandemQueueModel:
    """Two-station tandem network with finite buffers.

    Jobs arrive in a Poisson stream at ``arrival_rate`` and are served at
    station 1 (rate ``mu1``), then station 2 (rate ``mu2``); service times are
    exponential.  Each station holds at most ``cap_i`` jobs including the one
    in service.  An arrival finding station 1 full is lost; station 1's server
    halts while station 2 is full.  The total outflow arrival_rate + mu1 + mu2
    must be finite, or a state's generator diagonal would be infinite.

    The state is (n1, n2) with 0 <= n_i <= cap_i, enumerated in lexicographic
    order; the chain is irreducible on the full rectangle whenever all rates
    are positive.
    """

    arrival_rate: float
    mu1: float
    mu2: float
    cap1: int
    cap2: int

    def __post_init__(self):
        object.__setattr__(self, "arrival_rate", _real(self.arrival_rate, "arrival_rate", zero=True))
        for field in ("mu1", "mu2"):
            object.__setattr__(self, field, _real(getattr(self, field), field))
        for field in ("cap1", "cap2"):
            _integer(getattr(self, field), field, 1)
        _check_outflow(self.arrival_rate, self.mu1, self.mu2)

    @property
    def state_count(self) -> int:
        return (self.cap1 + 1) * (self.cap2 + 1)

    def states(self) -> list[tuple[int, int]]:
        """States in lexicographic (n1, n2) order, matching all vectors here."""
        return [(n1, n2) for n1 in range(self.cap1 + 1) for n2 in range(self.cap2 + 1)]

    def state_index(self, n1: int, n2: int) -> int:
        return n1 * (self.cap2 + 1) + n2


def build_generator(model: TandemQueueModel) -> np.ndarray:
    """Infinitesimal generator Q over the lexicographic state order.

    Off-diagonal rates: arrivals (n1,n2) -> (n1+1,n2) at the arrival rate
    while station 1 has room (full: the arrival is lost, no transition);
    station-1 completions (n1,n2) -> (n1-1,n2+1) at mu1 while n1 > 0 and
    station 2 has room (full: the rate is suppressed); station-2 completions
    (n1,n2) -> (n1,n2-1) at mu2 while n2 > 0.  Diagonal entries close each row
    to zero.

    :func:`solve_stationary` never forms this dense matrix; it is the
    reference the tests check the block solver against.
    """
    import numpy as np
    c1, c2 = model.cap1, model.cap2
    q = np.zeros((model.state_count, model.state_count))
    for n1 in range(c1 + 1):
        for n2 in range(c2 + 1):
            i = model.state_index(n1, n2)
            if n1 < c1:
                q[i, model.state_index(n1 + 1, n2)] += model.arrival_rate
            if n1 > 0 and n2 < c2:
                q[i, model.state_index(n1 - 1, n2 + 1)] += model.mu1
            if n2 > 0:
                q[i, model.state_index(n1, n2 - 1)] += model.mu2
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return q


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary probabilities plus the achieved balance residual ||pi Q||_inf.

    ``probabilities`` is a row of a stacked solve, read-only as the solve
    returns it.
    """

    probabilities: np.ndarray
    residual_norm: float


class _GaussJordan:
    """Work arrays that invert stacks of level blocks, shape (n, n, B), in place.

    Write a block into ``block`` and call :meth:`invert`; one instance serves
    every block of its size in one solve.  The views of every pivot step are
    built here, once, so a pivot costs four slice assignments (factor column
    above and below the pivot row, pivot, unit column) and three numpy calls
    with positional outputs.  An instance belongs to one solve: concurrent
    solves share no array.  There are no row swaps: each block is the
    negative of a nonsingular M-matrix, so every pivot is nonzero without
    pivoting.  Rank-1 updates are elementwise numpy products, never BLAS, so
    the inverse is bit-identical under any BLAS threading.
    """

    def __init__(self, block: np.ndarray):
        import numpy as np
        n, _, size = block.shape
        self.block = a = block
        self._update = np.empty((n, n, size))
        self._pivots = np.empty((n, size))
        # factors[k] takes column k at step k, except row k, which stays +0.0:
        # the rank-1 update subtracts 0 * row from the pivot row, as the
        # elimination of one block does, and that turns -0.0 into +0.0.
        factors = np.zeros((n, n, 1, size))
        unit = np.eye(n)[:, :, None, None]
        columns = a.transpose(1, 0, 2)[:, :, None]
        self._steps = [
            (f, f[:k], c[:k], f[k + 1 :], c[k + 1 :], c, self._pivots[k], a[k, k], unit[k], a[k])
            for k, (f, c) in enumerate(zip(factors, columns))
        ]

    def invert(self) -> np.ndarray:
        """Replace ``block`` by its inverse and return it.

        The pivots are tested once, after the sweep: pivot k at or below
        n * eps * max|s[k, :]| of its own member raises
        :class:`SingularGeneratorError` naming the lowest such k and the
        first member lost there, the pivot that a test at every step would
        name.  Scaling by its own row keeps rates orders of magnitude apart
        in other rows from passing for a lost pivot.  The caller silences
        numpy's floating-point warnings: a lost pivot runs on to the end of
        the sweep before the test sees it.
        """
        import numpy as np
        a, update, pivots = self.block, self._update, self._pivots
        tol = a.shape[0] * _EPS * np.maximum.reduce(np.abs(a), axis=1)
        for factors, above, column_above, below, column_below, column, pivot, diagonal, unit, row in self._steps:
            # Column k of the working array turns into column k of the inverse:
            # set it to the unit column, scale the pivot row, then eliminate
            # with one rank-1 update.
            above[...] = column_above
            below[...] = column_below
            pivot[...] = diagonal
            column[...] = unit
            np.divide(row, pivot, row)
            np.multiply(factors, row, update)
            np.subtract(a, update, a)
        # Members are independent and pivot k depends only on the steps
        # before k, so the lowest lost k and its first lost member are where
        # a test at every step would have stopped.
        lost = np.abs(pivots) <= tol
        if np.count_nonzero(lost):
            k = lost.any(axis=1).argmax()
            raise SingularGeneratorError(f"pivot {k} ({pivots[k, lost[k].argmax()].item()!r}) is singular to working precision")
        return a


def _local_blocks(outflow: np.ndarray, mu2: float) -> np.ndarray:
    """Generator blocks within levels: station-2 completions n2 -> n2-1 and the diagonal.

    ``outflow`` holds each level's outflow per state and rate, shape
    (levels, cap2+1, B); the blocks have shape (levels, cap2+1, cap2+1, B).
    """
    import numpy as np
    levels, size, rates = outflow.shape
    blocks = np.zeros((levels, size, size, rates))
    n2 = np.arange(size)
    blocks[:, n2, n2] = -outflow
    blocks[:, n2[1:], n2[:-1]] = mu2
    return blocks


def _outflow(model: TandemQueueModel, lam) -> np.ndarray:
    """Total rate out of each state, the negated generator diagonal.

    Indexed [n1, n2] for one rate ``lam``, and [n1, n2, b] for an array of rates.
    """
    import numpy as np
    outflow = np.zeros((model.cap1 + 1, model.cap2 + 1, *np.shape(lam)))
    outflow[1:, :-1] += model.mu1  # station-1 completions, halted while station 2 is full
    outflow[:, 1:] += model.mu2  # station-2 completions
    outflow[:-1] += lam  # arrivals, lost while station 1 is full
    return outflow


def _solve_stack(model: TandemQueueModel, arrival_rates: Sequence[float]) -> np.ndarray:
    """Normalized stationary vectors of ``model`` at each of ``arrival_rates``, solved as one stack.

    Returns one read-only array with a contiguous row per rate, in the
    lexicographic state order, and nothing else: :func:`_with_residual`
    adds the balance residual to a row where one is read.  The method is
    :func:`solve_stationary`'s.  Every array carries the rates on its last
    axis, so each numpy call serves the whole stack, and each member goes
    through the operations of a stack of one in the same order: row b has
    the same bits as ``solve_stationary`` at ``arrival_rates[b]``.
    ``model.arrival_rate`` is not used.  Raises
    :class:`SingularGeneratorError` when a pivot of any member vanishes to
    working precision (:meth:`_GaussJordan.invert`), or when the forward
    recurrence or normalization of any member is not finite; numpy's
    floating-point warnings are silenced, since every non-finite vector
    raises.  Each censored block is written straight into the work array of
    one :class:`_GaussJordan` per block size, made by this call.
    """
    import numpy as np
    lam = np.array(arrival_rates, dtype=float)
    with np.errstate(all="ignore"):
        bottom, inner, top = _local_blocks(_outflow(model, lam)[[0, 1, -1]], model.mu2)  # levels 1..cap1-1 share one block
        local = [bottom] + [inner] * (model.cap1 - 1) + [top]
        rates = [None] * (model.cap1 + 1)
        # Each censored block is written straight into the kernel's work array,
        # which starts as the top level's block: no later level reads that one.
        censored = local[-1]
        kernel = _GaussJordan(censored)
        minus_lam = -lam
        for j in range(model.cap1, 0, -1):
            rates[j] = minus_lam * kernel.invert()
            # D has mu1 on the superdiagonal, so R_j D is a column shift of R_j.
            np.copyto(censored, local[j - 1])
            censored[:, 1:] += model.mu1 * rates[j][:, :-1]
        # pi_0 S_0 = 0 with pi_0[0] = 1: the other states of level 0 drain to
        # (0, 0) at rate mu2, so -S_0[1:, 1:] is a nonsingular M-matrix as well.
        # The corner inverts in place, in the view of S_0 that holds it; row 0 stays.
        first = np.ones((model.cap2 + 1, lam.size))
        first[1:] = np.add.reduce(-censored[0, 1:, None] * _GaussJordan(censored[1:, 1:]).invert(), axis=0)
        levels = [first]
        for j in range(1, model.cap1 + 1):
            # pi_{j-1} R_j as products summed in row order, not a BLAS product
            levels.append(np.add.reduce(levels[-1][:, None] * rates[j], axis=0))
        # One contiguous row per rate, so each total is the same pairwise sum as
        # that of a single vector.
        pi = np.concatenate(levels).T.copy()
        totals = np.sum(pi, axis=1, keepdims=True)
        lost = ~np.isfinite(totals[:, 0])
        if np.count_nonzero(lost):
            rate = lam[lost.argmax()].item()
            raise SingularGeneratorError(f"stationary vector at arrival rate {rate!r} is not finite in working precision")
        pi /= totals
    pi.setflags(write=False)
    return pi


def _with_residual(model: TandemQueueModel, probabilities: np.ndarray) -> StationaryDistribution:
    """A stationary row of ``model`` at its own arrival rate, with its balance residual ||pi Q||_inf.

    pi Q is formed block by block, elementwise: the local blocks, arrivals
    from the level below and station-1 completions from the level above.
    numpy's floating-point warnings are silenced, as in the solve.
    """
    import numpy as np
    by_level = probabilities.reshape(model.cap1 + 1, model.cap2 + 1)
    with np.errstate(all="ignore"):
        balance = -_outflow(model, model.arrival_rate) * by_level
        balance[:, :-1] += model.mu2 * by_level[:, 1:]
        balance[1:] += model.arrival_rate * by_level[:-1]
        balance[:-1, 1:] += model.mu1 * by_level[1:, :-1]
    return StationaryDistribution(probabilities, float(np.max(np.abs(balance))))


def solve_stationary(model: TandemQueueModel) -> StationaryDistribution:
    """Stationary distribution of the tandem queue by linear level reduction.

    In lexicographic order the generator is block tridiagonal over levels
    n1 = 0..cap1, with blocks of cap2+1 states: up = arrival_rate * I, down =
    D with mu1 on the superdiagonal, and each level's local block L_j.  Levels
    are eliminated from cap1 down to 1 (Gaver, Jacobs & Latouche 1984):

        S_cap1 = L_cap1,   R_j = -arrival_rate * S_j^-1,   S_{j-1} = L_{j-1} + R_j D,

    where S_j is level j's block of the chain censored to levels <= j.  Level
    0 fixes pi_0[0] = 1 and solves pi_0 S_0 = 0 for the rest (Grassmann,
    Taksar & Heyman 1985):

        pi_0[1:] = -S_0[0, 1:] S_0[1:, 1:]^-1,

    then pi_j = pi_{j-1} R_j and the whole vector is normalized.  Every
    inverse is a :class:`_GaussJordan` inverse of an M-matrix block, so one
    pivot rule covers the whole solve.  The cost is O(cap1 * cap2^3) against
    O((cap1 * cap2)^3) for the dense system, and the order matters:
    eliminating from level 0 upward would invert L_0, which is singular
    without arrivals.

    This is the row of a stack of one of :func:`_solve_stack`.  Raises
    :class:`SingularGeneratorError` when a pivot vanishes to working
    precision or the vector leaves the float range.  ``residual_norm`` is
    ||pi Q||_inf evaluated from the blocks (:func:`_with_residual`).
    """
    return _with_residual(model, _solve_stack(model, [model.arrival_rate])[0])


def blocking_mass(model: TandemQueueModel, probabilities: np.ndarray | Sequence[np.ndarray]) -> float | list[float]:
    """Mass of a stationary vector on the states (cap1, 0..cap2), where station 1 is full.

    ``probabilities`` is one row, which gives a float, or a stack of rows,
    which gives a list with the float of each: a row's mass is the same
    reduction, with the same bits, in a stack of any size.
    """
    import numpy as np
    return np.add.reduce(np.asarray(probabilities)[..., model.state_index(model.cap1, 0) :], axis=-1).tolist()


def blocking_probability(model: TandemQueueModel) -> float:
    """Stationary probability that station 1 is full (arrivals are lost).

    Poisson arrivals see time averages, so this is also the long-run fraction
    of arrivals rejected.  The stationary row is solved without its residual.
    """
    return blocking_mass(model, _solve_stack(model, [model.arrival_rate])[0])


def queue_sensitivity_oracle(base: TandemQueueModel) -> FunctionOracle:
    """Oracle mapping an arrival rate to the model's blocking probability.

    A grid of rates is one stacked solve (:func:`_solve_stack`), the oracle's
    ``batch``; a single rate is the stack of one.  Each value is the
    :func:`blocking_mass` of a normalized row: no residual is computed.
    The oracle keeps the rows of its latest stack, and only those: a call
    whose rates are all among them is served without a solve, so it never
    holds more than one stack.  A served row is the row a solve would give
    (:func:`_solve_stack`), so the oracle is safe for concurrent evaluation.
    Every rate is checked before anything is served or solved: a rate <= 0
    and a float rate that is not finite are rejected, each with its own
    message, since a stencil can only request them if the step is too large
    relative to the base rate, and so are a rate that is not an int or a
    float and a rate whose total outflow with the base's service rates is
    not finite, with the messages of :class:`TandemQueueModel`.
    """
    return _queue_oracle(base)[0]


def _queue_oracle(base: TandemQueueModel) -> tuple[FunctionOracle, Callable[[Sequence[float]], Sequence[np.ndarray]]]:
    """:func:`queue_sensitivity_oracle` and the stationary solves behind it.

    The second item maps arrival rates to their read-only stationary rows
    through the oracle's one-stack memory: rates that are all in the latest
    stack are served from it, other rates are solved as one stack that
    replaces it.  After a run it serves the run's own rows, for instance
    that of the base rate, which is slot 0 of every stencil grid.
    """
    latest: dict[float, np.ndarray] = {}

    def checked(arrival_rate: float) -> float:
        if isinstance(arrival_rate, float) and not math.isfinite(arrival_rate):
            raise ValueError(
                f"stencil requested arrival rate {arrival_rate!r}, which is not finite; "
                "reduce the step size relative to the base rate"
            )
        if not arrival_rate > 0:
            raise ValueError(
                f"stencil requested arrival rate {arrival_rate!r} <= 0; "
                "reduce the step size relative to the base rate"
            )
        rate = _real(arrival_rate, "arrival_rate", zero=True)
        _check_outflow(rate, base.mu1, base.mu2)
        return rate

    def stationary(arrival_rates: Sequence[float]) -> Sequence[np.ndarray]:
        nonlocal latest
        # Every rate is checked before the memory is read, so a rate the
        # solve refuses is refused when its float is in the memory too.
        rates = [checked(rate) for rate in arrival_rates]
        # One read and one rebinding of ``latest``: concurrent calls see a
        # whole stack or none, and a served member is the one a solve gives.
        kept = latest
        try:
            return [kept[rate] for rate in rates]
        except KeyError:
            pass
        stack = _solve_stack(base, rates)
        latest = dict(zip(rates, stack))
        return stack

    def blocking(arrival_rates: Sequence[float]) -> list[float]:
        return blocking_mass(base, stationary(arrival_rates))

    oracle = FunctionOracle(
        lambda arrival_rate: blocking([arrival_rate])[0],
        parallel_safe=True,
        batch=blocking,
        name="tandem-queue blocking probability",
    )
    return oracle, stationary
