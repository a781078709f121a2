"""Test functions with reference derivatives, and the tandem-queue model.

The analytic catalog supplies functions whose derivatives are known in closed
form, for calibrating and property-testing the series machinery.  The queue is
the flagship genuinely-black-box application: a two-station tandem network
with finite buffers has no closed-form stationary distribution, but its
block-tridiagonal generator is solved level by level, so the blocking
probability is an ordinary numerically-evaluated function of the arrival rate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds_planner import GrowthEnvelope
from .oracle import FunctionOracle


@dataclass(frozen=True)
class AnalyticTestFunction:
    """A catalog entry: evaluator plus reference derivative.

    For ``arity == 1`` the reference derivative maps a point to phi'(point);
    for higher arity it maps (point, direction) to the directional derivative.
    ``envelope`` carries derivative-growth constants (M, b) when known, scoped
    to the catalog's standard experiment region.
    """

    name: str
    arity: int
    evaluate: Callable
    reference_derivative: Callable
    envelope: GrowthEnvelope | None = None


def _sin(theta: float) -> float:
    return math.sin(theta)


def _quartic5(theta: float) -> float:
    return 5.0 * theta**4


SIN = AnalyticTestFunction(
    name="sin",
    arity=1,
    evaluate=_sin,
    reference_derivative=math.cos,
    # |sin^(n)| <= 1 everywhere.
    envelope=GrowthEnvelope(magnitude=1.0, growth=1.0),
)

QUARTIC5 = AnalyticTestFunction(
    name="quartic5",
    arity=1,
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
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"x must be a positive finite real, got {x!r}")
    envelope = GrowthEnvelope(magnitude=1.0, growth=1.3) if x == 1.0 else None
    return AnalyticTestFunction(
        name=f"exp_density(x={x:g})",
        arity=1,
        evaluate=lambda theta: theta * math.exp(-theta * x),
        reference_derivative=lambda theta: (1.0 - theta * x) * math.exp(-theta * x),
        envelope=envelope,
    )


def quadratic_form(coefficients: Sequence[float]) -> AnalyticTestFunction:
    """phi(theta) = sum_i a_i * theta_i**2 with gradient (2*a_i*theta_i)_i."""
    coeffs = tuple(float(a) for a in coefficients)
    if not coeffs:
        raise ValueError("need at least one coefficient")

    def evaluate(point: Sequence[float]) -> float:
        if len(point) != len(coeffs):
            raise ValueError(f"expected {len(coeffs)} components, got {len(point)}")
        return math.fsum(a * p * p for a, p in zip(coeffs, point))

    def directional(point: Sequence[float], direction: Sequence[float]) -> float:
        return math.fsum(2.0 * a * p * v for a, p, v in zip(coeffs, point, direction))

    return AnalyticTestFunction(
        name=f"quadratic_form(m={len(coeffs)})",
        arity=len(coeffs),
        evaluate=evaluate,
        reference_derivative=directional,
    )


#: Scalar functions addressable by name from the CLI.
CATALOG: dict[str, AnalyticTestFunction] = {
    "sin": SIN,
    "quartic5": QUARTIC5,
}


def exp_density_operator_power_closed_form(theta: float, x: float, h: float, n: int) -> float:
    """Closed form of (J - T_h)^n applied to theta * exp(-theta * x).

    Splitting phi(theta + k*h) = theta*e^{-theta x} e^{-k h x} + k h e^{-theta
    x} e^{-k h x} and using the binomial theorem collapses the alternating sum
    to

        theta e^{-theta x} (1 - e^{-h x})^n - n h e^{-(theta+h) x} (1 - e^{-h x})^{n-1}.

    Summing -(1/(h n)) of this over all n >= 1 telescopes to the exact
    derivative (1 - theta x) e^{-theta x}, which is what makes the family a
    useful end-to-end oracle for the operator-power code.
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"x must be a positive finite real, got {x!r}")
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"h must be a positive finite real, got {h!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    q = -math.expm1(-h * x)  # 1 - exp(-h*x), accurate for small h*x
    first = theta * math.exp(-theta * x) * q**n
    second = n * h * math.exp(-(theta + h) * x) * q ** (n - 1)
    return first - second


# ---------------------------------------------------------------------------
# Tandem queue
# ---------------------------------------------------------------------------


_EPS = float(np.finfo(float).eps)


class SingularGeneratorError(RuntimeError):
    """The stationary linear system lost a pivot (reducible chain)."""


@dataclass(frozen=True)
class TandemQueueModel:
    """Two-station tandem network with finite buffers.

    Jobs arrive in a Poisson stream at ``arrival_rate`` and are served at
    station 1 (rate ``mu1``), then station 2 (rate ``mu2``); service times are
    exponential.  Each station holds at most ``cap_i`` jobs including the one
    in service.  An arrival finding station 1 full is lost; station 1's server
    halts while station 2 is full.

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
        if not (isinstance(self.arrival_rate, (int, float)) and self.arrival_rate >= 0 and math.isfinite(self.arrival_rate)):
            raise ValueError(f"arrival_rate must be a finite real >= 0, got {self.arrival_rate!r}")
        for field in ("mu1", "mu2"):
            v = getattr(self, field)
            if not (isinstance(v, (int, float)) and v > 0 and math.isfinite(v)):
                raise ValueError(f"{field} must be a positive finite real, got {v!r}")
        for field in ("cap1", "cap2"):
            v = getattr(self, field)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{field} must be an integer >= 1, got {v!r}")
        object.__setattr__(self, "arrival_rate", float(self.arrival_rate))
        object.__setattr__(self, "mu1", float(self.mu1))
        object.__setattr__(self, "mu2", float(self.mu2))

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
    """Stationary probabilities plus the achieved balance residual ||pi Q||_inf."""

    probabilities: np.ndarray
    residual_norm: float

    def __post_init__(self):
        self.probabilities.setflags(write=False)


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Dense LU with partial pivoting.  Hand-rolled (vectorized rank-1 updates,
    # np.sum substitutions) so results are bit-deterministic regardless of any
    # BLAS threading; it only ever sees one level's (cap2+1)-square system.
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    scale = float(np.max(np.abs(a)))
    tol = n * _EPS * (scale if scale > 0 else 1.0)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot_row, k]) <= tol:
            raise SingularGeneratorError(
                f"pivot {k} is zero to tolerance ({a[pivot_row, k]!r}); "
                "the balance system is singular, which signals a reducible chain"
            )
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            b[[k, pivot_row]] = b[[pivot_row, k]]
        if k < n - 1:
            multipliers = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k + 1 :] -= multipliers[:, None] * a[k, k + 1 :]
            b[k + 1 :] -= multipliers * b[k]
            a[k + 1 :, k] = 0.0
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - float(np.sum(a[i, i + 1 :] * x[i + 1 :]))) / a[i, i]
    return x


def _level_inverse(s: np.ndarray) -> np.ndarray:
    """Inverse of a censored level block by in-place Gauss-Jordan without row swaps.

    Each block is the negative of a nonsingular M-matrix, so every pivot is
    nonzero without pivoting.  A pivot that vanishes to tolerance raises
    :class:`SingularGeneratorError`.  Rank-1 updates are elementwise numpy
    products, never BLAS, so the result is bit-identical under any BLAS
    threading.
    """
    a = np.array(s, dtype=float)
    n = a.shape[0]
    scale = float(np.abs(a).max())
    tol = n * _EPS * (scale if scale > 0 else 1.0)
    for k in range(n):
        pivot = a.item(k, k)
        if abs(pivot) <= tol:
            raise SingularGeneratorError(
                f"pivot {k} is zero to tolerance ({pivot!r}); "
                "the balance system is singular, which signals a reducible chain"
            )
        # Column k of the working array turns into column k of the inverse:
        # clear it, scale the pivot row, then eliminate with one rank-1 update.
        factors = a[:, k].copy()
        factors[k] = 0.0
        a[:, k] = 0.0
        a[k, k] = 1.0
        a[k] /= pivot
        a -= factors[:, None] * a[k]
    return a


def _outflow(model: TandemQueueModel) -> np.ndarray:
    """Total rate out of each state, indexed [n1, n2]: the negated generator diagonal."""
    out = np.zeros((model.cap1 + 1, model.cap2 + 1))
    out[1:, :-1] += model.mu1  # station-1 completions, halted while station 2 is full
    out[:, 1:] += model.mu2  # station-2 completions
    out[:-1] += model.arrival_rate  # arrivals, lost while station 1 is full
    return out


def _local_block(outflow: np.ndarray, mu2: float) -> np.ndarray:
    """Generator block within one level: station-2 completions n2 -> n2-1 and the diagonal."""
    block = np.diag(-outflow)
    n2 = np.arange(1, outflow.size)
    block[n2, n2 - 1] = mu2
    return block


def solve_stationary(model: TandemQueueModel) -> StationaryDistribution:
    """Stationary distribution of the tandem queue by linear level reduction.

    In lexicographic order the generator is block tridiagonal over levels
    n1 = 0..cap1, with blocks of cap2+1 states: up = arrival_rate * I, down =
    D with mu1 on the superdiagonal, and each level's local block L_j.  Levels
    are eliminated from cap1 down to 1 (Gaver, Jacobs & Latouche 1984):

        S_cap1 = L_cap1,   R_j = -arrival_rate * S_j^-1,   S_{j-1} = L_{j-1} + R_j D,

    where S_j is level j's block of the chain censored to levels <= j.  Level
    0 is solved from pi_0 S_0 = 0 with its last equation replaced by a
    normalization row, then pi_j = pi_{j-1} R_j and the whole vector is
    normalized.  The cost is O(cap1 * cap2^3) against O((cap1 * cap2)^3) for
    the dense system, and the order matters: eliminating from level 0 upward
    would invert L_0, which is singular without arrivals.

    Raises :class:`SingularGeneratorError` when a pivot vanishes, which
    indicates a reducible chain.  ``residual_norm`` is ||pi Q||_inf evaluated
    from the blocks.
    """
    lam, mu1, mu2 = model.arrival_rate, model.mu1, model.mu2
    outflow = _outflow(model)
    inner = _local_block(outflow[1], mu2)  # levels 1..cap1-1 share one block
    local = [_local_block(outflow[0], mu2)] + [inner] * (model.cap1 - 1) + [_local_block(outflow[-1], mu2)]
    rates = [None] * (model.cap1 + 1)
    censored = local[-1]
    for j in range(model.cap1, 0, -1):
        rates[j] = -lam * _level_inverse(censored)
        # D has mu1 on the superdiagonal, so R_j D is a column shift of R_j.
        censored = local[j - 1].copy()
        censored[:, 1:] += mu1 * rates[j][:, :-1]
    system = censored.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(model.cap2 + 1)
    rhs[-1] = 1.0
    levels = [_lu_solve(system, rhs)]
    for j in range(1, model.cap1 + 1):
        # pi_{j-1} R_j by pairwise column sums instead of a BLAS product
        levels.append(np.add.reduce(levels[-1][:, None] * rates[j], axis=0))
    pi = np.concatenate(levels)
    pi /= float(np.sum(pi))
    # pi Q block by block: the local blocks, arrivals from the level below and
    # station-1 completions from the level above.
    by_level = pi.reshape(outflow.shape)
    balance = -outflow * by_level
    balance[:, :-1] += mu2 * by_level[:, 1:]
    balance[1:] += lam * by_level[:-1]
    balance[:-1, 1:] += mu1 * by_level[1:, :-1]
    residual = float(np.max(np.abs(balance)))
    return StationaryDistribution(probabilities=pi, residual_norm=residual)


def blocking_probability(model: TandemQueueModel) -> float:
    """Stationary probability that station 1 is full (arrivals are lost).

    Poisson arrivals see time averages, so this is also the long-run fraction
    of arrivals rejected.
    """
    pi = solve_stationary(model).probabilities
    start = model.state_index(model.cap1, 0)
    return float(np.sum(pi[start : start + model.cap2 + 1]))


def queue_sensitivity_oracle(base: TandemQueueModel) -> FunctionOracle:
    """Oracle mapping an arrival rate to the model's blocking probability.

    Each evaluation builds and solves its own generator, so the oracle is safe
    for concurrent evaluation.  Arrival rates <= 0 are rejected: a stencil
    can only request one if the step is too large relative to the base rate.
    """

    def evaluate(arrival_rate: float) -> float:
        if not (arrival_rate > 0 and math.isfinite(arrival_rate)):
            raise ValueError(
                f"stencil requested arrival rate {arrival_rate!r} <= 0; "
                "reduce the step size relative to the base rate"
            )
        return blocking_probability(dataclasses.replace(base, arrival_rate=arrival_rate))

    return FunctionOracle(evaluate, parallel_safe=True, name="tandem-queue blocking probability")
