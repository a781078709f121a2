"""Tests for the tandem-queue generator, stationary solver and sensitivity oracle."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blend
from blend import (
    BlendConfig,
    SingularGeneratorError,
    TandemQueueModel,
    blocking_probability,
    queue_sensitivity_oracle,
    run_blend,
    solve_stationary,
)
import blend.models as models
from blend.models import _GaussJordan, _queue_oracle, _solve_stack, _with_residual, build_generator

REFERENCE_MODEL = TandemQueueModel(arrival_rate=1.0, mu1=1.0, mu2=2.0, cap1=10, cap2=10)


def _stacked_inverse(stack):
    # The solve's kernel on a copy of a stack of blocks, with numpy's warnings silenced as in the solve.
    with np.errstate(all="ignore"):
        return _GaussJordan(np.array(stack, dtype=float)).invert()


def _hand_four_state_generator():
    # States (0,0),(0,1),(1,0),(1,1) for lambda=mu1=mu2=1, caps (1,1), by rule:
    # arrivals while station 1 has room, transfer while station 2 has room,
    # departures while station 2 is busy.
    return np.array(
        [
            [-1.0, 0.0, 1.0, 0.0],
            [1.0, -2.0, 0.0, 1.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )


def _dense_solve(model: TandemQueueModel) -> np.ndarray:
    # Reference route: LAPACK on the dense balance system, last equation
    # replaced by the normalization row.
    system = build_generator(model).T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(model.state_count)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def _exact_four_state_solution():
    # Balance equations solved by hand in exact arithmetic:
    #   pi(0,0) = pi(0,1),  2 pi(0,1) = pi(1,0),  ... -> (1,1,2,1)/5
    return [Fraction(1, 5), Fraction(1, 5), Fraction(2, 5), Fraction(1, 5)]


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TandemQueueModel(-1.0, 1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            TandemQueueModel(1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            TandemQueueModel(1.0, 1.0, 1.0, 0, 2)

    @pytest.mark.parametrize("field", ["arrival_rate", "mu1", "mu2"])
    def test_rejects_bools(self, field):
        rates = {"arrival_rate": 1.0, "mu1": 1.0, "mu2": 2.0, field: True}
        with pytest.raises(ValueError, match=f"{field} must be a .*finite real.*, got True"):
            TandemQueueModel(**rates, cap1=3, cap2=3)
        assert TandemQueueModel(1, 1, 2, 3, 3) == TandemQueueModel(1.0, 1.0, 2.0, 3, 3)

    @pytest.mark.parametrize("rates", [(1.0, 1e308, 1e308), (1.0, 9e307, 9e307), (1.7e308, 1e307, 1e307)])
    def test_refuses_an_infinite_total_outflow(self, rates):
        # Each rate is finite, but a state's outflow mu1 + mu2 + lambda is not.
        message = "total outflow arrival_rate + mu1 + mu2 must be finite, got {!r} + {!r} + {!r}".format(*rates)
        with pytest.raises(ValueError, match=re.escape(message)):
            TandemQueueModel(*rates, 10, 10)
        assert TandemQueueModel(1.0, 1e308, 1.0, 10, 10).mu1 == 1e308

    def test_state_enumeration(self):
        model = TandemQueueModel(1.0, 1.0, 1.0, 1, 2)
        assert model.state_count == 6
        assert model.states() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert model.state_index(1, 2) == 5


class TestGenerator:
    def test_four_state_hand_check(self):
        model = TandemQueueModel(1.0, 1.0, 1.0, 1, 1)
        assert np.array_equal(build_generator(model), _hand_four_state_generator())

    def test_row_sums_vanish(self):
        # Exactly zero for integer rates; within rounding of the diagonal
        # closure for arbitrary real rates.
        q_int = build_generator(TandemQueueModel(1.0, 1.0, 2.0, 10, 10))
        assert np.all(q_int.sum(axis=1) == 0.0)
        q_real = build_generator(TandemQueueModel(0.37, 1.91, 0.53, 6, 5))
        assert np.max(np.abs(q_real.sum(axis=1))) <= 8 * np.finfo(float).eps * 1.91

    def test_off_diagonals_nonnegative(self):
        q = build_generator(REFERENCE_MODEL)
        off = q - np.diag(q.diagonal())
        assert np.all(off >= 0.0)

    def test_blocked_station_one_has_only_departure(self):
        # In the full corner state the only transition is a station-2 completion.
        model = TandemQueueModel(1.0, 1.0, 1.0, 1, 1)
        q = build_generator(model)
        corner = model.state_index(1, 1)
        expected = np.zeros(4)
        expected[model.state_index(1, 0)] = 1.0
        expected[corner] = -1.0
        assert np.array_equal(q[corner], expected)


class TestStationary:
    def test_four_state_matches_hand_solution(self):
        pi = solve_stationary(TandemQueueModel(1.0, 1.0, 1.0, 1, 1)).probabilities
        for value, exact in zip(pi, _exact_four_state_solution()):
            assert value == pytest.approx(float(exact), abs=1e-14)

    def test_matches_svd_null_space(self):
        # Independent route: the stationary vector spans the left null space
        # of the dense generator.
        q = build_generator(REFERENCE_MODEL)
        pi = solve_stationary(REFERENCE_MODEL).probabilities
        _, singular_values, vt = np.linalg.svd(q.T)
        null = vt[-1]
        assert singular_values[-1] < 1e-10
        null = null / null.sum()
        assert np.max(np.abs(pi - null)) < 1e-12

    def test_distribution_quality(self):
        q = build_generator(REFERENCE_MODEL)
        result = solve_stationary(REFERENCE_MODEL)
        pi = result.probabilities
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.all(pi > 0.0)
        assert result.residual_norm <= 1e-10 * np.max(np.abs(q))
        # the residual assembled from the blocks is ||pi Q||_inf of the dense Q
        dense_residual = np.max(np.abs(np.sum(pi[:, None] * q, axis=0)))
        assert abs(result.residual_norm - dense_residual) <= 16 * np.finfo(float).eps * np.max(np.abs(q))

    def test_larger_instance_positive(self):
        pi = solve_stationary(TandemQueueModel(1.0, 1.0, 2.0, 10, 10)).probabilities
        assert np.all(pi > 0.0) and abs(pi.sum() - 1.0) <= 1e-12

    def test_no_arrivals_concentrates_at_empty_state(self):
        model = TandemQueueModel(0.0, 1.0, 2.0, 3, 3)
        pi = solve_stationary(model).probabilities
        assert pi[model.state_index(0, 0)] == pytest.approx(1.0, abs=1e-13)
        assert blocking_probability(model) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize(
        "model, blocking",
        [
            # Station 2 empties instantly: station 1 alone is M/M/1/10 at load 1.
            (TandemQueueModel(1.0, 1.0, 1e15, 10, 10), 1.0 / 11.0),
            # Station 1 passes jobs on instantly: one M/M/1/20 queue at load 1/2.
            (TandemQueueModel(1.0, 1e300, 2.0, 10, 10), 0.5**21 / (1.0 - 0.5**21)),
        ],
        ids=["mu2-1e15", "mu1-1e300"],
    )
    def test_extreme_service_rates_reach_single_station_limit(self, model, blocking):
        # Rates many orders of magnitude apart within one block are not a lost pivot.
        assert blocking_probability(model) == pytest.approx(blocking, rel=1e-12)

    def test_singular_system_raises(self):
        with pytest.raises(SingularGeneratorError, match="pivot"):
            _stacked_inverse(np.zeros((3, 3, 1)))

    def test_singular_member_names_its_own_pivot(self):
        stack = np.stack([-2.0 * np.eye(3), np.diag([-1.0, 0.0, -1.0])], axis=-1)
        with pytest.raises(SingularGeneratorError, match=r"pivot 1 \(0\.0\)"):
            _stacked_inverse(stack)

    def test_lowest_lost_pivot_is_named(self):
        # Member 0 loses pivot 2 and member 1 loses pivot 1: the sweep runs to
        # the end, and the test after it names the lower k.
        stack = np.stack([np.diag([-1.0, -1.0, 0.0]), np.diag([-1.0, 0.0, -1.0])], axis=-1)
        with pytest.raises(SingularGeneratorError, match=r"^pivot 1 \(0\.0\) is singular"):
            _stacked_inverse(stack)

    def test_overflowing_recurrence_raises(self, recwarn):
        # pi_j = pi_{j-1} R_j leaves the float range when station 2 all but stops.
        with pytest.raises(SingularGeneratorError, match=r"arrival rate 1\.0 is not finite"):
            _solve_stack(TandemQueueModel(1.0, 1.0, 1e-300, 10, 10), [1.0, 0.5])
        assert not recwarn.list

    def test_probabilities_are_frozen(self):
        result = solve_stationary(TandemQueueModel(1.0, 1.0, 1.0, 1, 1))
        with pytest.raises(ValueError):
            result.probabilities[0] = 0.5

    @pytest.mark.parametrize(
        "model",
        [
            TandemQueueModel(1.0, 1.0, 1.0, 1, 1),
            TandemQueueModel(0.7, 1.3, 0.4, 1, 40),
            TandemQueueModel(1.9, 0.6, 2.2, 40, 1),
            TandemQueueModel(1.0, 1.0, 2.0, 40, 40),
            TandemQueueModel(0.0, 1.0, 2.0, 40, 40),
            TandemQueueModel(0.0, 0.8, 1.7, 6, 2),
            TandemQueueModel(2.5, 0.9, 1.4, 25, 4),
            TandemQueueModel(0.4, 1.6, 0.3, 4, 25),
        ],
        ids=lambda m: f"{m.cap1}x{m.cap2}-lambda{m.arrival_rate:g}",
    )
    def test_matches_dense_solve(self, model):
        assert np.max(np.abs(solve_stationary(model).probabilities - _dense_solve(model))) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        cap1=st.integers(1, 12),
        cap2=st.integers(1, 12),
        rates=st.tuples(*[st.floats(0.05, 20.0)] * 3),
        idle=st.booleans(),
    )
    def test_matches_dense_solve_random_rates(self, cap1, cap2, rates, idle):
        arrival_rate, mu1, mu2 = rates
        model = TandemQueueModel(0.0 if idle else arrival_rate, mu1, mu2, cap1, cap2)
        assert np.max(np.abs(solve_stationary(model).probabilities - _dense_solve(model))) <= 1e-13

    def test_bytes_identical_across_blas_threads(self):
        script = (
            "from blend import TandemQueueModel, solve_stationary\n"
            "from blend import queue_sensitivity_oracle\n"
            "for caps in ((10, 10), (20, 3), (3, 20), (40, 40)):\n"
            "    model = TandemQueueModel(1.3, 0.9, 1.7, *caps)\n"
            "    print(solve_stationary(model).probabilities.tobytes().hex())\n"
            "    grid = queue_sensitivity_oracle(model).evaluate_many([1.3 + k * 0.01 for k in range(9)])\n"
            "    print(' '.join(value.hex() for value in grid))\n"
        )
        outputs = []
        src = str(Path(blend.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 8


def _unstacked_inverse(s: np.ndarray) -> np.ndarray:
    # The elimination of one block, as it ran before the solve was stacked.
    a = np.array(s, dtype=float)
    n = a.shape[0]
    tol = n * np.finfo(float).eps * np.abs(a).max(axis=1)
    for k in range(n):
        pivot = a.item(k, k)
        assert abs(pivot) > tol.item(k)
        factors = a[:, k].copy()
        factors[k] = 0.0
        a[:, k] = 0.0
        a[k, k] = 1.0
        a[k] /= pivot
        a -= factors[:, None] * a[k]
    return a


@st.composite
def _m_matrix_stacks(draw):
    # Negated nonsingular M-matrices, shape (n, n, B): off-diagonals >= 0 with
    # exact zeros, rows scaled across decades, and a diagonal that outweighs
    # its row by a positive slack, so every member is strictly diagonally
    # dominant and no pivot is lost.
    # n reaches 41, the largest block the CLI builds (--cap2 40).
    n, size = draw(st.integers(1, 41)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    stack = rng.random((n, n, size)) * (rng.random((n, n, size)) < density)
    stack *= 10.0 ** rng.integers(-4, 5, size=(n, 1, size))
    diagonal = np.arange(n)
    stack[diagonal, diagonal] = 0.0
    slack = (0.5 + rng.random((n, size))) * 10.0 ** rng.integers(-4, 5, size=(n, size))
    stack[diagonal, diagonal] = -(stack.sum(axis=1) + slack)
    return stack


class TestLevelInverse:
    """The stacked kernel against the elimination of one block at a time."""

    @settings(max_examples=60, deadline=None)
    @given(stack=_m_matrix_stacks())
    def test_each_member_has_the_bits_of_its_own_elimination(self, stack):
        inverse = _stacked_inverse(stack)
        for b in range(stack.shape[-1]):
            member = np.ascontiguousarray(inverse[:, :, b])
            assert member.tobytes() == _unstacked_inverse(stack[:, :, b]).tobytes()


def _unstacked_solve(model: TandemQueueModel) -> tuple[bytes, float]:
    # Reference for the bits: the level reduction of one model, one rate at a
    # time, as it ran before the solve was stacked.
    lam, mu1, mu2 = model.arrival_rate, model.mu1, model.mu2
    outflow = np.zeros((model.cap1 + 1, model.cap2 + 1))
    outflow[1:, :-1] += mu1
    outflow[:, 1:] += mu2
    outflow[:-1] += lam

    def local_block(out):
        block = np.diag(-out)
        n2 = np.arange(1, out.size)
        block[n2, n2 - 1] = mu2
        return block

    local = [local_block(row) for row in outflow]
    rates = [None] * (model.cap1 + 1)
    censored = local[-1]
    for j in range(model.cap1, 0, -1):
        rates[j] = -lam * _unstacked_inverse(censored)
        censored = local[j - 1].copy()
        censored[:, 1:] += mu1 * rates[j][:, :-1]
    first = np.ones(model.cap2 + 1)
    first[1:] = np.add.reduce(-censored[0, 1:, None] * _unstacked_inverse(censored[1:, 1:]), axis=0)
    levels = [first]
    for j in range(1, model.cap1 + 1):
        levels.append(np.add.reduce(levels[-1][:, None] * rates[j], axis=0))
    pi = np.concatenate(levels)
    pi /= float(np.sum(pi))
    by_level = pi.reshape(outflow.shape)
    balance = -outflow * by_level
    balance[:, :-1] += mu2 * by_level[:, 1:]
    balance[1:] += lam * by_level[:-1]
    balance[:-1, 1:] += mu1 * by_level[1:, :-1]
    return pi.tobytes(), float(np.max(np.abs(balance)))


def _same_solution(row: np.ndarray, model: TandemQueueModel) -> bool:
    # The row's bytes and the residual the helper gives it, against
    # solve_stationary and the unstacked reduction at the row's own rate.
    single = solve_stationary(model)
    bits = (row.tobytes(), repr(_with_residual(model, row).residual_norm))
    reference = _unstacked_solve(model)
    return bits == (single.probabilities.tobytes(), repr(single.residual_norm)) == (reference[0], repr(reference[1]))


class TestStackedSolve:
    """One stacked level reduction gives each rate the bits of its own solve."""

    @pytest.mark.parametrize("caps", [(1, 40), (40, 1), (40, 40)], ids=lambda c: f"{c[0]}x{c[1]}")
    @pytest.mark.parametrize("size", [3, 9, 41])
    def test_matches_one_solve_per_rate(self, caps, size):
        base = TandemQueueModel(1.0, 1.3, 0.8, *caps)
        rates = [0.9 + k * 0.0123 for k in range(size)]
        stack = _solve_stack(base, rates)
        assert stack.shape == (size, base.state_count)
        for rate, row in zip(rates, stack):
            assert _same_solution(row, TandemQueueModel(rate, 1.3, 0.8, *caps))

    @settings(max_examples=30, deadline=None)
    @given(
        cap1=st.integers(1, 12),
        cap2=st.integers(1, 12),
        service=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
        rates=st.lists(st.floats(0.0, 20.0), min_size=3, max_size=41),
    )
    def test_matches_one_solve_per_rate_random(self, cap1, cap2, service, rates):
        stack = _solve_stack(TandemQueueModel(1.0, *service, cap1, cap2), rates)
        for rate, row in zip(rates, stack):
            assert _same_solution(row, TandemQueueModel(rate, *service, cap1, cap2))

    def test_stack_of_one_is_solve_stationary(self):
        stack = _solve_stack(REFERENCE_MODEL, [REFERENCE_MODEL.arrival_rate])
        assert not stack.flags.writeable
        (row,) = stack
        assert _same_solution(row, REFERENCE_MODEL)
        assert not row.flags.writeable


class TestBlocking:
    def test_four_state_value(self):
        assert blocking_probability(TandemQueueModel(1.0, 1.0, 1.0, 1, 1)) == pytest.approx(0.6, abs=1e-14)

    def test_tiny_load_vanishes(self):
        assert blocking_probability(TandemQueueModel(1e-4, 1.0, 2.0, 5, 5)) < 1e-18

    def test_monotone_in_arrival_rate(self):
        values = [
            blocking_probability(TandemQueueModel(lam, 1.0, 2.0, 10, 10))
            for lam in (0.5, 1.0, 1.5, 2.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_station_two_pressure_increases_blocking(self):
        fast = blocking_probability(TandemQueueModel(1.0, 1.0, 4.0, 6, 6))
        slow = blocking_probability(TandemQueueModel(1.0, 1.0, 0.5, 6, 6))
        assert slow > fast


class TestSensitivityOracle:
    def test_blend_matches_central_difference(self):
        oracle = queue_sensitivity_oracle(REFERENCE_MODEL)
        report = run_blend(oracle, 1.0, BlendConfig(h0=0.01))
        assert report.stabilized
        step = 1e-5
        lo = blocking_probability(TandemQueueModel(1.0 - step, 1.0, 2.0, 10, 10))
        hi = blocking_probability(TandemQueueModel(1.0 + step, 1.0, 2.0, 10, 10))
        central = (hi - lo) / (2 * step)
        assert report.value == pytest.approx(central, abs=1e-6)

    def test_default_run_has_ten_digits_against_the_derivative_solve(self):
        # The default ``blend queue`` run against dB/dlambda from the balance
        # equations differentiated in lambda: pi' Q = -pi Q' with sum(pi') = 0.
        # Q is linear in lambda, so Q' is Q at lambda = 1 less Q at lambda = 0.
        model = REFERENCE_MODEL
        pi = _dense_solve(model)
        dq = build_generator(model) - build_generator(TandemQueueModel(0.0, 1.0, 2.0, 10, 10))
        system = build_generator(model).T.copy()
        system[-1, :] = 1.0
        rhs = -(dq.T @ pi)
        rhs[-1] = 0.0
        exact = np.linalg.solve(system, rhs)[model.state_index(model.cap1, 0) :].sum()
        report = run_blend(queue_sensitivity_oracle(model), model.arrival_rate, BlendConfig(h0=0.01))
        assert report.stabilized
        assert -math.log10(abs(report.value - exact) / exact) >= 10

    def test_fast_station_two_matches_single_station_derivative(self):
        # M/M/1/K at load 1 has dB/dlambda = K / (2 (K + 1)) for unit service rate.
        report = run_blend(queue_sensitivity_oracle(TandemQueueModel(1.0, 1.0, 1e15, 10, 10)), 1.0, BlendConfig(h0=0.01))
        assert report.stabilized
        assert report.value == pytest.approx(5.0 / 11.0, abs=1e-7)

    def test_small_instance_against_hand_model(self):
        base = TandemQueueModel(1.0, 1.0, 1.0, 1, 1)
        oracle = queue_sensitivity_oracle(base)
        assert oracle.evaluate(1.0) == pytest.approx(0.6, abs=1e-14)
        report = run_blend(oracle, 1.0, BlendConfig(h0=0.01))
        assert report.stabilized

    @pytest.mark.parametrize("rate", [0.0, -0.01, float("nan"), float("inf")])
    def test_rejects_nonpositive_rate(self, rate):
        with pytest.raises(ValueError, match="reduce the step"):
            queue_sensitivity_oracle(REFERENCE_MODEL).evaluate(rate)
        with pytest.raises(ValueError, match="reduce the step"):
            queue_sensitivity_oracle(REFERENCE_MODEL).evaluate_many([1.0, rate])

    @pytest.mark.parametrize("caps", [(1, 1), (1, 40), (40, 1), (3, 20), (10, 10)], ids=lambda c: f"{c[0]}x{c[1]}")
    def test_grid_batch_matches_point_by_point(self, caps):
        base = TandemQueueModel(1.0, 1.0, 2.0, *caps)
        points = [0.95 + k * 0.01 for k in range(9)]
        batched = queue_sensitivity_oracle(base)
        single = queue_sensitivity_oracle(base)
        values = batched.evaluate_many(points)
        assert [v.hex() for v in values] == [single.evaluate(p).hex() for p in points]
        assert [v.hex() for v in values] == [blocking_probability(TandemQueueModel(p, 1.0, 2.0, *caps)).hex() for p in points]
        assert batched.eval_count == 9

    @pytest.mark.parametrize("rate", [Fraction(1, 2), Decimal("0.5")], ids=["Fraction", "Decimal"])
    def test_model_error_for_rates_that_are_not_floats(self, rate):
        # The message of TandemQueueModel for the same rate.
        with pytest.raises(ValueError) as model_error:
            TandemQueueModel(rate, 1.0, 2.0, 10, 10)
        assert str(model_error.value) == f"arrival_rate must be a finite real >= 0, got {rate!r}"
        with pytest.raises(ValueError, match=re.escape(str(model_error.value))):
            queue_sensitivity_oracle(REFERENCE_MODEL).evaluate(rate)
        with pytest.raises(ValueError, match=re.escape(str(model_error.value))):
            queue_sensitivity_oracle(REFERENCE_MODEL).evaluate_many([1.0, rate])
        # An oracle whose memory holds the rate's float refuses it as well.
        solved = queue_sensitivity_oracle(REFERENCE_MODEL)
        solved.evaluate_many([0.5, 0.6])
        with pytest.raises(ValueError, match=re.escape(str(model_error.value))):
            solved.evaluate(rate)

    def test_refuses_a_bool_rate(self):
        # True hashes like 1.0, so the memory of a solve at 1.0 must not serve it.
        message = re.escape("arrival_rate must be a finite real >= 0, got True")
        oracle = queue_sensitivity_oracle(REFERENCE_MODEL)
        with pytest.raises(ValueError, match=message):
            oracle.evaluate(True)
        oracle.evaluate_many([1.0, 1.01])
        with pytest.raises(ValueError, match=message):
            oracle.evaluate(True)
        with pytest.raises(ValueError, match=message):
            oracle.evaluate_many([1.01, True])
        assert oracle.evaluate(1) == oracle.evaluate(1.0)

    def test_refuses_a_rate_with_an_infinite_total_outflow(self):
        # The base model's outflow is finite; the stencil's rate 1.7e308 is not.
        oracle = queue_sensitivity_oracle(TandemQueueModel(1.0, 1e307, 1e307, 3, 3))
        message = re.escape("total outflow arrival_rate + mu1 + mu2 must be finite, got 1.7e+308 + 1e+307 + 1e+307")
        with pytest.raises(ValueError, match=message):
            oracle.evaluate(1.7e308)
        with pytest.raises(ValueError, match=message):
            oracle.evaluate_many([1.0, 1.7e308])
        assert oracle.eval_count == 3

    def test_batch_rejects_nonpositive_rate(self):
        oracle = queue_sensitivity_oracle(REFERENCE_MODEL)
        with pytest.raises(ValueError, match=r"rate -0\.01 <= 0; reduce the step"):
            oracle.evaluate_many([0.02, 0.01, -0.01])

    def test_parallel_and_counting(self):
        oracle = queue_sensitivity_oracle(REFERENCE_MODEL)
        assert oracle.parallel_safe
        oracle.evaluate(1.0)
        oracle.evaluate(2.0)
        assert oracle.eval_count == 2

    def test_keeps_only_its_latest_stack(self, monkeypatch):
        calls = []
        solve_stack = models._solve_stack

        def counted(model, arrival_rates):
            calls.append(list(arrival_rates))
            return solve_stack(model, arrival_rates)

        monkeypatch.setattr(models, "_solve_stack", counted)
        oracle, stationary = _queue_oracle(REFERENCE_MODEL)
        first = [0.95 + k * 0.01 for k in range(9)]
        second = [1.05 + k * 0.01 for k in range(9)]
        values = oracle.evaluate_many(first)
        # Rates of the latest stack are served, singly or as a grid, and are the same objects.
        assert oracle.evaluate(first[4]) == values[4]
        assert oracle.evaluate_many(first[::-1]) == values[::-1]
        assert stationary([first[0]])[0] is stationary(first)[0]
        assert len(calls) == 1
        # A new stack replaces it: the first grid is solved again, with the same bits.
        oracle.evaluate_many(second)
        assert [v.hex() for v in oracle.evaluate_many(first)] == [v.hex() for v in values]
        assert calls == [first, second, first]
        assert oracle.eval_count == 9 + 1 + 9 + 9 + 9

    def test_concurrent_calls_get_the_values_of_their_own_solves(self):
        base = TandemQueueModel(1.0, 1.0, 2.0, 3, 3)
        grids = [[0.5 + 0.1 * g + 0.01 * k for k in range(5)] for g in range(4)]
        expected = {rate: blocking_probability(TandemQueueModel(rate, 1.0, 2.0, 3, 3)).hex() for grid in grids for rate in grid}
        oracle = queue_sensitivity_oracle(base)

        def work(i: int) -> list[tuple[float, float]]:
            grid = grids[i % len(grids)]
            if i % 2:
                return list(zip(grid, oracle.evaluate_many(grid)))
            return [(rate, oracle.evaluate(rate)) for rate in grid]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, i) for i in range(64)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(value.hex() == expected[rate] for pairs in results for rate, value in pairs)
