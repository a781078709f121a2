"""Tests for the tandem-queue generator, stationary solver and sensitivity oracle."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blend import (
    BlendConfig,
    SingularGeneratorError,
    TandemQueueModel,
    blocking_probability,
    build_generator,
    queue_sensitivity_oracle,
    run_blend,
    solve_stationary,
)
from blend.models import _level_inverse

REFERENCE_MODEL = TandemQueueModel(arrival_rate=1.0, mu1=1.0, mu2=2.0, cap1=10, cap2=10)


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

    def test_singular_system_raises(self):
        with pytest.raises(SingularGeneratorError, match="pivot"):
            _level_inverse(np.zeros((3, 3)))

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
            "for caps in ((10, 10), (20, 3), (3, 20), (40, 40)):\n"
            "    print(solve_stationary(TandemQueueModel(1.3, 0.9, 1.7, *caps)).probabilities.tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 4


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

    def test_small_instance_against_hand_model(self):
        base = TandemQueueModel(1.0, 1.0, 1.0, 1, 1)
        oracle = queue_sensitivity_oracle(base)
        assert oracle.evaluate(1.0) == pytest.approx(0.6, abs=1e-14)
        report = run_blend(oracle, 1.0, BlendConfig(h0=0.01))
        assert report.stabilized

    def test_rejects_nonpositive_rate(self):
        oracle = queue_sensitivity_oracle(REFERENCE_MODEL)
        with pytest.raises(ValueError, match="reduce the step"):
            oracle.evaluate(0.0)

    def test_parallel_and_counting(self):
        oracle = queue_sensitivity_oracle(REFERENCE_MODEL)
        assert oracle.parallel_safe
        oracle.evaluate(1.0)
        oracle.evaluate(2.0)
        assert oracle.eval_count == 2
