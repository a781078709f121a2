"""Tests for stencil weights, operator powers and partial-sum traces."""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blend import (
    ORDER_CAP,
    FunctionOracle,
    OracleEvaluationError,
    OrderCapError,
    binomial,
    blend_partial_sums,
    delta_from_cache,
    operator_power,
    stencil_weights,
)


def _pascal(n: int, k: int) -> int:
    # Independent cross-check: Pascal-triangle recurrence, pure addition.
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


class TestBinomial:
    def test_pascal_row(self):
        assert [binomial(3, k) for k in range(4)] == [1, 3, 3, 1]

    def test_identity_case(self):
        assert binomial(0, 0) == 1

    def test_large_value_cross_checked(self):
        assert binomial(30, 15) == _pascal(30, 15) == 155117520

    def test_order_cap(self):
        with pytest.raises(OrderCapError, match="too large for exact weights"):
            binomial(ORDER_CAP + 1, 1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(TypeError):
            binomial(3.0, 1)  # type: ignore[arg-type]


class TestStencilWeights:
    def test_order_one_is_forward_difference(self):
        assert stencil_weights(1).weights == (1.0, -1.0)

    def test_order_two(self):
        w = stencil_weights(2)
        assert w.weights == (1.5, -2.0, 0.5)
        assert w.exact == (Fraction(3, 2), Fraction(-2), Fraction(1, 2))

    def test_collapsed_form_matches_double_sum(self):
        # w_k = (-1)^k sum_{n=max(k,1)}^{N} C(n,k)/n, accumulated directly.
        for n_order in (1, 2, 3, 7, 13):
            expected = [Fraction(0)] * (n_order + 1)
            for n in range(1, n_order + 1):
                for k in range(n + 1):
                    expected[k] += Fraction((-1) ** k * math.comb(n, k), n)
            assert stencil_weights(n_order).exact == tuple(expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40])
    def test_exact_row_identities(self, n):
        exact = stencil_weights(n).exact
        assert sum(exact) == 0
        assert sum(k * w for k, w in enumerate(exact)) == -1

    @pytest.mark.parametrize("n", [1, 4, 8, 16, 40])
    def test_float_row_sums_within_tolerance(self, n):
        weights = stencil_weights(n).weights
        eps = 2.3e-16
        assert abs(math.fsum(weights)) <= n * 2**n * eps
        assert abs(math.fsum(k * w for k, w in enumerate(weights)) + 1.0) <= n * 2**n * eps

    def test_order_cap_and_bad_order(self):
        with pytest.raises(OrderCapError):
            stencil_weights(ORDER_CAP + 1)
        with pytest.raises(ValueError):
            stencil_weights(0)

    def test_cached_order_still_validates(self):
        # True == 1 and hashes alike, so a cached order-1 row must not answer
        # for a bool: validation precedes the cache lookup.
        assert stencil_weights(1) is stencil_weights(1)
        with pytest.raises(TypeError):
            stencil_weights(True)


class TestOperatorPower:
    def test_annihilates_low_degree_polynomial(self):
        oracle = FunctionOracle(lambda t: t * t)
        result = operator_power(oracle, 5.0, 0.1, 3)
        # scale of the alternating sum before cancellation
        scale = sum(math.comb(3, k) * abs((5.0 + 0.1 * k) ** 2) for k in range(4))
        assert abs(result.value) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40])
    def test_constant_function_is_exactly_zero(self, n):
        oracle = FunctionOracle(lambda t: 1.2345678912345e8)
        assert operator_power(oracle, 0.3, 0.05, n).value == 0.0

    def test_consumes_exactly_n_plus_one_evaluations(self):
        oracle = FunctionOracle(math.exp)
        operator_power(oracle, 0.0, 0.1, 6)
        assert oracle.eval_count == 7

    def test_cache_suppresses_evaluations(self):
        oracle = FunctionOracle(math.exp)
        values = [math.exp(0.1 * k) for k in range(8)]
        direct = operator_power(oracle, 0.0, 0.1, 7)
        cached = operator_power(oracle, 0.0, 0.1, 7, cache=values)
        assert oracle.eval_count == 8
        assert cached.value == direct.value

    def test_short_cache_rejected(self):
        oracle = FunctionOracle(math.exp)
        with pytest.raises(ValueError, match="cache"):
            operator_power(oracle, 0.0, 0.1, 7, cache=[1.0, 2.0])

    def test_failure_carries_point_and_index(self):
        def bad(t):
            if t > 0.25:
                raise RuntimeError("boom")
            return t

        oracle = FunctionOracle(bad, name="bad")
        with pytest.raises(OracleEvaluationError) as err:
            operator_power(oracle, 0.0, 0.1, 5)
        assert err.value.index == 3
        assert err.value.point == pytest.approx(0.3)
        assert "bad" in str(err.value)

    def test_bad_arguments(self):
        oracle = FunctionOracle(math.sin)
        with pytest.raises(ValueError):
            operator_power(oracle, 0.0, -0.1, 2)
        with pytest.raises(ValueError):
            operator_power(oracle, 0.0, 0.1, 0)
        with pytest.raises(OrderCapError):
            operator_power(oracle, 0.0, 0.1, ORDER_CAP + 1)


class TestPartialSums:
    def test_forward_difference_row_sin_small_step(self):
        oracle = FunctionOracle(math.sin)
        trace = blend_partial_sums(oracle, 0.0, 0.1, 1)
        assert trace.deltas[0] == pytest.approx(0.998334166468282, abs=1e-14)

    def test_forward_difference_row_sin_unit_step(self):
        oracle = FunctionOracle(math.sin)
        trace = blend_partial_sums(oracle, 0.0, 1.0, 1)
        assert trace.deltas[0] == pytest.approx(0.841470984807897, abs=1e-14)

    def test_forward_difference_row_quartic(self):
        oracle = FunctionOracle(lambda t: 5.0 * t**4)
        trace = blend_partial_sums(oracle, 2.0, 0.001, 1)
        assert trace.deltas[0] == pytest.approx(160.1200400049834, abs=1e-10)

    def test_shapes_and_eval_budget(self):
        oracle = FunctionOracle(math.sin)
        trace = blend_partial_sums(oracle, 0.3, 0.05, 6)
        assert len(trace.deltas) == 6
        assert len(trace.cached_values) == 7
        assert trace.eval_count_used == 7
        assert oracle.eval_count == 7

    @given(
        a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-6),
        c=st.floats(-5, 5),
        h=st.floats(1e-4, 0.5),
        theta=st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_functions_recovered(self, a, c, h, theta):
        # The stencil is exact on linear functions; the only residual error is
        # the rounding of the cached values themselves (the weighted sum is
        # exactly rounded), so the deviation must sit under that noise model.
        # Each value a*t + c carries rounding of order eps*(|a*t| + |c|),
        # which can dwarf eps*|value| when the two terms cancel.
        oracle = FunctionOracle(lambda t: a * t + c)
        trace = blend_partial_sums(oracle, theta, h, 8)
        eps = 2.3e-16
        magnitudes = [abs(a * (theta + k * h)) + abs(c) for k in range(9)]
        for n, delta in enumerate(trace.deltas, start=1):
            weights = stencil_weights(n).weights
            noise = 4.0 * eps * sum(
                abs(w) * m for w, m in zip(weights, magnitudes)
            ) / h
            assert abs(delta - a) <= noise + 1e-300

    def test_trace_recomputable_bit_exactly(self):
        oracle = FunctionOracle(lambda t: math.exp(math.sin(3.0 * t)))
        trace = blend_partial_sums(oracle, 0.7, 0.02, 10)
        for n in range(1, 11):
            recomputed = delta_from_cache(stencil_weights(n), trace.cached_values, trace.h)
            assert recomputed == trace.deltas[n - 1]

    def test_failure_identifies_slot(self):
        def bad(t):
            if t >= 0.4:
                raise ValueError("out of domain")
            return t

        oracle = FunctionOracle(bad)
        with pytest.raises(OracleEvaluationError) as err:
            blend_partial_sums(oracle, 0.0, 0.1, 8)
        assert err.value.index == 4

    def test_degenerate_arguments_rejected(self):
        oracle = FunctionOracle(math.sin)
        with pytest.raises(ValueError):
            blend_partial_sums(oracle, 0.0, 0.0, 4)
        with pytest.raises(ValueError):
            blend_partial_sums(oracle, 0.0, -1e-3, 4)
        with pytest.raises(ValueError):
            blend_partial_sums(oracle, 0.0, 0.1, 0)
        with pytest.raises(OrderCapError):
            blend_partial_sums(oracle, 0.0, 0.1, ORDER_CAP + 1)

    def test_non_finite_values_yield_nan_deltas(self):
        oracle = FunctionOracle(lambda t: math.inf if t > 0.5 else t)
        trace = blend_partial_sums(oracle, 0.0, 0.1, 8)
        assert math.isnan(trace.deltas[-1])
        assert trace.deltas[0] == pytest.approx(1.0)


class TestParallelism:
    def test_parallel_matches_serial_bitwise(self):
        oracle_serial = FunctionOracle(lambda t: math.sin(t) * math.exp(-t), parallel_safe=True)
        oracle_parallel = FunctionOracle(lambda t: math.sin(t) * math.exp(-t), parallel_safe=True)
        serial = blend_partial_sums(oracle_serial, 0.2, 0.03, 12, max_workers=0)
        parallel = blend_partial_sums(oracle_parallel, 0.2, 0.03, 12, max_workers=4)
        assert serial.deltas == parallel.deltas
        assert serial.cached_values == parallel.cached_values
        assert oracle_parallel.eval_count == 13

    def test_unsafe_oracle_evaluated_sequentially(self):
        order: list[int] = []
        lock = threading.Lock()

        def fn(t):
            with lock:
                order.append(round(t / 0.1))
            return t

        oracle = FunctionOracle(fn, parallel_safe=False)
        blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=8)
        assert order == sorted(order)

    def test_parallel_failure_reports_lowest_slot(self):
        def bad(t):
            if t >= 0.3:
                raise RuntimeError("nope")
            return t

        oracle = FunctionOracle(bad, parallel_safe=True)
        with pytest.raises(OracleEvaluationError) as err:
            blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=4)
        assert err.value.index == 3

    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.setenv("BLEND_THREADS", "notanumber")
        oracle = FunctionOracle(math.sin, parallel_safe=True)
        with pytest.raises(ValueError, match="BLEND_THREADS"):
            blend_partial_sums(oracle, 0.0, 0.1, 2)
        monkeypatch.setenv("BLEND_THREADS", "4")
        trace = blend_partial_sums(oracle, 0.0, 0.1, 2)
        assert len(trace.deltas) == 2
