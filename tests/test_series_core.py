"""Tests for stencil weights, operator powers and partial-sum traces."""

from __future__ import annotations

import math
import threading
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blend import (
    ORDER_CAP,
    FunctionOracle,
    GrowthEnvelope,
    OracleEvaluationError,
    OrderCapError,
    StencilWeights,
    blend_partial_sums,
    delta_from_cache,
    operator_power,
    solve_k_exact_h,
    stencil_weights,
)


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
        power = operator_power(oracle, 5.0, 0.1, 3)
        # scale of the alternating sum before cancellation
        scale = sum(math.comb(3, k) * abs((5.0 + 0.1 * k) ** 2) for k in range(4))
        assert abs(power) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40])
    def test_constant_function_is_exactly_zero(self, n):
        oracle = FunctionOracle(lambda t: 1.2345678912345e8)
        assert operator_power(oracle, 0.3, 0.05, n) == 0.0

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
        assert cached == direct

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

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 20, 40])
    @pytest.mark.parametrize("c, h", [(math.sin(1.0), 0.1), (1.2345678912345e8, 0.05), (-3.0, 1e-4)])
    def test_constant_function_sits_at_the_rounding_of_the_row(self, n, c, h):
        # The float row is the rounded rational row, and its sum is rarely
        # exactly 0: Delta(N) of a constant is bounded by u * sum|w_k| * |c| / h
        # and is 0 only for the orders whose float row sums to 0.
        weights = stencil_weights(n).weights
        delta = delta_from_cache(stencil_weights(n), [c] * (n + 1), h)
        assert abs(delta) <= 2.0**-53 * math.fsum(abs(w) for w in weights) * abs(c) / h * (1 + 1e-9)
        assert (delta == 0.0) == (math.fsum(weights) == 0.0)

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

    def test_multi_precision_grid_takes_the_exact_row(self):
        # Sum|w_40| / h is about 3e11, so the float row's rounding alone would
        # leave an error near 1e-5 however precise the grid is.
        plan = solve_k_exact_h(GrowthEnvelope(1.0, 1.0), 40, 14)
        with mp.workdps(40):
            theta = mp.mpf("0.7")
            trace = blend_partial_sums(FunctionOracle(mp.sin), theta, mp.mpf(plan.h), 40)
            assert abs(trace.deltas[-1] - mp.cos(theta)) < 1e-25

    def test_non_finite_values_yield_nan_deltas(self):
        oracle = FunctionOracle(lambda t: math.inf if t > 0.5 else t)
        trace = blend_partial_sums(oracle, 0.0, 0.1, 8)
        assert math.isnan(trace.deltas[-1])
        assert trace.deltas[0] == pytest.approx(1.0)


def _reference_neumaier(terms):
    total = comp = None
    for v in terms:
        if total is None:
            total, comp = v, v - v
            continue
        t = total + v
        if abs(total) >= abs(v):
            comp = comp + ((total - t) + v)
        else:
            comp = comp + ((v - t) + total)
        total = t
    return 0.0 if total is None else total + comp


def _reference_delta(n: int, values, h: float) -> float:
    """Delta(N, h): the float row's exact sum against a float grid, rounded once; the exact row otherwise."""
    values = list(values[: n + 1])
    if any(type(v) is float and not math.isfinite(v) for v in values):
        return math.nan
    if all(type(v) is float for v in values):
        total = sum(Fraction(w) * Fraction(v) for w, v in zip(stencil_weights(n).weights, values))
        try:
            return -float(total) / h
        except OverflowError:  # the exact sum lies beyond the float range
            return math.nan
    return -_reference_neumaier(w * v for w, v in zip(stencil_weights(n).exact, values)) / h


def _outcome(fn):
    """Bits of each float that ``fn`` returns (one token for every NaN), or the exception raised."""
    try:
        result = fn()
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return ["nan" if math.isnan(v) else float(v).hex() for v in result]


_GRIDS = st.one_of(
    st.lists(st.one_of(st.floats(), st.floats(-10.0, 10.0)), min_size=2, max_size=ORDER_CAP + 1),
    # constant and near-constant grids, where the row's rounding is all that is left
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False), st.integers(1, ORDER_CAP), st.floats(-1e-12, 1e-12)
    ).map(lambda t: [t[0] * (1.0 + t[2] * (k % 2)) for k in range(t[1] + 1)]),
)


class TestExactReduction:
    """Every float partial sum is the correctly rounded exact sum of the float products."""

    @given(values=_GRIDS, h=st.floats(1e-8, 10.0))
    @example(values=[1.0, 1e300, 2.0, -1e300], h=0.1)
    @example(values=[0.5, 1.5e300, 0.25], h=0.1)  # above 2**1023 / (2**27 + 1): a Veltkamp split would overflow
    @example(values=[1e299 * (1.0 + 0.01 * k) for k in range(ORDER_CAP + 1)], h=0.1)  # w_k * v overflows, the sum does not
    @example(values=[1e300 * (-1) ** k for k in range(33)], h=0.1)  # sum past the float range
    @example(values=[5e-324, -0.0, 2.2250738585072014e-308, 0.0, -5e-324, 1e-310], h=1e-3)
    @example(values=[0.1, 0.2, 0.3, math.inf, 0.5, 0.6], h=0.1)
    @example(values=[0.1, 0.2, math.nan, 0.4, 0.5], h=0.1)
    @example(values=[k * k for k in range(ORDER_CAP + 1)], h=0.5)
    @example(values=[Fraction(k * k, 3) for k in range(7)], h=0.25)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_reference(self, values, h):
        n_max = len(values) - 1
        orders = range(1, n_max + 1)
        expected = [_outcome(lambda n=n: [_reference_delta(n, values, h)]) for n in orders]
        plain = [_outcome(lambda n=n: [delta_from_cache(stencil_weights(n), values, h)]) for n in orders]
        assert plain == expected

        def sweep():
            slots = iter(values)
            return blend_partial_sums(FunctionOracle(lambda t: next(slots)), 0.0, h, n_max).deltas

        # The sweep raises what the first failing order raises, if any order does.
        failure = next((e for e in expected if isinstance(e, tuple)), None)
        assert _outcome(sweep) == (failure or [bits for (bits,) in expected])

    def test_custom_row_is_reduced_as_given(self):
        # delta_from_cache reduces the row it is handed, not the cached row of its order.
        values = [math.exp(0.1 * k) for k in range(5)]
        row = StencilWeights(order_n=4, weights=(1.0, -4.0, 6.0, -4.0, 1.0), exact=())
        expected = -operator_power(FunctionOracle(math.exp), 0.0, 0.1, 4, cache=values) / 0.1
        assert delta_from_cache(row, values, 0.1) == expected
        assert expected != delta_from_cache(stencil_weights(4), values, 0.1)

    def test_overflowing_products_leave_every_order_finite(self):
        trace = blend_partial_sums(FunctionOracle(lambda t: 1e299 * t), 1.0, 0.01, ORDER_CAP)
        assert all(math.isfinite(d) for d in trace.deltas)
        assert trace.deltas[0] == pytest.approx(1e299, rel=1e-12)

    def test_non_finite_slot_poisons_only_the_orders_that_reach_it(self):
        for bad in (math.inf, -math.inf, math.nan):
            values = [math.sin(0.1 * k) for k in range(9)]
            values[4] = bad
            trace = blend_partial_sums(FunctionOracle(lambda t, it=iter(values): next(it)), 0.0, 0.1, 8)
            assert all(math.isfinite(d) for d in trace.deltas[:3])
            assert all(math.isnan(d) for d in trace.deltas[3:])


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

    def test_parallel_failure_still_evaluates_every_slot(self):
        # Slot 1 fails at once while later slots are slow, so slots are still
        # queued when the failure is read; none of them may be dropped.
        def slow_after_failure(t):
            k = round(t / 0.1)
            if k == 1:
                raise RuntimeError("nope")
            if k > 1:
                time.sleep(0.02)
            return t

        oracle = FunctionOracle(slow_after_failure, parallel_safe=True)
        with pytest.raises(OracleEvaluationError) as err:
            blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=2)
        assert err.value.index == 1
        assert oracle.eval_count == 9

    @pytest.mark.parametrize("workers", [0, 4])
    def test_batched_oracle_takes_the_grid_in_one_call(self, workers):
        calls = []

        def batch(points):
            calls.append(points)
            return [math.sin(p) for p in points]

        batched = FunctionOracle(lambda t: pytest.fail("fn called"), parallel_safe=True, batch=batch)
        plain = FunctionOracle(math.sin, parallel_safe=True)
        trace = blend_partial_sums(batched, 0.2, 0.03, 12, max_workers=workers)
        assert calls == [[0.2 + k * 0.03 for k in range(13)]]
        assert trace == blend_partial_sums(plain, 0.2, 0.03, 12, max_workers=0)
        assert batched.eval_count == 13

    @pytest.mark.parametrize("workers", [0, 4])
    def test_failed_batch_reports_lowest_failing_slot(self, workers):
        def fn(t):
            if t >= 0.3:
                raise RuntimeError("nope")
            return t

        def batch(points):
            raise RuntimeError("batch down")

        oracle = FunctionOracle(fn, parallel_safe=True, batch=batch, name="box")
        with pytest.raises(OracleEvaluationError, match=r"box failed at grid point theta \+ 3\*h = 0\.30000000000000004: nope") as err:
            blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=workers)
        assert err.value.index == 3
        # The failed batch counts all nine points, then the grid runs again
        # point by point: serially up to the failing slot, pooled to the end.
        assert oracle.eval_count == 9 + (4 if workers == 0 else 9)

    @pytest.mark.parametrize("workers", [0, 4])
    def test_broken_batch_is_reported(self, workers):
        # No slot fails point by point, so the batch's own error stands.
        oracle = FunctionOracle(math.sin, parallel_safe=True, batch=lambda points: [math.sin(p) for p in points[1:]])
        with pytest.raises(ValueError, match="8 values for 9 points"):
            blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=workers)
        assert oracle.eval_count == 18

    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.setenv("BLEND_THREADS", "notanumber")
        oracle = FunctionOracle(math.sin, parallel_safe=True)
        with pytest.raises(ValueError, match="BLEND_THREADS"):
            blend_partial_sums(oracle, 0.0, 0.1, 2)
        monkeypatch.setenv("BLEND_THREADS", "4")
        trace = blend_partial_sums(oracle, 0.0, 0.1, 2)
        assert len(trace.deltas) == 2
