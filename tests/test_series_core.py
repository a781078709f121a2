"""Tests for stencil weights, operator powers and partial-sum traces."""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blend
from blend import (
    ORDER_CAP,
    BlendConfig,
    FunctionOracle,
    GrowthEnvelope,
    OracleEvaluationError,
    OrderCapError,
    PartialSumTrace,
    StencilWeights,
    TandemQueueModel,
    blend_partial_sums,
    delta_from_cache,
    exp_density,
    operator_power,
    remainder_bound,
    run_blend,
    solve_k_exact_h,
    stencil_weights,
)
from blend.reference_tables import generate_table
from blend.series_core import _rounding_floor


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


class TestStepType:
    # bool is an int subclass and float() parses a string, yet neither is a
    # step (nor the parameter x of exp_density): each is refused up front,
    # and so is an int or a rational beyond the float range, on which
    # float() raises OverflowError.
    @pytest.mark.parametrize(
        "value",
        [True, "0.1", 10**400, -(10**400), Fraction(10**400)],
        ids=["bool", "str", "int_beyond_range", "negative_int_beyond_range", "Fraction_beyond_range"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda h: blend_partial_sums(FunctionOracle(math.sin), 0.0, h, 4),
            lambda h: operator_power(FunctionOracle(math.sin), 0.0, h, 2),
            lambda h: delta_from_cache(stencil_weights(4), [0.0] * 5, h),
            lambda h: remainder_bound(GrowthEnvelope(1.0, 1.0), 4, h),
            exp_density,
        ],
        ids=["blend_partial_sums", "operator_power", "delta_from_cache", "remainder_bound", "exp_density"],
    )
    def test_bool_and_str_are_refused(self, call, value):
        with pytest.raises(ValueError, match=re.escape(f"must be a positive finite real, got {value!r}")):
            call(value)


class TestRealRule:
    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "call,message",
        [
            (BlendConfig, "h0 must be a positive finite real"),
            (lambda v: GrowthEnvelope(v, 1.0), "envelope magnitude must be a positive finite real"),
            (lambda v: TandemQueueModel(v, 1.0, 2.0, 3, 3), "arrival_rate must be a finite real >= 0"),
            (exp_density, "x must be a positive finite real"),
        ],
        ids=["h0", "magnitude", "arrival_rate", "x"],
    )
    def test_an_int_beyond_the_float_range_is_refused(self, call, message, value):
        # float() raises OverflowError on such an int; the rule refuses it as not finite.
        with pytest.raises(ValueError) as error:
            call(value)
        assert str(error.value) == f"{message}, got {value!r}"


class TestThetaRange:
    # theta + k*h raises OverflowError for an int or a rational theta beyond
    # the float range; each entry point refuses such a theta by name, before
    # any evaluation.
    @pytest.mark.parametrize("theta", [10**400, -(10**400), Fraction(10**400)], ids=["int", "negative_int", "Fraction"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda oracle, theta: run_blend(oracle, theta, BlendConfig(h0=1.0)),
            lambda oracle, theta: blend_partial_sums(oracle, theta, 1.0, 4),
            lambda oracle, theta: operator_power(oracle, theta, 1.0, 2),
        ],
        ids=["run_blend", "blend_partial_sums", "operator_power"],
    )
    def test_theta_beyond_the_float_range_is_refused(self, call, theta):
        oracle = FunctionOracle(lambda t: t)
        with pytest.raises(ValueError) as error:
            call(oracle, theta)
        assert str(error.value) == f"theta must lie within the float range, got {theta!r}"
        assert oracle.eval_count == 0


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


def _reference_power(n: int, values):
    """(J - T_h)^n from the grid: the integer row's exact sum against a float grid, rounded once; Neumaier otherwise."""
    values = list(values[: n + 1])
    row = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    if any(type(v) is float and not math.isfinite(v) for v in values):
        return math.nan
    if all(type(v) is float for v in values):
        try:
            return float(sum(c * Fraction(v) for c, v in zip(row, values)))
        except OverflowError:  # the exact sum lies beyond the float range
            return math.nan
    return _reference_neumaier(c * v for c, v in zip(row, values))


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
    @example(values=[5e-324 if k % 2 == 0 else 1.7e308 for k in range(ORDER_CAP + 1)], h=0.1)  # 2098-bit fixed-point integers
    @example(values=[math.nan if k == 30 else math.sin(0.1 * k) for k in range(ORDER_CAP + 1)], h=0.1)  # orders 1-29 exact in integers, 30-40 NaN
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

        # The table raises what the first failing order raises, if any order does.
        failure = next((e for e in expected if isinstance(e, tuple)), None)
        assert _outcome(sweep) == (failure or [bits for (bits,) in expected])

        # operator_power reduces its integer binomial row through the same kernel.
        oracle = FunctionOracle(math.sin)
        powers = [_outcome(lambda n=n: [operator_power(oracle, 0.0, h, n, cache=values)]) for n in orders]
        assert powers == [_outcome(lambda n=n: [_reference_power(n, values)]) for n in orders]
        assert oracle.eval_count == 0

    def test_custom_row_is_reduced_as_given(self):
        # delta_from_cache reduces the row it is handed, not the cached row of its order.
        values = [math.exp(0.1 * k) for k in range(5)]
        row = StencilWeights(order_n=4, weights=(1.0, -4.0, 6.0, -4.0, 1.0), exact=())
        expected = -operator_power(FunctionOracle(math.exp), 0.0, 0.1, 4, cache=values) / 0.1
        assert delta_from_cache(row, values, 0.1) == expected
        assert expected != delta_from_cache(stencil_weights(4), values, 0.1)

    def test_cached_row_and_its_copy_give_the_same_bits(self):
        # The cached row of each order takes its cached fixed-point form; an
        # equal row built by hand is converted on the call, to the same sum.
        rng = random.Random(290)
        for n in range(1, ORDER_CAP + 1):
            cached = stencil_weights(n)
            copy = StencilWeights(order_n=n, weights=cached.weights, exact=cached.exact)
            values = [rng.uniform(-10.0, 10.0) * 10.0 ** rng.uniform(-300, 300) for _ in range(n + 1)]
            h = 10.0 ** rng.uniform(-8, 0)
            assert repr(delta_from_cache(cached, values, h)) == repr(delta_from_cache(copy, values, h))

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


def _reference_floor(trace: PartialSumTrace, last: float) -> float:
    """u * sum_k |w_k| * |f_k| and u * sum_k |w_k| * |theta + k*h|, each exact and rounded once, then combined in floats."""
    n = len(trace.cached_values) - 1
    magnitudes = [Fraction(abs(w)) for w in stencil_weights(n).weights]

    def rounded(xs) -> float:
        if not all(map(math.isfinite, xs)):
            return math.nan
        try:
            return float(sum(w * Fraction(abs(x)) for w, x in zip(magnitudes, xs)))
        except OverflowError:  # the exact sum lies beyond the float range
            return math.nan

    values = 2.0**-53 * rounded(trace.cached_values)
    points = 2.0**-53 * rounded([trace.theta + k * trace.h for k in range(n + 1)])
    return (values + points * abs(last)) / trace.h


class TestRoundingFloor:
    def test_matches_exact_reference(self):
        rng = random.Random(28)

        def value() -> float:
            kind = rng.random()
            if kind < 0.4:
                return math.sin(rng.uniform(-4.0, 4.0))
            if kind < 0.75:
                return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 290.0)
            if kind < 0.98:
                return rng.choice((-1.0, 1.0)) * 5e-324 * rng.randrange(1, 1 << 40)  # subnormal
            return rng.choice((-1.0, 1.0)) * rng.choice((1e300, 1e-300, 1.7e308))

        for _ in range(600):
            n = rng.randint(2, 40)
            grid = [value() for _ in range(n + 1)]
            if rng.random() < 0.1:
                grid[rng.randrange(n + 1)] = math.nan
            # theta = 1e308 takes points, and the sum over them, past the float range.
            theta = 1e308 if rng.random() < 0.1 else rng.choice((rng.uniform(-3.0, 3.0), value()))
            h = 10.0 ** rng.choice((rng.uniform(-8.0, 0.0), rng.uniform(-300.0, 290.0)))
            trace, last = PartialSumTrace(theta=theta, h=h, cached_values=tuple(grid)), value()
            assert _outcome(lambda: [_rounding_floor(trace, last)]) == _outcome(lambda: [_reference_floor(trace, last)]), (trace, last)


def _trace_of(values, h: float) -> PartialSumTrace:
    slots = iter(values)
    return blend_partial_sums(FunctionOracle(lambda t: next(slots)), 0.0, h, len(values) - 1)


def _last_two(trace: PartialSumTrace) -> tuple:
    """(Delta(N-1), Delta(N)) at the trace's top order N, or (Delta(1),) at N = 1, read through ``_delta``."""
    n = len(trace.cached_values) - 1
    return tuple(trace._delta(k) for k in range(max(n - 1, 1), n + 1))


class TestLazyDeltas:
    """Each order of a trace is summed on its first read; ``deltas`` and the driver's last two share the sums."""

    def test_matches_delta_from_cache_and_the_last_two(self):
        rng = random.Random(30)

        def value():
            kind = rng.random()
            if kind < 0.3:
                return math.sin(rng.uniform(-4.0, 4.0))
            if kind < 0.4:
                return rng.choice((0.0, -0.0))
            if kind < 0.55:
                return rng.choice((-1.0, 1.0)) * 5e-324 * rng.randrange(1, 1 << 40)  # subnormal
            if kind < 0.7:
                return rng.choice((-1.0, 1.0)) * rng.uniform(1e307, 1.79e308)
            if kind < 0.75:
                return rng.choice((math.nan, math.inf, -math.inf))
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)

        for i in range(400):
            n = rng.randint(1, ORDER_CAP)
            if i % 8 == 0:
                values = [Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9)) for _ in range(n + 1)]
            else:
                values = [value() for _ in range(n + 1)]
            h = 10.0 ** rng.uniform(-8.0, 2.0)
            expected = [delta_from_cache(stencil_weights(k), values, h) for k in range(1, n + 1)]
            # The table read alone, and after the last two were summed.
            for last_first in (False, True):
                trace = _trace_of(values, h)
                last = _outcome(lambda: _last_two(trace)) if last_first else None
                deltas = trace.deltas
                assert _outcome(lambda: deltas) == _outcome(lambda: expected), (values, h)
                assert list(map(type, deltas)) == list(map(type, expected))
                assert _outcome(lambda: _last_two(trace)) == _outcome(lambda: deltas[-2:])
                if last_first:
                    assert last == _outcome(lambda: deltas[-2:])

    def test_run_blend_sums_the_table_only_when_it_is_read(self, monkeypatch):
        # The orders of the stencil-row sums: each _dot whose row is the cached
        # fixed-point row of its order (the floor's row has its signs dropped).
        orders = []
        fixed_row, dot = blend.series_core._fixed_row, blend.series_core._dot

        def counted(point, row):
            if row is fixed_row(len(row[0]) - 1):
                orders.append(len(row[0]) - 1)
            return dot(point, row)

        monkeypatch.setattr(blend.series_core, "_dot", counted)
        report = run_blend(FunctionOracle(math.sin), 0.7, BlendConfig(h0=1.0, n_max=12, min_agree_digits=12))
        assert report.refinements > 0
        value = report.value
        assert orders == [11, 12] * (report.refinements + 1)  # two rows per attempt, none more
        orders.clear()
        deltas = report.trace.deltas
        assert orders == list(range(1, 11))  # orders 1..N_max-2: the last two were summed by the run
        assert report.trace.deltas is deltas and deltas[-1] == value and orders == list(range(1, 11))
        orders.clear()
        trace = blend_partial_sums(FunctionOracle(math.sin), 0.7, 0.1, 12)
        assert trace.deltas and orders == list(range(1, 13))
        assert _last_two(trace) == trace.deltas[-2:] and orders == list(range(1, 13))  # read from the table
        orders.clear()
        trace = blend_partial_sums(FunctionOracle(math.sin), 0.7, 0.1, 12)
        assert not orders  # the grid is evaluated, and nothing is summed
        inner = trace._delta(5)
        assert orders == [5] and trace._delta(5) is inner and orders == [5]
        deltas = trace.deltas
        assert deltas[4] is inner and orders == [5, 1, 2, 3, 4, *range(6, 13)]  # each order once
        assert _last_two(trace) == deltas[-2:] and sorted(orders) == list(range(1, 13))

    def test_threads_reading_one_trace_get_one_tuple(self):
        values = [math.sin(0.1 * k) for k in range(ORDER_CAP + 1)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                trace = _trace_of(values, 0.1)
                barrier = threading.Barrier(8)
                tables, lasts = [], []

                def read(i):
                    barrier.wait(5)
                    (tables if i % 2 else lasts).append(trace.deltas if i % 2 else _last_two(trace))

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(tables) == len(lasts) == 4
                assert all(table is tables[0] for table in tables) and trace.deltas is tables[0]
                assert all(last == tables[0][-2:] and last[-1] is tables[0][-1] for last in lasts)
        finally:
            sys.setswitchinterval(previous)


class _Float(float):
    """A float subclass defined here; ``numpy.float64`` is another."""


class TestFloatSubclasses:
    """A grid of float subclasses takes the float path: the bits, and the type float, of a grid of plain floats."""

    def test_sums_match_a_plain_float_grid(self):
        h, n = 0.01, 12
        plain = [math.sin(0.7 + k * h) for k in range(n + 1)]
        expected = _trace_of(plain, h).deltas
        for grid in ([_Float(v) for v in plain], [np.float64(v) for v in plain]):
            deltas = _trace_of(grid, h).deltas
            assert _outcome(lambda: deltas) == _outcome(lambda: expected) and {type(d) for d in deltas} == {float}
            for k in range(1, n + 1):
                got, want = (delta_from_cache(stencil_weights(k), values, h) for values in (grid, plain))
                assert got.hex() == want.hex() and type(got) is float, k
            got, want = (operator_power(None, 0.7, h, n, cache=values) for values in (grid, plain))
            assert got.hex() == want.hex() and type(got) is float

    @pytest.mark.parametrize("n_max", [8, 12])
    def test_run_blend_matches_a_plain_float_oracle(self, n_max):
        def numpy_sin(points):
            return np.sin(np.array(points))

        oracles = [
            FunctionOracle(lambda t: _Float(math.sin(t))),
            FunctionOracle(math.sin),
            FunctionOracle(np.sin, batch=numpy_sin),
            FunctionOracle(np.sin, batch=lambda points: numpy_sin(points).tolist()),
        ]
        reports = [run_blend(oracle, 0.7, BlendConfig(h0=0.1, n_max=n_max)) for oracle in oracles]
        for report, plain in (reports[:2], reports[2:]):
            assert type(report.value) is float and report.value.hex() == plain.value.hex()
            assert (report.agreed_digits, report.refinements, report.stabilized) == (
                plain.agreed_digits,
                plain.refinements,
                plain.stabilized,
            )
            assert report.trace.deltas == plain.trace.deltas


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

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_failure_claims_no_slot_after_it(self, workers):
        # Slot 3 fails while slot 0 is still under way, and each later slot
        # holds its thread until well after the failure.  Slot 0 must still
        # finish, and no slot may be claimed once slot 3 has failed: besides
        # slots 0-3, only a slot already under way on another thread counts.
        failed = threading.Event()
        calls = []

        def fn(t):
            k = round(t / 0.1)
            calls.append(k)
            if k == 0:
                failed.wait(5)
            elif k == 3:
                failed.set()
                raise RuntimeError("nope")
            elif k > 3:
                failed.wait(5)
                time.sleep(0.05)
            return t

        oracle = FunctionOracle(fn, parallel_safe=True)
        with pytest.raises(OracleEvaluationError) as err:
            blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=workers)
        assert err.value.index == 3
        assert {0, 1, 2, 3} <= set(calls)
        assert oracle.eval_count == len(calls) <= 3 + workers

    def test_calling_thread_evaluates_a_slot(self):
        threads = []

        def fn(t):
            threads.append(threading.current_thread())
            time.sleep(0.002)
            return t

        blend_partial_sums(FunctionOracle(fn, parallel_safe=True), 0.0, 0.1, 8, max_workers=2)
        assert len(threads) == 9
        assert threading.current_thread() in threads
        assert all(t is threading.current_thread() or t.name == "blend-grid" for t in threads)

    def test_worker_budget_is_an_integer_at_least_zero(self):
        # Checked before any evaluation and before any helper starts, through
        # both entry points; in a fresh process, since helpers persist.
        env = dict(os.environ, PYTHONPATH=str(Path(blend.__file__).resolve().parents[1]))
        code = (
            "import math, threading\n"
            "from blend import BlendConfig, FunctionOracle, blend_partial_sums, run_blend\n"
            "for workers in (2.5, True, '3', -1):\n"
            "    for run in (lambda o: blend_partial_sums(o, 0.3, 0.01, 8, max_workers=workers),\n"
            "                lambda o: run_blend(o, 0.3, BlendConfig(0.01), max_workers=workers)):\n"
            "        oracle = FunctionOracle(math.sin, parallel_safe=True)\n"
            "        try:\n"
            "            run(oracle)\n"
            "        except Exception as exc:\n"
            "            print(type(exc).__name__, exc, oracle.eval_count)\n"
            "        else:\n"
            "            print('ran', oracle.eval_count)\n"
            "print(sum(t.name == 'blend-grid' for t in threading.enumerate()))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        expected = [
            f"ValueError max_workers must be an integer >= 0, got {workers!r} 0"
            for workers in (2.5, True, "3", -1)
            for _ in range(2)
        ]
        assert proc.stdout.splitlines() == expected + ["0"]

    def test_helpers_persist_across_grids(self):
        oracle = FunctionOracle(math.sin, parallel_safe=True)
        warm = blend_partial_sums(oracle, 0.2, 0.03, 8, max_workers=4)
        count = threading.active_count()
        for _ in range(100):
            assert blend_partial_sums(oracle, 0.2, 0.03, 8, max_workers=4) == warm
        assert threading.active_count() == count
        helpers = [t for t in threading.enumerate() if t.name == "blend-grid"]
        assert 3 <= len(helpers) <= ORDER_CAP and all(t.daemon for t in helpers)

    def test_concurrent_grids_under_a_short_switch_interval(self):
        # Eight callers share the helpers; a lost claim or a slot evaluated
        # twice would break a grid's values or the exact evaluation count.
        expected = blend_partial_sums(FunctionOracle(math.sin), 0.2, 0.03, 8, max_workers=0)
        oracle = FunctionOracle(math.sin, parallel_safe=True)
        mismatches = []

        def caller():
            for _ in range(50):
                if blend_partial_sums(oracle, 0.2, 0.03, 8, max_workers=8) != expected:
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, daemon=True) for _ in range(8)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert not mismatches and oracle.eval_count == 8 * 50 * 9

    def test_nested_parallel_grid_matches_serial(self):
        # Each outer value is itself a parallel grid's last partial sum, so
        # helpers evaluating outer slots start inner grids of their own.
        def outer(workers):
            def fn(t):
                inner = FunctionOracle(lambda u: (time.sleep(0.001), math.sin(u))[1], parallel_safe=True)
                return blend_partial_sums(inner, t, 0.01, 6, max_workers=workers).deltas[-1]

            return blend_partial_sums(FunctionOracle(fn, parallel_safe=True), 0.3, 0.02, 6, max_workers=workers)

        result = {}
        runner = threading.Thread(target=lambda: result.update(trace=outer(4)), daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "nested parallel grid did not finish"
        assert result["trace"] == outer(0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_helpers(self):
        oracle = FunctionOracle(lambda t: (time.sleep(0.001), math.sin(t))[1], parallel_safe=True)
        expected = blend_partial_sums(oracle, 0.2, 0.03, 8, max_workers=4)
        pid = os.fork()
        if pid == 0:
            # The parent's helpers do not exist here; the child's first grid starts three.
            code = 1
            try:
                same = blend_partial_sums(oracle, 0.2, 0.03, 8, max_workers=4) == expected
                code = 0 if same and len([t for t in threading.enumerate() if t.name == "blend-grid"]) == 3 else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_interrupt_in_calling_thread_stops_claims(self):
        caller = threading.current_thread()
        helper_started, release = threading.Event(), threading.Event()
        calls = []

        def fn(t):
            calls.append(round(t / 0.1))
            if threading.current_thread() is caller:
                helper_started.wait(5)
                raise KeyboardInterrupt
            helper_started.set()
            release.wait(5)
            return t

        oracle = FunctionOracle(fn, parallel_safe=True)
        with pytest.raises(KeyboardInterrupt):
            blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=2)
        assert oracle.eval_count == 2
        # The helper finishes its slot, then claims no other.
        release.set()
        time.sleep(0.05)
        assert oracle.eval_count == 2 and sorted(calls) == [0, 1]

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
        # point by point up to the failing slot; a threaded replay may also
        # have one later slot under way on each other thread.
        assert 9 + 4 <= oracle.eval_count <= 9 + 3 + max(workers, 1)

    @pytest.mark.parametrize("workers", [0, 4])
    def test_broken_batch_is_reported(self, workers):
        # No slot fails point by point, so the batch's own error stands.
        oracle = FunctionOracle(math.sin, parallel_safe=True, batch=lambda points: [math.sin(p) for p in points[1:]])
        with pytest.raises(ValueError, match="8 values for 9 points"):
            blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=workers)
        assert oracle.eval_count == 18

    def test_library_reads_no_environment(self, monkeypatch):
        # max_workers is the library's only worker budget: None is a serial
        # grid whatever BLEND_THREADS says, which only the command line reads.
        posted = []
        monkeypatch.setattr(blend.series_core, "_post", lambda grid, seats: posted.append(seats))
        oracle = FunctionOracle(math.sin, parallel_safe=True)
        calls = (
            lambda: blend_partial_sums(oracle, 0.0, 0.1, 8),
            lambda: run_blend(oracle, 0.0, BlendConfig(h0=1.0)),
            lambda: operator_power(oracle, 0.0, 0.1, 8),
            lambda: generate_table(1),
        )
        for value in ("notanumber", "4"):
            monkeypatch.setenv("BLEND_THREADS", value)
            for call in calls:
                call()
        assert posted == []
        # An explicit budget still takes helpers.
        blend_partial_sums(oracle, 0.0, 0.1, 8, max_workers=4)
        assert posted == [3]
