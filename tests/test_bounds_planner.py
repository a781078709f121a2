"""Tests for the remainder bounds and the digit-exact step solver."""

from __future__ import annotations

import math
import random
import re
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blend import (
    BOUND_FORMULAS,
    FunctionOracle,
    GrowthEnvelope,
    h_domain,
    operator_power,
    remainder_bound,
    solve_k_exact_h,
)
from blend import bounds_planner
from lemma_references import operator_power_bound


class TestEnvelope:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GrowthEnvelope(0.0, 1.0)
        with pytest.raises(ValueError):
            GrowthEnvelope(1.0, -2.0)
        with pytest.raises(ValueError):
            GrowthEnvelope(math.inf, 1.0)

    def test_rejects_bools(self):
        # True == 1 would otherwise pass as a magnitude or growth of 1.0.
        with pytest.raises(ValueError, match="envelope magnitude must be a positive finite real, got True"):
            GrowthEnvelope(True, 1.0)
        with pytest.raises(ValueError, match="envelope growth must be a positive finite real, got True"):
            GrowthEnvelope(1, True)
        assert GrowthEnvelope(1, 1) == GrowthEnvelope(1.0, 1.0)

    def test_rejects_growth_whose_domain_is_empty(self):
        # 2*b*e overflows, so h_domain would be 1/inf = 0.0.
        for growth in (1e308, sys.float_info.max / (2.0 * math.e) * 1.0000001):
            with pytest.raises(ValueError, match=re.escape(f"growth {growth!r} is too large")):
                GrowthEnvelope(1.0, growth)
        largest = GrowthEnvelope(1.0, 3e307)
        assert h_domain(largest) == 1.0 / (2.0 * 3e307 * math.e) > 0.0

    def test_rejects_growth_whose_domain_has_no_finite_edge(self):
        # 2*b*e is subnormal, so h_domain would be 1/(2*b*e) = inf, and a
        # step solve would start its bisection at an infinite step.
        for growth in (1e-309, 5e-324):
            with pytest.raises(ValueError, match=re.escape(f"growth {growth!r} is too small")):
                GrowthEnvelope(1.0, growth)
        smallest = GrowthEnvelope(1.0, 1.03e-309)
        assert 0.0 < solve_k_exact_h(smallest, 4, 6).h < h_domain(smallest) < math.inf


class TestHDomain:
    def test_unit_envelope(self):
        assert h_domain(GrowthEnvelope(1.0, 1.0)) == pytest.approx(0.1839397205857212, rel=1e-14)

    def test_example_growth(self):
        assert h_domain(GrowthEnvelope(120.0, 2.4)) == pytest.approx(1.0 / (4.8 * math.e), rel=1e-15)

    @given(b=st.floats(1e-6, 1e6), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, b, scale):
        one = h_domain(GrowthEnvelope(1.0, b))
        scaled = h_domain(GrowthEnvelope(1.0, b * scale))
        assert scaled == pytest.approx(one / scale, rel=1e-12)


class TestRemainderBound:
    def test_frozen_value_unit_envelope(self):
        # Direct high-precision evaluation of the provable bound display
        # M/(sqrt(2*pi)*(N+1)^1.5*h) * x^(N+1)/(1-x), x = 2*h*b*e:
        with mp.workdps(40):
            h = mp.mpf("0.01")
            x = 2 * h * mp.e
            expected = float(
                1 / (mp.sqrt(2 * mp.pi) * mp.mpf(9) ** mp.mpf("1.5") * h) * x**9 / (1 - x)
            )
        bound = remainder_bound(GrowthEnvelope(1.0, 1.0), 8, 0.01)
        assert bound == pytest.approx(expected, rel=1e-13)
        assert bound == pytest.approx(6.4825e-12, rel=1e-4)

    def test_printed_form_value(self):
        # The h-less printed display, reachable through the "eq12" selector
        # family, solves the classical worked example; its value at the same
        # point differs from the provable bound by (N+1)^1.5 * h / 2^((N+1)/2).
        lemma2 = remainder_bound(GrowthEnvelope(1.0, 1.0), 8, 0.01)
        eq12 = remainder_bound(GrowthEnvelope(1.0, 1.0), 8, 0.01, "eq12")
        assert eq12 == pytest.approx(lemma2 * 27.0 * 0.01 / 2.0**4.5, rel=1e-12)

    def test_invalid_at_and_beyond_limit(self):
        envelope = GrowthEnvelope(1.0, 1.0)
        limit = h_domain(envelope)
        assert remainder_bound(envelope, 3, limit) == math.inf
        assert remainder_bound(envelope, 3, 2.0 * limit) == math.inf
        assert math.isfinite(remainder_bound(envelope, 3, limit * (1 - 1e-12)))

    def test_strictly_decreasing_in_order(self):
        envelope = GrowthEnvelope(2.0, 1.5)
        bounds = [remainder_bound(envelope, n, 0.01) for n in range(1, 13)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_strictly_increasing_in_step(self):
        envelope = GrowthEnvelope(2.0, 1.5)
        limit = h_domain(envelope)
        steps = [limit * f for f in (0.05, 0.1, 0.2, 0.4, 0.8, 0.95)]
        bounds = [remainder_bound(envelope, 4, h) for h in steps]
        assert all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_formula_selector(self):
        envelope = GrowthEnvelope(1.0, 1.0)
        lemma2 = remainder_bound(envelope, 2, 0.01, "lemma2")
        eq12 = remainder_bound(envelope, 2, 0.01, "eq12")
        # selector swaps (N+1)^1.5 * h for 2^((N+1)/2)
        assert eq12 == pytest.approx(lemma2 * 3**1.5 * 0.01 / 2**1.5, rel=1e-12)
        with pytest.raises(ValueError):
            remainder_bound(envelope, 2, 0.01, "other")

    def test_never_nan(self):
        # At the extremes M/h overflows while x**(N+1) underflows, and the
        # direct product is inf * 0.  Inside or outside the domain, the bound
        # must be a number: finite, or inf.
        for magnitude in (1e-300, 1.0, 1e200, 1.7e308):
            for growth in (1e-300, 1.0, 1e120, 1e300):
                envelope = GrowthEnvelope(magnitude, growth)
                limit = h_domain(envelope)
                steps = (5e-324, 1e-300, 1e-150, limit * 1e-12, 0.5 * limit, 0.99 * limit, limit, 1e308)
                for n in (1, 2, 10, 40):
                    for h in steps:
                        for formula in BOUND_FORMULAS:
                            bound = remainder_bound(envelope, n, h, formula)
                            assert bound >= 0.0, (magnitude, growth, n, h, formula, bound)

    def test_overflowing_prefactor_matches_high_precision(self):
        # M/h overflows and x**11 underflows in doubles; the logarithmic
        # evaluation must still give the bound's value.
        h = 6.126919120770377e-154
        with mp.workdps(40):
            hm = mp.mpf(h)
            x = 2 * hm * mp.mpf(1e120) * mp.e
            expected = float(mp.mpf(1e200) / (mp.sqrt(2 * mp.pi) * mp.mpf(11) ** mp.mpf("1.5") * hm) * x**11 / (1 - x))
        assert remainder_bound(GrowthEnvelope(1e200, 1e120), 10, h) == pytest.approx(expected, rel=1e-11)

    def test_bad_arguments(self):
        envelope = GrowthEnvelope(1.0, 1.0)
        with pytest.raises(ValueError):
            remainder_bound(envelope, 0, 0.01)
        with pytest.raises(ValueError):
            remainder_bound(envelope, 2, 0.0)


class TestOperatorPowerBound:
    def test_frozen_value(self):
        assert operator_power_bound(GrowthEnvelope(1.0, 1.0), 1, 0.1) == pytest.approx(
            0.2 * math.e / math.sqrt(2 * math.pi), rel=1e-14
        )

    def test_zero_step(self):
        assert operator_power_bound(GrowthEnvelope(1.0, 1.0), 3, 0.0) == 0.0

    def test_float_path_domination_for_sin(self):
        # Float-path check restricted to grid points where the bound exceeds
        # the double-precision noise floor of the alternating sum (~1e-10);
        # beyond that the computed operator power is pure rounding noise and
        # only a high-precision run is meaningful (covered by acceptance).
        envelope = GrowthEnvelope(1.0, 1.0)
        for h, n_cap in ((0.1, 20), (0.05, 14), (0.01, 6)):
            oracle = FunctionOracle(math.sin)
            values = [math.sin(k * h) for k in range(n_cap + 1)]
            for n in range(1, n_cap + 1):
                power = operator_power(oracle, 0.0, h, n, cache=values)
                assert abs(power) <= operator_power_bound(envelope, n, h)


class TestStepSolver:
    def test_worked_example_variant_formula(self):
        plan = solve_k_exact_h(GrowthEnvelope(120.0, 2.4), 2, 6, "eq12")
        assert not plan.clipped
        assert 1.2e-4 <= plan.h <= 1.4e-4
        assert plan.target == pytest.approx(1e-7)

    @pytest.mark.parametrize("formula", ["lemma2", "eq12"])
    @pytest.mark.parametrize(
        "magnitude,growth,order,digits",
        [(1.0, 1.0, 4, 8), (120.0, 2.4, 2, 6), (3.5, 0.7, 6, 10), (1e3, 10.0, 3, 4)],
    )
    def test_round_trip_residual(self, formula, magnitude, growth, order, digits):
        envelope = GrowthEnvelope(magnitude, growth)
        plan = solve_k_exact_h(envelope, order, digits, formula)
        target = 10.0 ** (-(digits + 1))
        recomputed = remainder_bound(envelope, order, plan.h, formula)
        assert abs(recomputed - target) <= 1e-3 * target
        assert plan.h < h_domain(envelope)

    def test_more_digits_means_smaller_step(self):
        envelope = GrowthEnvelope(1.0, 1.0)
        steps = [solve_k_exact_h(envelope, 4, k).h for k in range(2, 9)]
        assert all(h1 > h2 for h1, h2 in zip(steps, steps[1:]))

    def test_loose_target_clips_to_domain_edge(self):
        envelope = GrowthEnvelope(1e-30, 1.0)
        plan = solve_k_exact_h(envelope, 1, 1)
        assert plan.clipped
        assert plan.h == pytest.approx(0.99 * h_domain(envelope), rel=1e-15)
        assert plan.bound < plan.target

    def test_overflowing_envelope_plans_a_finite_bound(self):
        plan = solve_k_exact_h(GrowthEnvelope(1e200, 1e120), 10, 5)
        assert not plan.clipped
        assert math.isfinite(plan.bound) and plan.bound <= plan.target
        assert plan.h == pytest.approx(6.13e-154, rel=1e-3)

    def test_invalid_envelope_and_args(self):
        with pytest.raises(ValueError):
            GrowthEnvelope(-1.0, 1.0)
        envelope = GrowthEnvelope(1.0, 1.0)
        with pytest.raises(ValueError):
            solve_k_exact_h(envelope, 2, 0)
        with pytest.raises(ValueError):
            solve_k_exact_h(envelope, 2, 4, "bogus")

    def test_target_must_be_a_normal_double(self):
        # 10**-307 is normal, 10**-308 is subnormal and 10**-401 underflows to 0.
        envelope = GrowthEnvelope(1.0, 1.0)
        plan = solve_k_exact_h(envelope, 40, 306)
        assert plan.target >= sys.float_info.min
        assert not plan.clipped
        for k_digits in (307, 400):
            with pytest.raises(ValueError, match="normal"):
                solve_k_exact_h(envelope, 40, k_digits)

    @pytest.mark.parametrize("formula", ["lemma2", "eq12"])
    def test_each_step_evaluates_the_bound_once(self, monkeypatch, formula):
        # One call for the domain edge, one per bracketing step (the first
        # lower end plus each halving) and one per bisection step: no point is
        # evaluated twice.
        steps = []
        original = bounds_planner._remainder_bound

        def counting(envelope, n, h, formula="lemma2"):
            steps.append(h)
            return original(envelope, n, h, formula)

        monkeypatch.setattr(bounds_planner, "_remainder_bound", counting)
        envelope = GrowthEnvelope(120.0, 2.4)
        plan = solve_k_exact_h(envelope, 2, 6, formula)
        edge = 0.99 * h_domain(envelope)
        bracketing = [h for h in steps if h <= edge * 1e-12]
        assert steps[0] == edge
        assert steps[1 : 1 + len(bracketing)] == bracketing
        bisection = len(steps) - 1 - len(bracketing)
        assert 0 < bisection <= bounds_planner._BISECTION_MAX_ITER
        assert len(set(steps)) == len(steps)
        assert plan.bound == original(envelope, 2, plan.h, formula)

    @given(
        magnitude=st.floats(1e-3, 1e3),
        growth=st.floats(0.05, 50.0),
        order=st.integers(1, 12),
        digits=st.integers(1, 10),
        formula=st.sampled_from(["lemma2", "eq12"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip_residual_property(self, magnitude, growth, order, digits, formula):
        envelope = GrowthEnvelope(magnitude, growth)
        plan = solve_k_exact_h(envelope, order, digits, formula)
        assert 0.0 < plan.h < h_domain(envelope)
        if plan.clipped:
            assert plan.bound < plan.target
        else:
            assert abs(plan.bound - plan.target) <= 1e-3 * plan.target


def _reference_solve(envelope, n, k_digits, formula):
    # The step solve written out on the public remainder_bound: bracket the
    # root below 0.99 of the domain edge, then bisect until the bound at the
    # best step is within 1e-3 of the target.
    target = 10.0 ** (-(k_digits + 1))
    hi = 0.99 * h_domain(envelope)
    hi_bound = remainder_bound(envelope, n, hi, formula)
    if hi_bound < target:
        return hi, hi_bound, target, True
    lo = hi * 1e-12
    lo_bound = remainder_bound(envelope, n, lo, formula)
    while lo_bound > target:
        lo *= 0.5
        lo_bound = remainder_bound(envelope, n, lo, formula)
    best, best_bound = lo, lo_bound
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = remainder_bound(envelope, n, mid, formula)
        if value <= target:
            lo, best, best_bound = mid, mid, value
        else:
            hi = mid
        if abs(best_bound - target) <= 1e-3 * target:
            break
    return best, best_bound, target, False


def test_solve_matches_a_reference_bisection_bit_for_bit():
    # The solve bisects on the bound without re-checking its arguments; its
    # plans keep the bits of the same bisection on the checked public bound.
    rng = random.Random(20161029)
    cases = [
        (GrowthEnvelope(10.0 ** rng.uniform(-30, 30), 10.0 ** rng.uniform(-30, 30)), rng.randint(1, 40), rng.randint(1, 15), formula)
        for _ in range(300)
        for formula in BOUND_FORMULAS
    ]
    clipped = 0
    for envelope, n, k_digits, formula in cases:
        plan = solve_k_exact_h(envelope, n, k_digits, formula)
        expected = _reference_solve(envelope, n, k_digits, formula)
        assert (plan.h, plan.bound, plan.target, plan.clipped) == expected, (envelope, n, k_digits, formula)
        clipped += plan.clipped
    assert 0 < clipped < len(cases)


class TestBoundaryDivergence:
    def test_bound_blows_up_toward_the_domain_edge(self):
        envelope = GrowthEnvelope(1.0, 1.0)
        limit = h_domain(envelope)
        mid = remainder_bound(envelope, 4, 0.5 * limit)
        edge = remainder_bound(envelope, 4, limit * (1.0 - 1e-9))
        assert edge > 1e6 * mid
