"""Tests for digit agreement, the stabilization driver, and directionals."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blend import (
    BlendConfig,
    BlendReport,
    DirectionSpec,
    FunctionOracle,
    agreed_significant_digits,
    directional_oracle,
    exp_density,
    quadratic_form,
    run_blend,
)
from blend.blend_driver import H_SHRINK_FACTOR, PRECISION_CAP
from blend.models import CATALOG


class TestAgreedDigits:
    def test_identical_values_hit_cap(self):
        assert agreed_significant_digits(3.25, 3.25) == PRECISION_CAP == 15

    def test_sign_disagreement(self):
        assert agreed_significant_digits(1.0, -1.0) == 0

    def test_zero_against_nonzero(self):
        assert agreed_significant_digits(0.0, 1e-8) == 0
        assert agreed_significant_digits(1e-8, 0.0) == 0

    def test_near_160_pair(self):
        # Direct application of the rule to a pair differing by 8.0e-12 around
        # 160: E = 2 and 8.0e-12 <= 0.5*10^(2-13+1), so L = 13.
        assert agreed_significant_digits(159.9999999999799, 159.9999999999719) == 13

    def test_agreement_spans_a_carry(self):
        # String comparison would see no common digits here; the magnitude
        # rule sees a gap of 2e-4 <= half a unit in the 4th significant place.
        assert agreed_significant_digits(0.9999, 1.0001) == 4

    def test_non_finite_handling(self):
        with pytest.raises(ValueError):
            agreed_significant_digits(math.inf, math.nan)
        assert agreed_significant_digits(math.inf, 1.0) == 0
        assert agreed_significant_digits(1.0, math.nan) == 0

    def test_cap_validation(self):
        # Values one ulp apart agree to more digits than a double holds; the
        # count stops at the cap for them too, not only for identical values.
        assert agreed_significant_digits(1.0, 1.0 + 2.0**-52) == PRECISION_CAP

    @given(
        a=st.floats(min_value=1e-6, max_value=1e6),
        rel=st.floats(min_value=1e-14, max_value=0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_definition(self, a, rel):
        b = a * (1.0 + rel)
        digits = agreed_significant_digits(a, b)
        exponent = math.floor(math.log10(max(abs(a), abs(b))))
        if digits < 15:
            assert abs(a - b) > 0.5 * 10.0 ** (exponent - digits)
        if digits > 0:
            assert abs(a - b) <= 0.5 * 10.0 ** (exponent - digits + 1)
        assert agreed_significant_digits(b, a) == digits


class TestConfig:
    def test_defaults(self):
        config = BlendConfig(h0=0.01)
        assert (config.n_max, config.max_h_refinements, config.min_agree_digits) == (8, 8, 2)
        assert (H_SHRINK_FACTOR, PRECISION_CAP) == (0.5, 15)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlendConfig(h0=0.0)
        with pytest.raises(ValueError):
            BlendConfig(h0=0.1, n_max=1)
        with pytest.raises(ValueError):
            BlendConfig(h0=0.1, max_h_refinements=-1)
        with pytest.raises(ValueError):
            BlendConfig(h0=0.1, min_agree_digits=0)
        with pytest.raises(ValueError):
            BlendConfig(h0=0.1, min_agree_digits=PRECISION_CAP + 1)
        # bool is an int subclass; every field refuses it, as n_max does.
        for fields in ({"h0": True}, {"h0": 0.1, "max_h_refinements": True}, {"h0": 0.1, "min_agree_digits": True}):
            with pytest.raises(ValueError):
                BlendConfig(**fields)


class TestRunBlend:
    def test_sin_stabilizes_at_small_step(self):
        oracle = FunctionOracle(math.sin)
        report = run_blend(oracle, 0.0, BlendConfig(h0=0.1))
        assert report.stabilized
        assert report.refinements == 0
        assert report.agreed_digits >= 8
        assert agreed_significant_digits(report.value, 1.0) >= 8

    def test_sin_fails_at_unit_step_without_refinement(self):
        oracle = FunctionOracle(math.sin)
        report = run_blend(oracle, 0.0, BlendConfig(h0=1.0, max_h_refinements=0))
        assert not report.stabilized
        assert report.agreed_digits < 2
        # the oscillating trace is preserved for diagnostics
        assert report.trace.deltas[0] == pytest.approx(0.841470984807897, abs=1e-14)
        assert report.value == report.trace.deltas[-1]

    def test_sin_recovers_with_refinement(self):
        oracle = FunctionOracle(math.sin)
        report = run_blend(oracle, 0.0, BlendConfig(h0=1.0))
        assert report.stabilized
        assert report.refinements >= 1
        assert report.trace.h == 1.0 * 0.5**report.refinements
        assert agreed_significant_digits(report.value, 1.0) >= report.agreed_digits - 1

    def test_false_stabilization_at_period_step(self):
        # Every grid point of sin at h = 2*pi evaluates to sin(2*pi*k), whose
        # partial sums all collapse to the same value, so the rule reports
        # maximal agreement on a wrong derivative. Documented hazard: the
        # trace rides along for exactly this diagnosis.
        oracle = FunctionOracle(math.sin)
        report = run_blend(oracle, 0.0, BlendConfig(h0=2 * math.pi, max_h_refinements=0))
        assert report.stabilized
        assert report.agreed_digits == 15
        assert abs(report.value) < 1e-13

    def test_eval_budget_exact(self):
        for refinements, h0 in ((0, 0.1), (2, 0.9), (5, 3.0)):
            oracle = FunctionOracle(math.sin)
            config = BlendConfig(h0=h0, n_max=8, max_h_refinements=refinements)
            report = run_blend(oracle, 0.0, config)
            assert report.eval_count == (report.refinements + 1) * (config.n_max + 1)
            assert oracle.eval_count == report.eval_count

    def test_h_used_formula_exact(self):
        oracle = FunctionOracle(math.sin)
        config = BlendConfig(h0=3.0, max_h_refinements=6)
        report = run_blend(oracle, 0.0, config)
        assert report.refinements > 0
        assert report.trace.h == 3.0 * 0.5**report.refinements

    def test_non_finite_deltas_trigger_refinement(self):
        calls = []

        def spiky(t):
            calls.append(t)
            return math.inf if t > 0.5 else math.sin(t)

        oracle = FunctionOracle(spiky)
        report = run_blend(oracle, 0.0, BlendConfig(h0=0.2, n_max=8, max_h_refinements=4))
        assert report.stabilized
        assert report.refinements >= 2  # 0.2 -> 0.1 -> 0.05 brings 8*h under 0.5
        assert report.eval_count == (report.refinements + 1) * 9

    @pytest.mark.parametrize("h0, refinements", [(1e-300, 100), (0.1, 1100)])
    def test_step_underflow_ends_unstabilized(self, h0, refinements):
        # Non-finite values never stabilize, and at theta = 0 the points k*h stay
        # apart down to the smallest subnormal step: the run stops at the last
        # step above zero.
        oracle = FunctionOracle(lambda t: math.inf if t != 0.0 else 0.0)
        config = BlendConfig(h0=h0, max_h_refinements=refinements)
        report = run_blend(oracle, 0.0, config)
        assert not report.stabilized
        assert report.refinements < refinements
        assert report.trace.h == h0 * H_SHRINK_FACTOR**report.refinements > 0.0
        assert h0 * H_SHRINK_FACTOR ** (report.refinements + 1) == 0.0
        assert report.eval_count == oracle.eval_count == (report.refinements + 1) * (config.n_max + 1)

    @pytest.mark.parametrize(
        "theta, h0, n_max, refinements",
        [(1.0, 1e-17, 2, 0), (math.pi / 2, 1e-300, 8, 0), (math.pi / 2, 0.1, 8, 49)],
    )
    def test_collapsed_grid_ends_unstabilized(self, theta, h0, n_max, refinements):
        # Once theta + k*h repeats a point, the attempt scores 0 digits and the
        # run stops there: at theta = 1 every point is 1 and Delta(1) = Delta(2) = 0
        # would agree bit for bit, and at pi/2 the 49th halving is the first
        # whose nine points are not all distinct.
        oracle = FunctionOracle(math.sin)
        config = BlendConfig(h0=h0, n_max=n_max, max_h_refinements=1100)
        report = run_blend(oracle, theta, config)
        assert not report.stabilized and report.agreed_digits == 0
        assert report.refinements == refinements
        assert report.trace.h == h0 * H_SHRINK_FACTOR**refinements
        assert report.eval_count == oracle.eval_count == (refinements + 1) * (n_max + 1)
        assert len({theta + k * report.trace.h for k in range(n_max + 1)}) <= n_max
        assert refinements == 0 or len({theta + k * 2 * report.trace.h for k in range(n_max + 1)}) == n_max + 1

    def test_exhausted_refinements_reports_failure(self):
        oracle = FunctionOracle(lambda t: math.inf if t != 0.0 else 0.0)
        report = run_blend(oracle, 0.0, BlendConfig(h0=1.0, max_h_refinements=3))
        assert not report.stabilized
        assert report.refinements == 3
        assert math.isnan(report.value)


class TestReportValue:
    def test_report_stores_the_value_once(self):
        # value reads the trace; it is no field of its own.
        assert [field.name for field in dataclasses.fields(BlendReport)] == ["agreed_digits", "trace", "refinements", "stabilized", "eval_count"]

    @given(
        name=st.sampled_from(["sin", "quartic5"]),
        theta=st.floats(-3.0, 3.0),
        h0=st.floats(1e-4, 2.0),
        refinements=st.integers(0, 3),
    )
    @example(name="sin", theta=0.0, h0=1.0, refinements=0)  # oscillates: not stabilized
    @example(name="quartic5", theta=2.0, h0=0.001, refinements=8)  # criterion 3's run
    @settings(max_examples=60, deadline=None)
    def test_value_is_the_last_partial_sum(self, name, theta, h0, refinements):
        # Stabilized or not, nothing is rounded: the value is the final
        # trace's last partial sum, bit for bit (NaN when that is NaN).
        oracle = FunctionOracle(CATALOG[name].evaluate)
        report = run_blend(oracle, theta, BlendConfig(h0=h0, max_h_refinements=refinements))
        assert report.value.hex() == report.trace.deltas[-1].hex()


class TestStabilizationSoundness:
    @pytest.mark.parametrize("name", ["sin", "quartic5", "exp_density"])
    def test_certified_digits_track_reference(self, name):
        # For catalog functions started inside the certified step domain, the
        # stabilized value must agree with the true derivative in at least
        # agreed_digits - 1 significant digits (the documented 1-digit slack).
        # theta points chosen where the reference derivative is well away from
        # zero (digit agreement against a zero target is vacuous).
        fn = exp_density(1.0) if name == "exp_density" else CATALOG[name]
        theta = {"sin": 0.0, "quartic5": 2.0, "exp_density": 0.5}[name]
        from blend import h_domain

        h0 = 0.5 * h_domain(fn.envelope)
        oracle = FunctionOracle(fn.evaluate, name=name)
        report = run_blend(oracle, theta, BlendConfig(h0=h0))
        assert report.stabilized
        reference = fn.reference_derivative(theta)
        assert agreed_significant_digits(report.value, reference) >= report.agreed_digits - 1


class TestDirectional:
    def test_direction_normalization_checked(self):
        with pytest.raises(ValueError, match="normalized"):
            DirectionSpec((1.0, 1.0))
        spec = DirectionSpec.unit((1.0, 1.0))
        assert spec.direction == pytest.approx((math.sqrt(0.5), math.sqrt(0.5)))
        assert DirectionSpec.unit((3.0, 4.0)).direction == (0.6, 0.8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("via_unit", [True, False])
    def test_non_finite_direction_rejected(self, bad, via_unit):
        # abs(nan - 1) > tol is False, so the norm check alone accepts nan.
        with pytest.raises(ValueError, match="finite"):
            DirectionSpec.unit((bad,)) if via_unit else DirectionSpec((bad,))

    def test_axis_direction_reduces_to_partial(self):
        quadratic = quadratic_form((1.0, 2.0, 3.0))
        oracle = directional_oracle(quadratic.evaluate, (1.0, 1.0, 1.0), DirectionSpec((1.0, 0.0, 0.0)))
        report = run_blend(oracle, 0.0, BlendConfig(h0=0.01))
        assert report.stabilized
        assert agreed_significant_digits(report.value, 2.0) >= 8

    def test_nine_dimensional_quadratic(self):
        from fractions import Fraction

        coeffs = tuple(2.0 ** (-i) for i in range(1, 10))
        theta = tuple(float(i) for i in range(1, 10))
        signs = (-1, 1, -1, -1, 1, 1, 1, -1, 1)
        direction = tuple(s / 3.0 for s in signs)
        quadratic = quadratic_form(coeffs)
        oracle = directional_oracle(quadratic.evaluate, theta, DirectionSpec(direction))
        report = run_blend(oracle, 0.0, BlendConfig(h0=0.001))
        # independent analytic oracle sum_i v_i * i * 2^(1-i), in exact rationals
        analytic = float(sum(Fraction(s, 3) * i * Fraction(2) ** (1 - i) for i, s in enumerate(signs, start=1)))
        assert analytic == -57.0 / 256.0  # exact dyadic value
        assert report.stabilized
        assert agreed_significant_digits(report.value, analytic) >= 8

    def test_zero_sum_direction_on_linear_function(self):
        # v sums to zero, so the restriction of sum(theta_i) along v is
        # constant (a dyadic step keeps the grid arithmetic exact): every
        # partial sum vanishes to the float-weight conversion noise floor
        # N * 2^N * eps * |phi| / h.
        from blend import blend_partial_sums

        direction = DirectionSpec.unit((1.0, -1.0, 1.0, -1.0))
        oracle = directional_oracle(lambda p: math.fsum(p), (4.0, 3.0, 2.0, 1.0), direction)
        trace = blend_partial_sums(oracle, 0.0, 0.5, 8)
        assert all(abs(d) <= 1e-11 for d in trace.deltas)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            directional_oracle(lambda p: 0.0, (0.0, 0.0), DirectionSpec((1.0,)))

    def test_eval_count_independent_of_dimension(self):
        counts = []
        for m in (3, 9, 50):
            quadratic = quadratic_form((1.0,) * m)
            direction = DirectionSpec.unit((1.0,) * m)
            oracle = directional_oracle(quadratic.evaluate, (0.5,) * m, direction)
            report = run_blend(oracle, 0.0, BlendConfig(h0=0.01))
            counts.append(report.eval_count)
        assert counts[0] == counts[1] == counts[2]

    def test_one_dimensional_restriction_is_bit_identical(self):
        # With theta = (0,) and v = (1,), g(t) = phi(t) evaluates at bitwise
        # the same grid as running the scalar oracle directly.
        theta0 = 0.7
        config = BlendConfig(h0=0.037)
        scalar = FunctionOracle(lambda t: math.exp(math.sin(3.0 * t)))
        direct = run_blend(scalar, theta0, config)
        restricted = directional_oracle(
            lambda p: math.exp(math.sin(3.0 * p[0])), (0.0,), DirectionSpec((1.0,))
        )
        via_direction = run_blend(restricted, theta0, config)
        assert via_direction.value == direct.value
        assert via_direction.agreed_digits == direct.agreed_digits
        assert via_direction.trace.h == direct.trace.h
        assert via_direction.trace.deltas == direct.trace.deltas
        assert via_direction.trace.cached_values == direct.trace.cached_values
        assert via_direction.trace.theta == direct.trace.theta
