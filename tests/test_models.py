"""Tests for the analytic catalog and the closed-form operator-power oracle."""

from __future__ import annotations

import math
import random

import pytest

from blend import (
    CATALOG,
    FunctionOracle,
    exp_density,
    exp_density_operator_power_closed_form,
    operator_power,
    quadratic_form,
)


class TestCatalogSelfConsistency:
    @pytest.mark.parametrize("name", ["sin", "quartic5"])
    def test_reference_derivative_matches_central_difference(self, name):
        fn = CATALOG[name]
        rng = random.Random(20240811)
        h = 1e-6
        for _ in range(10):
            theta = rng.uniform(-2.0, 2.0)
            central = (fn.evaluate(theta + h) - fn.evaluate(theta - h)) / (2 * h)
            assert fn.reference_derivative(theta) == pytest.approx(central, rel=1e-6, abs=1e-9)

    def test_exp_density_reference(self):
        fn = exp_density(0.7)
        rng = random.Random(7)
        h = 1e-6
        for _ in range(10):
            theta = rng.uniform(0.2, 3.0)
            central = (fn.evaluate(theta + h) - fn.evaluate(theta - h)) / (2 * h)
            assert fn.reference_derivative(theta) == pytest.approx(central, rel=1e-6)

    def test_exp_density_validation(self):
        with pytest.raises(ValueError):
            exp_density(0.0)

    def test_quadratic_form(self):
        fn = quadratic_form((1.0, 2.0, 3.0))
        assert fn.evaluate((1.0, 1.0, 1.0)) == 6.0
        assert fn.reference_derivative((1.0, 2.0, 3.0), (1.0, 0.0, 0.0)) == 2.0
        assert fn.reference_derivative((1.0, 2.0, 3.0), (0.0, 1.0, 0.0)) == 8.0
        with pytest.raises(ValueError):
            fn.evaluate((1.0, 2.0))
        with pytest.raises(ValueError):
            quadratic_form(())


class TestClosedForm:
    def test_matches_operator_power_at_float_precision(self):
        # The true operator power decays like (h*x)^n, so it quickly sinks
        # under the value-rounding floor eps * sum_k C(n,k)|phi_k| of any
        # float64 evaluation; the float check therefore asserts agreement
        # within that floor, plus full relative agreement whenever the value
        # still dominates it.  The n <= 15 grid at relative 1e-10 is verified
        # at high precision in the acceptance suite.
        eps = 2.3e-16
        for theta in (0.5, 1.0, 2.0):
            for x in (0.5, 1.0):
                for h in (0.01, 0.05, 0.1):
                    oracle = FunctionOracle(lambda t, x=x: t * math.exp(-t * x))
                    values = [oracle.evaluate(theta + k * h) for k in range(9)]
                    for n in range(1, 9):
                        computed = operator_power(oracle, theta, h, n, cache=values)
                        closed = exp_density_operator_power_closed_form(theta, x, h, n)
                        noise = 4 * eps * sum(
                            math.comb(n, k) * abs(values[k]) for k in range(n + 1)
                        )
                        assert abs(computed - closed) <= noise
                        if abs(closed) > 1e6 * noise:
                            assert computed == pytest.approx(closed, rel=2e-10)

    def test_vanishes_with_step(self):
        assert exp_density_operator_power_closed_form(1.0, 1.0, 1e-9, 1) == pytest.approx(0.0, abs=1e-9)

    def test_full_series_recovers_derivative_at_critical_point(self):
        # -(1/h) sum_{n=1..60} T_n / n telescopes to (1 - theta*x) e^{-theta*x},
        # which vanishes at theta*x = 1.
        theta, x, h = 1.0, 1.0, 0.05
        total = -math.fsum(
            exp_density_operator_power_closed_form(theta, x, h, n) / n for n in range(1, 61)
        ) / h
        assert abs(total) <= 1e-8

    def test_full_series_matches_derivative_away_from_critical_point(self):
        theta, x, h = 0.5, 1.0, 0.05
        total = -math.fsum(
            exp_density_operator_power_closed_form(theta, x, h, n) / n for n in range(1, 61)
        ) / h
        expected = (1.0 - theta * x) * math.exp(-theta * x)
        assert total == pytest.approx(expected, rel=1e-10)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            exp_density_operator_power_closed_form(1.0, -1.0, 0.1, 2)
        with pytest.raises(ValueError):
            exp_density_operator_power_closed_form(1.0, 1.0, 0.0, 2)
        with pytest.raises(ValueError):
            exp_density_operator_power_closed_form(1.0, 1.0, 0.1, 0)
