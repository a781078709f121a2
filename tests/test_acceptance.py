"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.

Criterion 4 is expected to FAIL: the published queue sensitivity column is not
reproducible from the stated model parameters (see that test's docstring); the
assertions are kept faithful to the stated targets rather than weakened.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random

import mpmath as mp
import pytest

import blend
from blend import (
    BlendConfig,
    DirectionSpec,
    FunctionOracle,
    GrowthEnvelope,
    TandemQueueModel,
    agreed_significant_digits,
    blend_partial_sums,
    blocking_probability,
    directional_oracle,
    operator_power,
    quadratic_form,
    queue_sensitivity_oracle,
    remainder_bound,
    round_to_digits,
    run_blend,
    solve_k_exact_h,
    solve_stationary,
    stencil_weights,
)
from lemma_references import exp_density_operator_power_closed_form, operator_power_bound

TABLE_1_ROWS = (
    0.998334166468282,
    1.003321678961257,
    1.000029893016725,
    0.999980308400858,
    0.999999646316608,
    1.000000137620388,
    1.000000003815154,
    0.999999998963623,
)
TABLE_2_ROWS = (
    0.841470984807897,
    1.228293256202952,
    1.207506816871789,
    1.015352293328013,
    0.885486080979581,
    0.903764738896000,
    1.003453862663737,
    1.071046882890327,
)
TABLE_5_ROW_1 = 0.613180514116096
TABLE_5_TRUE = 0.609663168


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d}: {description} ... FAIL")
        raise
    print(f"CRITERION {number:2d}: {description} ... PASS")


def _exact_weight_mpf(n: int) -> list:
    return [mp.mpf(w.numerator) / mp.mpf(w.denominator) for w in stencil_weights(n).exact]


def _delta_mp(fn, theta, h, n: int):
    """Order-n partial sum at 60-digit precision from the exact weights."""
    weights = _exact_weight_mpf(n)
    values = [fn(theta + k * h) for k in range(n + 1)]
    return -mp.fsum(w * v for w, v in zip(weights, values)) / h


def test_criterion_1_table_1_reproduction():
    with criterion(1, "small-step sin trace matches all 8 reference rows"):
        oracle = FunctionOracle(math.sin, name="sin")
        stencil_weights(8)  # warm the weight cache before timing
        start = time.perf_counter()
        trace = blend_partial_sums(oracle, 0.0, 0.1, 8)
        elapsed = time.perf_counter() - start
        for computed, expected in zip(trace.deltas, TABLE_1_ROWS):
            assert abs(computed - expected) <= 1e-12
        assert elapsed < 1e-3
        # independent verification: 40-digit evaluation of the exact series
        with mp.workdps(40):
            for n in range(1, 9):
                reference = float(_delta_mp(mp.sin, mp.mpf(0), mp.mpf("0.1"), n))
                assert abs(trace.deltas[n - 1] - reference) <= 1e-12


def test_criterion_2_table_2_reproduction():
    with criterion(2, "unit-step sin trace matches rows and fails to stabilize"):
        oracle = FunctionOracle(math.sin, name="sin")
        trace = blend_partial_sums(oracle, 0.0, 1.0, 8)
        for computed, expected in zip(trace.deltas, TABLE_2_ROWS):
            assert abs(computed - expected) <= 1e-12
        # independent verification: 40-digit evaluation of the exact series
        with mp.workdps(40):
            for n in range(1, 9):
                reference = float(_delta_mp(mp.sin, mp.mpf(0), mp.mpf(1), n))
                assert abs(trace.deltas[n - 1] - reference) <= 1e-12
        report = run_blend(oracle, 0.0, BlendConfig(h0=1.0, max_h_refinements=0))
        assert report.stabilized is False


def test_criterion_3_table_3_reproduction():
    with criterion(3, "quartic trace: forward-difference row and stabilization to 160"):
        oracle = FunctionOracle(lambda t: 5.0 * t**4, name="quartic5")
        trace = blend_partial_sums(oracle, 2.0, 0.001, 8)
        assert abs(trace.deltas[0] - 160.1200400049834) <= 1e-9
        report = run_blend(oracle, 2.0, BlendConfig(h0=0.001))
        assert report.stabilized
        assert report.agreed_digits >= 10
        assert agreed_significant_digits(report.value, 160.0) >= 10
        assert round_to_digits(report.value, 10) == 160.0


def test_criterion_4_table_5_reproduction():
    """Tandem-queue reproduction against the published sensitivity column.

    EXPECTED TO FAIL, and deliberately not weakened.  The stated model
    (arrival 1, service rates 1 and 2, capacities 10, station-1 service
    suppressed while station 2 is full, blocking = P(station 1 full)) has
    sensitivity 0.454794... at arrival rate 1: confirmed by this solver, by an
    exact rational-arithmetic elimination of the balance equations, and by
    central differences, all agreeing to 12+ digits.  The published column
    (0.613180..., stabilizing at 0.609663168) implies per-step increments of
    the blocking probability that no reading of the stated parameters
    reproduces (recovering the underlying function from the published rows and
    fitting rate/capacity/blocking-rule variants points to an effective
    single-station system with capacity ~12 and service rate ~0.93, which the
    stated parameters cannot express).  The solver-quality and runtime parts
    of the criterion pass; the two numeric matches fail.
    """
    with criterion(4, "tandem-queue trace matches published sensitivity column"):
        start = time.perf_counter()
        model = TandemQueueModel(arrival_rate=1.0, mu1=1.0, mu2=2.0, cap1=10, cap2=10)
        stationary = solve_stationary(model)
        assert stationary.residual_norm <= 1e-10
        assert abs(float(stationary.probabilities.sum()) - 1.0) <= 1e-12
        oracle = queue_sensitivity_oracle(model)
        trace = blend_partial_sums(oracle, 1.0, 0.01, 8)
        report = run_blend(oracle, 1.0, BlendConfig(h0=0.01))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert abs(trace.deltas[0] - TABLE_5_ROW_1) <= 1e-8
        assert report.stabilized
        assert abs(report.value - TABLE_5_TRUE) <= 1e-6


def test_criterion_5_worked_planner_example():
    with criterion(5, "digit-exact step solve reproduces the worked example"):
        plan = solve_k_exact_h(GrowthEnvelope(120.0, 2.4), 2, 6, "eq12")
        assert 1.2e-4 <= plan.h <= 1.4e-4
        oracle = FunctionOracle(lambda t: 5.0 * t**4, name="quartic5")
        trace = blend_partial_sums(oracle, 2.0, plan.h, 2)
        assert agreed_significant_digits(trace.deltas[1], 160.0) >= 6


def test_criterion_6_bound_domination():
    with criterion(6, "true remainders and operator powers never exceed their bounds"):
        steps = (0.001, 0.005, 0.01, 0.05)
        with mp.workdps(60):
            # sin at 0: envelope M = b = 1; every step is inside 1/(2e).
            envelope = GrowthEnvelope(1.0, 1.0)
            for h in steps:
                h_mp = mp.mpf(repr(h))
                for n in range(1, 13):
                    remainder = abs(1 - _delta_mp(mp.sin, mp.mpf(0), h_mp, n))
                    assert remainder <= remainder_bound(envelope, n, h)
                for n in range(1, 21):
                    oracle = FunctionOracle(mp.sin, name="sin-mp")
                    power = operator_power(oracle, mp.mpf(0), h_mp, n)
                    assert abs(power) <= operator_power_bound(envelope, n, h)
        # quartic at 2: envelope (120, 2.4); rational arithmetic is exact.
        envelope = GrowthEnvelope(120.0, 2.4)
        quartic = lambda t: 5 * t**4
        for h in steps:
            h_frac = Fraction(repr(h))
            if h >= 1.0 / (2 * 2.4 * math.e):
                continue
            weights_by_n = {n: stencil_weights(n).exact for n in range(1, 13)}
            values = [quartic(Fraction(2) + k * h_frac) for k in range(21)]
            for n in range(1, 13):
                delta = -sum(w * v for w, v in zip(weights_by_n[n], values)) / h_frac
                remainder = abs(delta - 160)
                assert float(remainder) <= remainder_bound(envelope, n, h)
            for n in range(1, 21):
                oracle = FunctionOracle(quartic, name="quartic-exact")
                power = operator_power(oracle, Fraction(2), h_frac, n)
                assert abs(float(power)) <= operator_power_bound(envelope, n, h)


def test_criterion_7_polynomial_exactness_and_null_space():
    with criterion(7, "polynomial derivatives exact; higher operator powers annihilate"):
        rng = Random(987654321)
        eps = 2.3e-16
        for _ in range(25):
            degree = rng.randint(1, 6)
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 0.5  # keep the stated degree
            derivative_coeffs = [i * c for i, c in enumerate(coeffs)][1:]

            def poly(t, coeffs=coeffs):
                acc = 0.0
                for c in reversed(coeffs):
                    acc = acc * t + c
                return acc

            def dpoly(t, derivative_coeffs=derivative_coeffs):
                acc = 0.0
                for c in reversed(derivative_coeffs):
                    acc = acc * t + c
                return acc

            # evaluation points where the derivative is well scaled relative
            # to the function, so relative comparison is meaningful
            theta = rng.uniform(-2.0, 2.0)
            if abs(dpoly(theta)) < max(0.3, abs(poly(theta)) / 10.0):
                continue
            for h in (0.01, 0.05):
                oracle = FunctionOracle(poly)
                trace = blend_partial_sums(oracle, theta, h, 10)
                for order in {degree, degree + 2, 10}:
                    assert trace.deltas[order - 1] == pytest.approx(dpoly(theta), rel=1e-10)
                # null space: operator powers beyond the degree vanish
                values = trace.cached_values
                for n in range(degree + 1, 11):
                    power = operator_power(oracle, theta, h, n, cache=values)
                    scale = sum(math.comb(n, k) * abs(values[k]) for k in range(n + 1))
                    assert abs(power) <= 1e-8 * scale


def test_criterion_8_closed_form_equivalence():
    with criterion(8, "operator powers match the exponential-family closed form"):
        with mp.workdps(60):
            for theta in ("0.5", "1", "2"):
                for x in ("0.5", "1"):
                    for h in ("0.01", "0.05", "0.1"):
                        t0, xv, hv = mp.mpf(theta), mp.mpf(x), mp.mpf(h)
                        oracle = FunctionOracle(lambda t, xv=xv: t * mp.exp(-t * xv))
                        values = [oracle.evaluate(t0 + k * hv) for k in range(16)]
                        q = 1 - mp.exp(-hv * xv)
                        for n in range(1, 16):
                            computed = operator_power(oracle, t0, hv, n, cache=values)
                            closed = t0 * mp.exp(-t0 * xv) * q**n - n * hv * mp.exp(
                                -(t0 + hv) * xv
                            ) * q ** (n - 1)
                            assert abs(computed - closed) <= 1e-10 * abs(closed)
        # truncated full series at theta*x = 1 recovers the zero derivative
        theta, x, h = 1.0, 1.0, 0.05
        total = -math.fsum(
            exp_density_operator_power_closed_form(theta, x, h, n) / n for n in range(1, 61)
        ) / h
        assert abs(total) <= 1e-8


def test_criterion_9_directional_derivatives():
    with criterion(9, "directional runs: dimension-free cost and analytic agreement"):
        config = BlendConfig(h0=0.001)
        counts = []
        for m in (3, 9, 50):
            quadratic = quadratic_form(tuple(1.0 / (i + 1) for i in range(m)))
            direction = DirectionSpec.unit((1.0,) * m)
            oracle = directional_oracle(quadratic.evaluate, (0.5,) * m, direction)
            counts.append(run_blend(oracle, 0.0, config).eval_count)
        assert counts[0] == counts[1] == counts[2]

        signs = (-1, 1, -1, -1, 1, 1, 1, -1, 1)
        coeffs = tuple(2.0 ** (-i) for i in range(1, 10))
        theta = tuple(float(i) for i in range(1, 10))
        quadratic = quadratic_form(coeffs)
        oracle = directional_oracle(
            quadratic.evaluate, theta, DirectionSpec(tuple(s / 3.0 for s in signs))
        )
        report = run_blend(oracle, 0.0, config)
        analytic = float(sum(Fraction(s, 3) * i * Fraction(2) ** (1 - i) for i, s in enumerate(signs, 1)))
        assert analytic == -0.22265625
        assert report.stabilized
        assert agreed_significant_digits(report.value, analytic) >= 8


def test_criterion_10_thread_determinism():
    with criterion(10, "outputs byte-identical across BLEND_THREADS settings"):
        # library level: bit-identical traces
        serial_oracle = queue_sensitivity_oracle(TandemQueueModel(1.0, 1.0, 2.0, 10, 10))
        threaded_oracle = queue_sensitivity_oracle(TandemQueueModel(1.0, 1.0, 2.0, 10, 10))
        serial = blend_partial_sums(serial_oracle, 1.0, 0.01, 8, max_workers=0)
        threaded = blend_partial_sums(threaded_oracle, 1.0, 0.01, 8, max_workers=4)
        assert serial.deltas == threaded.deltas
        assert serial.cached_values == threaded.cached_values
        # The queue oracle evaluates its grid as one stacked solve, so no pool
        # starts above; the same function point by point runs on four threads.
        def per_point():
            return FunctionOracle(
                lambda rate: blocking_probability(TandemQueueModel(rate, 1.0, 2.0, 10, 10)), parallel_safe=True
            )

        plain_serial = blend_partial_sums(per_point(), 1.0, 0.01, 8, max_workers=0)
        plain_threaded = blend_partial_sums(per_point(), 1.0, 0.01, 8, max_workers=4)
        assert plain_serial.deltas == plain_threaded.deltas
        assert plain_serial.cached_values == plain_threaded.cached_values
        assert plain_serial.cached_values == serial.cached_values
        # CLI level: byte-identical stdout for every output format
        invocations = [
            ("diff", "sin", "--h0", "0.1", "--format", "json"),
            ("diff", "quartic5", "--theta", "2", "--h0", "0.001", "--format", "csv"),
            ("queue", "--format", "json"),
            ("tables", "all", "--format", "json"),
            ("plan", "--M", "1", "--b", "1", "--N", "4", "--K", "6", "--format", "table"),
        ]
        src = str(Path(blend.__file__).resolve().parents[1])
        for args in invocations:
            outputs = []
            for threads in ("0", "4"):
                env = dict(os.environ, BLEND_THREADS=threads, PYTHONPATH=src)
                proc = subprocess.run(
                    [sys.executable, "-m", "blend", *args],
                    capture_output=True,
                    env=env,
                )
                outputs.append((proc.returncode, proc.stdout))
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0, args
