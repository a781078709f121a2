"""The benchmark's checkers: they flag known-wrong results and accept right ones.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
from pathlib import Path

import pytest

import checks
import functions
import spec
import workloads


def test_flags_the_two_pi_stabilization():
    # At h0 = 2*pi every partial sum of sin at 0 is a rounding residue, and the
    # driver "stabilizes" on it; the true derivative is 1.
    op = workloads.AdaptiveOp(functions.catalog("sin"), 0.0, 2 * math.pi, 8)
    out = op.execute()
    agreed, stabilized, _ = out.detail
    assert stabilized and abs(out.value) < 1e-15
    verdict = op.check(out)
    assert verdict.failure is not None and verdict.fatal is None
    assert verdict.failure.startswith(f"claims {agreed} digits")


def test_accepts_a_correct_derivative():
    reference = math.cos(0.7)
    for digits in (2, 8, 12):
        value = float(f"{reference:.{digits - 1}e}")
        assert checks.adaptive_failure(True, digits, checks.significant_digits(value, reference)) is None
    assert checks.adaptive_failure(True, 15, checks.significant_digits(reference, reference)) is None


def test_flags_unstabilized_and_over_claimed_values():
    reference = math.cos(0.7)
    assert checks.adaptive_failure(False, 0, 15.0) == "not stabilized"
    value = float(f"{reference:.7e}")  # 8 correct digits
    assert checks.adaptive_failure(True, 10, checks.significant_digits(value, reference)) is not None
    assert checks.adaptive_failure(True, 9, checks.significant_digits(value, reference)) is None


def test_significant_digits_against_a_zero_reference_uses_the_value_scale():
    assert checks.significant_digits(0.0, 0.0, scale=2.0) == checks.DIGIT_CAP
    assert math.floor(checks.significant_digits(1e-9, 0.0, scale=2.0)) == 9
    with pytest.raises(ValueError):
        checks.significant_digits(1e-9, 0.0)


def test_exact_queue_derivative_agrees_with_a_central_difference():
    model = (1.0, 1.0, 2.0, 10, 10)
    blocking, sensitivity = checks.queue_blocking_and_sensitivity(*model)
    step = 1e-5
    high, _ = checks.queue_blocking_and_sensitivity(1.0 + step, *model[1:])
    low, _ = checks.queue_blocking_and_sensitivity(1.0 - step, *model[1:])
    central = (high - low) / (2 * step)
    assert abs(central - sensitivity) <= 1e-8 * sensitivity
    assert 0.0 < blocking < 1.0
    assert round(sensitivity, 10) == 0.4547944228


@pytest.mark.parametrize("shape", [(20, 3), (3, 20), (6, 4)])
def test_exact_queue_derivative_on_tall_and_wide_shapes(shape):
    rates = (1.3, 1.6, 2.2)
    _, sensitivity = checks.queue_blocking_and_sensitivity(*rates, *shape)
    step = 1e-5
    high, _ = checks.queue_blocking_and_sensitivity(rates[0] + step, *rates[1:], *shape)
    low, _ = checks.queue_blocking_and_sensitivity(rates[0] - step, *rates[1:], *shape)
    assert sensitivity > 0.0
    assert abs((high - low) / (2 * step) - sensitivity) <= 1e-7 * sensitivity


@pytest.mark.parametrize("order_n", [1, 2, 5, 17, 40])
def test_exact_weights_satisfy_the_row_identities(order_n):
    weights = checks.exact_weights(order_n)
    assert sum(weights) == 0
    assert sum(k * w for k, w in enumerate(weights)) == -1


def test_directional_reference_is_the_exact_gradient_product():
    assert checks.directional_reference([1.0, 2.0], [3.0, -1.0], [0.5, 0.25]) == 2.0
    assert checks.directional_reference([1.0], [1.0], [0.1]) == 0.2


def test_benchmark_json_is_generated_from_spec():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    assert json.loads(path.read_text(encoding="utf-8")) == spec.benchmark_json()
