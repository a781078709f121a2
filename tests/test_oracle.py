"""FunctionOracle counting semantics, including under concurrency."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from blend import FunctionOracle


def test_counts_every_invocation_including_failures():
    def sometimes(t):
        if t < 0:
            raise ValueError("negative")
        return t

    oracle = FunctionOracle(sometimes)
    oracle.evaluate(1.0)
    with pytest.raises(ValueError):
        oracle.evaluate(-1.0)
    assert oracle.eval_count == 2


def test_count_exact_under_concurrent_evaluation():
    oracle = FunctionOracle(lambda t: t * t, parallel_safe=True)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(oracle.evaluate, [0.1 * k for k in range(400)]))
    assert oracle.eval_count == 400


def test_result_passthrough_preserves_type():
    from fractions import Fraction

    oracle = FunctionOracle(lambda t: t * 2)
    assert oracle.evaluate(Fraction(1, 3)) == Fraction(2, 3)
    assert isinstance(oracle.evaluate(Fraction(1, 3)), Fraction)
