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


class TestEvaluateMany:
    POINTS = [0.1 * k for k in range(7)]

    def test_matches_evaluate_and_counts_every_point(self):
        fn = lambda t: t * t - 1.0  # noqa: E731
        oracle = FunctionOracle(fn, batch=lambda points: [fn(p) for p in points])
        reference = FunctionOracle(fn)
        assert oracle.evaluate_many(self.POINTS) == [reference.evaluate(p) for p in self.POINTS]
        assert oracle.eval_count == len(self.POINTS)
        oracle.evaluate(2.0)
        assert oracle.eval_count == len(self.POINTS) + 1

    def test_needs_a_batch(self):
        oracle = FunctionOracle(lambda t: t)
        with pytest.raises(TypeError, match="needs an oracle with a batch"):
            oracle.evaluate_many(self.POINTS)
        assert oracle.eval_count == 0

    def test_batch_takes_every_point_in_one_call(self):
        calls = []
        oracle = FunctionOracle(lambda t: pytest.fail("fn called"), batch=lambda points: calls.append(points) or points)
        assert oracle.evaluate_many(iter(self.POINTS)) == self.POINTS
        assert calls == [self.POINTS]

    def test_failed_batch_counts_its_points(self):
        def batch(points):
            raise RuntimeError("down")

        oracle = FunctionOracle(lambda t: t, batch=batch)
        with pytest.raises(RuntimeError):
            oracle.evaluate_many(self.POINTS)
        assert oracle.eval_count == len(self.POINTS)

    def test_batch_of_the_wrong_length_raises(self):
        oracle = FunctionOracle(lambda t: t, batch=lambda points: points[:-1])
        with pytest.raises(ValueError, match="6 values for 7 points"):
            oracle.evaluate_many(self.POINTS)
