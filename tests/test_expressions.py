"""Tests for the expression compiler used by the CLI."""

from __future__ import annotations

import math

import pytest

from blend.expressions import ExpressionError, compile_expression


class TestParsing:
    @pytest.mark.parametrize(
        "text,theta,expected",
        [
            ("theta", 3.5, 3.5),
            ("2+3*4", 0.0, 14.0),
            ("(2+3)*4", 0.0, 20.0),
            ("theta^2", 3.0, 9.0),
            ("2^3^2", 0.0, 512.0),  # right-associative
            ("-theta^2", 2.0, -4.0),  # unary minus binds looser than ^
            ("2*-3", 0.0, -6.0),
            ("sin(theta)", 0.25, math.sin(0.25)),
            ("cos(0)", 1.0, 1.0),
            ("exp(ln(5))", 0.0, 5.0),
            ("theta*exp(-theta*1.0)", 1.0, math.exp(-1.0)),
            ("pi", 0.0, math.pi),
            ("e^2", 0.0, math.e**2),
            ("1e-3*theta", 2.0, 2e-3),
            (".5*theta", 4.0, 2.0),
            ("5*theta^4", 2.0, 80.0),
            ("theta-1", 3.0, 2.0),
            ("theta/4", 2.0, 0.5),
            ("8/2/2", 0.0, 2.0),  # left-associative
        ],
    )
    def test_evaluation(self, text, theta, expected):
        fn = compile_expression(text)
        assert fn(theta) == pytest.approx(expected, rel=1e-15)

    def test_deterministic_reuse(self):
        fn = compile_expression("sin(theta)*theta")
        assert fn(1.3) == fn(1.3)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "  ", "theta +", "(theta", "theta)", "foo(2)", "nosuch", "2 ** 3", "1..2", "sin 2"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionError):
            compile_expression(text)

    def test_nesting_beyond_the_recursion_limit(self):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            compile_expression("(" * 400 + "theta" + ")" * 400)

    def test_error_carries_position(self):
        with pytest.raises(ExpressionError, match="position"):
            compile_expression("1 + bogus")

    def test_runtime_domain_errors(self):
        with pytest.raises(ValueError):
            compile_expression("1/theta")(0.0)
        with pytest.raises(ValueError):
            compile_expression("ln(theta)")(-1.0)
        with pytest.raises(ValueError):
            compile_expression("theta^0.5")(-4.0)
        with pytest.raises(ValueError, match="negative power"):
            compile_expression("0^theta")(-1.0)
        with pytest.raises(ValueError, match="not real"):
            compile_expression("theta^400.5")(-10.0)

    @pytest.mark.parametrize(
        "text, theta, expected",
        [
            ("exp(theta)", 710.0, math.inf),
            ("exp(theta)", 709.75, math.exp(709.75)),
            ("theta^400", 10.0, math.inf),
            ("theta^400", -10.0, math.inf),
            ("theta^401", -10.0, -math.inf),
            ("theta^-2001", -0.5, -math.inf),
            ("theta^1e300", -10.0, math.inf),
            ("1e200*theta", 1e200, math.inf),
        ],
    )
    def test_overflow_is_infinite(self, text, theta, expected):
        assert compile_expression(text)(theta) == expected
