"""The black boxes the workloads differentiate, with the benchmark's own facts about them.

Each :class:`BlackBox` pairs the callable handed to the program with what
the benchmark knows independently: the exact derivative (``mpmath`` or
rationals), a bound on the rounding error of a computed value, and, where one
exists, a growth envelope (M, b) with |f^(n)| <= M b^n on [theta, oo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from checks import EPS, directional_reference


@dataclass(frozen=True)
class BlackBox:
    label: str
    #: Builds the program-side scalar function; runs inside the timed op, so
    #: compiling an expression is part of the op's cost.
    raw: Callable[[], Callable[[float], float]] | None
    value: Callable[[float], float]
    derivative: Callable[[float], float]
    #: value_error(x, kh): bound on |computed f(fl(theta + k*h)) - f(theta + k*h)|.
    value_error: Callable[[float, float], float]
    #: envelope(theta) -> (M, b), or None when no envelope is derived.
    envelope: Callable[[float], tuple[float, float]] | None = None
    #: Builds the oracle directly, for boxes that are not a scalar function.
    oracle_factory: Callable[[], object] | None = None

    def make(self):
        """A fresh program oracle around the black box."""
        if self.oracle_factory is not None:
            return self.oracle_factory()
        import blend.oracle as oracle

        return oracle.FunctionOracle(self.raw(), parallel_safe=True, name=self.label)


def _mpmath():
    # Imported on first use: references are computed after the timed loop,
    # so mpmath stays out of the measured set-up.
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def _mp(x: float):
    return _mpmath().mpf(x)


def catalog(name: str) -> BlackBox:
    """A function of the program's catalog, under the benchmark's own facts."""
    import blend.models as models

    if name == "sin":
        return BlackBox(
            label="sin",
            raw=lambda: models.CATALOG["sin"].evaluate,
            value=math.sin,
            derivative=lambda t: float(_mpmath().cos(_mp(t))),
            value_error=lambda x, kh: 4.0 * EPS * (abs(math.sin(x)) + abs(x) + kh),
            envelope=lambda t: (1.0, 1.0),
        )
    if name == "quartic5":
        return BlackBox(
            label="quartic5",
            raw=lambda: models.CATALOG["quartic5"].evaluate,
            value=lambda t: 5.0 * t**4,
            derivative=lambda t: float(20 * Fraction(t) ** 3),
            value_error=lambda x, kh: 4.0 * EPS * (10.0 * x**4 + 20.0 * abs(x) ** 3 * (abs(x) + kh)),
        )
    raise ValueError(name)


def _exp_density_facts(x: float):
    def derivative(t: float) -> float:
        tt, xx = _mp(t), _mp(x)
        return float((1 - tt * xx) * _mpmath().exp(-tt * xx))

    def value_error(t: float, kh: float) -> float:
        f = abs(t * math.exp(-t * x))
        slope = (1.0 + abs(t * x)) * math.exp(-t * x)
        return 4.0 * EPS * (f * (3.0 + abs(t * x)) + slope * (abs(t) + kh))

    def envelope(theta: float) -> tuple[float, float]:
        # f^(n)(t) = (-x)^n e^{-tx} (t - n/x); for t >= theta >= 0,
        # |f^(n)| <= x^n (1/(e x) + n e^{-theta x}/x) <= M (2x)^n since n <= 2^n.
        return (1.0 / math.e + math.exp(-theta * x)) / x, 2.0 * x

    return derivative, value_error, envelope


def exp_density(x: float) -> BlackBox:
    """The program's theta * exp(-theta * x) family."""
    import blend.models as models

    derivative, value_error, envelope = _exp_density_facts(x)
    return BlackBox(
        label=f"exp_density({x!r})",
        raw=lambda: models.exp_density(x).evaluate,
        value=lambda t: t * math.exp(-t * x),
        derivative=derivative,
        value_error=value_error,
        envelope=envelope,
    )


def expression_exp(x: float) -> BlackBox:
    """``theta*exp(-theta*x)`` compiled by the program's expression compiler."""
    import blend.expressions as expressions

    text = f"theta*exp(-theta*{x!r})"
    derivative, value_error, envelope = _exp_density_facts(x)
    return BlackBox(
        label=text,
        raw=lambda: expressions.compile_expression(text),
        value=lambda t: t * math.exp(-t * x),
        derivative=derivative,
        value_error=value_error,
        envelope=envelope,
    )


def expression_sin(a: float, c: float) -> BlackBox:
    """``sin(a*theta + c)`` compiled by the program, with c >= 0."""
    import blend.expressions as expressions

    text = f"sin({a!r}*theta + {c!r})"
    return BlackBox(
        label=text,
        raw=lambda: expressions.compile_expression(text),
        value=lambda t: math.sin(a * t + c),
        derivative=lambda t: float(_mp(a) * _mpmath().cos(_mp(a) * _mp(t) + _mp(c))),
        value_error=lambda t, kh: 4.0 * EPS * (1.0 + 2.0 * abs(a * t) + abs(c) + abs(a) * (abs(t) + kh)),
        envelope=lambda theta: (1.0, abs(a)),
    )


def remote(box: BlackBox, latency_s: float, holder) -> BlackBox:
    """``box`` behind a fixed per-call latency, as a simulator or service would add.

    ``holder.tracer``, when set, records the wrapped call as a ``remote.fn``
    span so the oracle's own overhead can be separated from it.
    """
    import time

    def make():
        fn = box.raw()

        def evaluate(theta: float) -> float:
            tracer = holder.tracer
            span = tracer.begin("remote.fn") if tracer is not None else None
            time.sleep(latency_s)
            value = fn(theta)
            if span is not None:
                tracer.end(span)
            return value

        return evaluate

    return BlackBox(
        label=f"remote({box.label})",
        raw=make,
        value=box.value,
        derivative=box.derivative,
        value_error=box.value_error,
        envelope=box.envelope,
    )


def directional(coeffs, theta, direction) -> BlackBox:
    """g(t) = sum_i a_i (theta_i + t v_i)^2 through the program's quadratic_form and directional_oracle.

    ``direction`` must already have unit length.  Only t = 0 is a valid
    expansion point for ``derivative``.
    """
    import blend.blend_driver as blend_driver
    import blend.models as models

    coeffs, theta, direction = tuple(coeffs), tuple(theta), tuple(direction)

    def factory():
        quadratic = models.quadratic_form(coeffs)
        spec = blend_driver.DirectionSpec(direction)
        return blend_driver.directional_oracle(quadratic.evaluate, theta, spec, parallel_safe=True)

    def value(t: float) -> float:
        return math.fsum(a * (p + t * v) ** 2 for a, p, v in zip(coeffs, theta, direction))

    def value_error(t: float, kh: float) -> float:
        total = 0.0
        for a, p, v in zip(coeffs, theta, direction):
            q = p + t * v
            total += abs(a) * q * q + 2.0 * abs(a * q) * (abs(t * v) + abs(q) + kh * abs(v))
        return 4.0 * EPS * total

    def derivative(t: float) -> float:
        if t != 0.0:
            raise ValueError("directional reference exists at t = 0 only")
        return directional_reference(coeffs, theta, direction)

    return BlackBox(
        label=f"directional(m={len(coeffs)})",
        raw=None,
        value=value,
        derivative=derivative,
        value_error=value_error,
        oracle_factory=factory,
    )
