"""Tiny arithmetic-expression compiler for ad-hoc CLI functions.

Grammar (classic recursive descent, ``^`` right-associative and binding
tighter than unary minus)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | "theta" | "pi" | "e" | FUNC "(" expr ")" | "(" expr ")"
    FUNC    := "sin" | "cos" | "exp" | "ln"

No ``eval``: the input is tokenized and compiled to nested closures over the
single variable ``theta``.  Domain errors (``ln`` of a negative number,
division by zero, ``0 ^ -1``) surface at evaluation time as ``ValueError``.
A result too large for a float is ±inf, from ``exp`` and ``^`` as from
``*``, so the driver treats it as a non-finite grid value.
"""

from __future__ import annotations

import math
import re
from typing import Callable


class ExpressionError(ValueError):
    """The expression text could not be parsed."""


_TOKEN = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)


def _exp(x: float) -> float:
    """exp(x), or inf where it is too large for a float, as ``*`` gives."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": _exp,
    "ln": math.log,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExpressionError(f"unexpected character {rest[0]!r} at position {pos}")
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r} at position {pos} in {self.text!r}")

    def parse(self) -> Callable[[float], float]:
        fn = self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExpressionError(f"unexpected {value!r} at position {pos} in {self.text!r}")
        return fn

    def expr(self):
        fn = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                lhs = fn
                if value == "+":
                    fn = lambda t, lhs=lhs, rhs=rhs: lhs(t) + rhs(t)
                else:
                    fn = lambda t, lhs=lhs, rhs=rhs: lhs(t) - rhs(t)
            else:
                return fn

    def term(self):
        fn = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.factor()
                lhs = fn
                if value == "*":
                    fn = lambda t, lhs=lhs, rhs=rhs: lhs(t) * rhs(t)
                else:
                    fn = lambda t, lhs=lhs, rhs=rhs: _div(lhs(t), rhs(t))
            else:
                return fn

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            inner = self.factor()
            return lambda t, inner=inner: -inner(t)
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            exponent = self.factor()  # right-associative
            return lambda t, base=base, exponent=exponent: _pow(base(t), exponent(t))
        return base

    def atom(self):
        kind, value, pos = self.take()
        if kind == "number":
            constant = float(value)
            return lambda t, constant=constant: constant
        if kind == "ident":
            if value == "theta":
                return lambda t: t
            if value in _CONSTANTS:
                constant = _CONSTANTS[value]
                return lambda t, constant=constant: constant
            if value in _FUNCTIONS:
                func = _FUNCTIONS[value]
                self.expect_op("(")
                argument = self.expr()
                self.expect_op(")")
                return lambda t, func=func, argument=argument: func(argument(t))
            raise ExpressionError(f"unknown identifier {value!r} at position {pos}")
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(f"unexpected {'end of input' if kind is None else repr(value)} at position {pos}")


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise ValueError("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    try:
        result = a**b
    except ZeroDivisionError as exc:
        raise ValueError(f"invalid power {a!r} ^ {b!r}: {exc}") from exc
    except OverflowError:
        # Too large for a float: -inf for a negative base and an odd exponent,
        # inf otherwise; a negative base needs an integer exponent to be real.
        if a < 0 and not float(b).is_integer():
            raise ValueError(f"power {a!r} ^ {b!r} is not real") from None
        return -math.inf if a < 0 and b % 2 == 1 else math.inf
    if isinstance(result, complex):
        raise ValueError(f"power {a!r} ^ {b!r} is not real")
    return result


def compile_expression(text: str) -> Callable[[float], float]:
    """Compile an expression in the variable ``theta`` to a float function.

    Nesting deeper than Python's recursion limit allows the parser is an
    :class:`ExpressionError`, like any other text that does not parse.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExpressionError("expression is nested too deeply to parse") from None
