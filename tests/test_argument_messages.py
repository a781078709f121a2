"""The exact message of each check of a real or an integer argument.

The checks of real and integer arguments share four messages: a positive
finite real, a finite real >= 0, an integer >= low, or an integer in
[low, high].  Each check is fed a bool, a string, NaN and a value out of
its range, and each dataclass stores an int given for a real as a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from blend import (
    ORDER_CAP,
    BlendConfig,
    GrowthEnvelope,
    TandemQueueModel,
    exp_density,
    queue_sensitivity_oracle,
    remainder_bound,
    solve_k_exact_h,
)

ENVELOPE = GrowthEnvelope(1.0, 1.0)

#: (check, call with the argument under test, message before ", got", value out of range)
CHECKS = [
    ("h0", lambda v: BlendConfig(v), "h0 must be a positive finite real", 0.0),
    ("n_max", lambda v: BlendConfig(0.1, n_max=v), f"n_max must be an integer in [2, {ORDER_CAP}]", ORDER_CAP + 1),
    ("max_h_refinements", lambda v: BlendConfig(0.1, max_h_refinements=v), "max_h_refinements must be an integer >= 0", -1),
    ("min_agree_digits", lambda v: BlendConfig(0.1, min_agree_digits=v), "min_agree_digits must be an integer in [1, 15]", 16),
    ("magnitude", lambda v: GrowthEnvelope(v, 1.0), "envelope magnitude must be a positive finite real", -1.0),
    ("growth", lambda v: GrowthEnvelope(1.0, v), "envelope growth must be a positive finite real", 0),
    ("arrival_rate", lambda v: TandemQueueModel(v, 1.0, 2.0, 3, 3), "arrival_rate must be a finite real >= 0", -0.5),
    ("mu1", lambda v: TandemQueueModel(1.0, v, 2.0, 3, 3), "mu1 must be a positive finite real", 0.0),
    ("mu2", lambda v: TandemQueueModel(1.0, 1.0, v, 3, 3), "mu2 must be a positive finite real", math.inf),
    ("cap1", lambda v: TandemQueueModel(1.0, 1.0, 2.0, v, 3), "cap1 must be an integer >= 1", 0),
    ("cap2", lambda v: TandemQueueModel(1.0, 1.0, 2.0, 3, v), "cap2 must be an integer >= 1", -2),
    ("x", exp_density, "x must be a positive finite real", -math.inf),
    ("order", lambda v: remainder_bound(ENVELOPE, v, 0.01), "order must be an integer >= 1", 0),
    ("k_digits", lambda v: solve_k_exact_h(ENVELOPE, 4, v), "k_digits must be an integer >= 1", 0),
]


@pytest.mark.parametrize("kind", ["bool", "str", "nan", "out_of_range"])
@pytest.mark.parametrize("call,message,out_of_range", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_message(call, message, out_of_range, kind):
    value = {"bool": True, "str": "2", "nan": math.nan, "out_of_range": out_of_range}[kind]
    with pytest.raises(ValueError) as error:
        call(value)
    assert str(error.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize(
    "rate,message",
    [
        (True, "arrival_rate must be a finite real >= 0, got True"),
        (Fraction(1, 2), "arrival_rate must be a finite real >= 0, got Fraction(1, 2)"),
        (math.nan, "stencil requested arrival rate nan, which is not finite; reduce the step size relative to the base rate"),
        (math.inf, "stencil requested arrival rate inf, which is not finite; reduce the step size relative to the base rate"),
        (-1.0, "stencil requested arrival rate -1.0 <= 0; reduce the step size relative to the base rate"),
    ],
    ids=["bool", "Fraction", "nan", "inf", "out_of_range"],
)
def test_queue_oracle_message(rate, message):
    # The oracle refuses a rate <= 0, and one not finite, as a step too
    # large, each with its own message, and a positive rate that is not an
    # int or a float as the model does.  The grid hands it numbers, so a
    # string is not in the table.
    with pytest.raises(ValueError) as error:
        queue_sensitivity_oracle(TandemQueueModel(1.0, 1.0, 2.0, 3, 3)).evaluate(rate)
    assert str(error.value) == message


def test_an_int_is_stored_as_a_float():
    config = BlendConfig(1)
    envelope = GrowthEnvelope(2, 3)
    model = TandemQueueModel(0, 2, 3, 4, 5)
    stored = [config.h0, envelope.magnitude, envelope.growth, model.arrival_rate, model.mu1, model.mu2]
    assert [(type(v), v) for v in stored] == [(float, 1.0), (float, 2.0), (float, 3.0), (float, 0.0), (float, 2.0), (float, 3.0)]
    assert [(type(v), v) for v in (config.n_max, model.cap1, model.cap2)] == [(int, 8), (int, 4), (int, 5)]
    assert exp_density(2).name == "exp_density(x=2)"
