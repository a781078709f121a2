"""Built-in reference tables and their regeneration.

The five demonstration tables ship with the published values embedded, so the
``tables`` command can regenerate each experiment through the public library
operations and audit every cell against the stored expectation.  Where the
published presentation is internally inconsistent (three of the five captions
disagree with their own rows), the regeneration uses the step that actually
reproduces the rows and says so in the table's notes; cells that no step
reproduces are reported as mismatches rather than papered over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blend_driver import BlendConfig, DirectionSpec, directional_oracle, run_blend
from .models import CATALOG, TandemQueueModel, blocking_probability, quadratic_form, queue_sensitivity_oracle
from .oracle import FunctionOracle
# Unused here; kept importable under this name for perfbench/spans.py, which wraps it.
from .series_core import blend_partial_sums  # noqa: F401

N_MAX = 8

#: Inputs of the directional demonstration (table 4).
DIRECTIONAL_COEFFS = tuple(2.0 ** (-i) for i in range(1, 10))
DIRECTIONAL_THETA = tuple(float(i) for i in range(1, 10))
DIRECTIONAL_DIRECTION = tuple(s / 3.0 for s in (-1, 1, -1, -1, 1, 1, 1, -1, 1))

#: Parameters of the queue demonstration (table 5).
QUEUE_MODEL = TandemQueueModel(arrival_rate=1.0, mu1=1.0, mu2=2.0, cap1=10, cap2=10)
QUEUE_H = 0.01


@dataclass(frozen=True)
class ReferenceTable:
    number: int
    title: str
    published_rows: tuple[float, ...]
    published_true: float | None
    published_h: float
    regeneration_h: float
    match_tolerance: float
    notes: tuple[str, ...]


TABLES: dict[int, ReferenceTable] = {
    1: ReferenceTable(
        number=1,
        title="sin at theta=0, small step",
        published_rows=(
            0.998334166468282,
            1.003321678961257,
            1.000029893016725,
            0.999980308400858,
            0.999999646316608,
            1.000000137620388,
            1.000000003815154,
            0.999999998963623,
        ),
        published_true=1.0,
        published_h=0.01,
        regeneration_h=0.1,
        match_tolerance=1e-12,
        notes=(
            "published step reads 0.01, but every published row reproduces only with h=0.1 "
            "(the N=1 row equals sin(0.1)/0.1); regenerated with h=0.1",
        ),
    ),
    2: ReferenceTable(
        number=2,
        title="sin at theta=0, large step (outside the certified domain)",
        published_rows=(
            0.841470984807897,
            1.228293256202952,
            1.207506816871789,
            1.015352293328013,
            0.885486080979581,
            0.903764738896000,
            1.003453862663737,
            1.071046882890327,
        ),
        published_true=1.0,
        published_h=1.0,
        regeneration_h=1.0,
        match_tolerance=1e-12,
        notes=(
            "h=1.0 exceeds the certified step limit 1/(2e) ~ 0.1839 for sin; "
            "the trace oscillates and never stabilizes",
        ),
    ),
    3: ReferenceTable(
        number=3,
        title="5*theta^4 at theta=2",
        published_rows=(
            160.1200400049834,
            159.9999199699909,
            160.0000299999870,
            159.9999999999799,
            159.9999999999719,
            159.9999999999577,
            159.9999999999281,
            159.9999999999981,
        ),
        published_true=160.0,
        published_h=0.01,
        regeneration_h=0.001,
        match_tolerance=1e-9,
        notes=(
            "published step reads 0.01 but rows N=1,2 reproduce only with h=0.001 (used here); "
            "row N=3 carries an h=0.01 truncation signature (160 + 30*0.01^3) and is expected "
            "to mismatch at this tolerance",
        ),
    ),
    4: ReferenceTable(
        number=4,
        title="directional derivative of a 9-dimensional quadratic",
        published_rows=(
            3.958029296875054,
            3.957031250000576,
            3.957031250002056,
            3.957031250004276,
            3.957031250005520,
            3.957031250007444,
            3.957031250013154,
            3.957031250013043,
        ),
        published_true=3.9570312500138101,
        published_h=0.001,
        regeneration_h=0.001,
        match_tolerance=1e-12,
        notes=(
            "published rows and true value are inconsistent with the stated function, direction "
            "and gradient: with phi = sum_i 2^-i theta_i^2, theta_i = i and the stated unit "
            "direction, the analytic value is sum_i v_i i 2^(1-i) = -0.22265625; the published "
            "column instead equals the unnormalized all-ones directional run; computed rows use "
            "the stated inputs and are expected to mismatch",
        ),
    ),
    5: ReferenceTable(
        number=5,
        title="tandem-queue blocking-probability sensitivity at arrival rate 1",
        published_rows=(
            0.613180514116096,
            0.610046682208255,
            0.609671969013386,
            0.609661671019043,
            0.609662935724646,
            0.609663162694883,
            0.609663173459084,
            0.609663170509458,
        ),
        published_true=0.609663168,
        published_h=0.01,
        regeneration_h=QUEUE_H,
        match_tolerance=1e-8,
        notes=(
            "the published rows are not reproduced by the stated model (arrival 1, services 1 "
            "and 2, capacities 10): its sensitivity is 0.4548 by this solver, by an exact "
            "rational solve and by central differences, and no capacity/rate/blocking-rule "
            "reading reproduces the published column; computed rows are this model's values "
            "and are expected to mismatch",
        ),
    ),
}


def _table_oracle(number: int) -> tuple[FunctionOracle, float]:
    """Oracle and expansion point for a table's regeneration run."""
    if number in (1, 2):
        return FunctionOracle(CATALOG["sin"].evaluate, parallel_safe=True, name="sin"), 0.0
    if number == 3:
        return FunctionOracle(CATALOG["quartic5"].evaluate, parallel_safe=True, name="quartic5"), 2.0
    if number == 4:
        quadratic = quadratic_form(DIRECTIONAL_COEFFS)
        oracle = directional_oracle(
            quadratic.evaluate,
            DIRECTIONAL_THETA,
            DirectionSpec(DIRECTIONAL_DIRECTION),
            parallel_safe=True,
            name="directional quadratic",
        )
        return oracle, 0.0
    if number == 5:
        return queue_sensitivity_oracle(QUEUE_MODEL), QUEUE_MODEL.arrival_rate
    raise ValueError(f"no reference table {number}")


def _computed_reference(number: int) -> float:
    """Independent reference derivative for each table's experiment."""
    if number in (1, 2):
        return CATALOG["sin"].reference_derivative(0.0)
    if number == 3:
        return CATALOG["quartic5"].reference_derivative(2.0)
    if number == 4:
        quadratic = quadratic_form(DIRECTIONAL_COEFFS)
        return quadratic.reference_derivative(DIRECTIONAL_THETA, DIRECTIONAL_DIRECTION)
    if number == 5:
        step = 1e-5
        lo = blocking_probability(
            TandemQueueModel(
                arrival_rate=QUEUE_MODEL.arrival_rate - step,
                mu1=QUEUE_MODEL.mu1,
                mu2=QUEUE_MODEL.mu2,
                cap1=QUEUE_MODEL.cap1,
                cap2=QUEUE_MODEL.cap2,
            )
        )
        hi = blocking_probability(
            TandemQueueModel(
                arrival_rate=QUEUE_MODEL.arrival_rate + step,
                mu1=QUEUE_MODEL.mu1,
                mu2=QUEUE_MODEL.mu2,
                cap1=QUEUE_MODEL.cap1,
                cap2=QUEUE_MODEL.cap2,
            )
        )
        return (hi - lo) / (2.0 * step)
    raise ValueError(f"no reference table {number}")


def generate_table(number: int, *, max_workers: int | None = None) -> dict:
    """Regenerate one table and audit it against the stored expectations.

    One fixed-step run, as in the published experiments (no refinement): its
    trace supplies the rows, so every grid point is evaluated once.
    """
    spec = TABLES[number]
    oracle, theta = _table_oracle(number)
    config = BlendConfig(h0=spec.regeneration_h, n_max=N_MAX, max_h_refinements=0)
    report = run_blend(oracle, theta, config, max_workers=max_workers)
    rows = []
    for i, expected in enumerate(spec.published_rows):
        computed = report.trace.deltas[i]
        diff = abs(computed - expected)
        rows.append(
            {
                "N": i + 1,
                "computed": computed,
                "expected": expected,
                "abs_diff": diff,
                "match": diff <= spec.match_tolerance,
            }
        )
    return {
        "table": spec.number,
        "title": spec.title,
        "h": spec.regeneration_h,
        "published_h": spec.published_h,
        "match_tolerance": spec.match_tolerance,
        "rows": rows,
        "published_true": spec.published_true,
        "computed_reference": _computed_reference(number),
        "stabilized": report.stabilized,
        "driver_value": report.value,
        "agreed_digits": report.agreed_digits,
        "matches": sum(1 for row in rows if row["match"]),
        "notes": list(spec.notes),
    }
