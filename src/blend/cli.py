"""Command-line front end.

Subcommands: ``diff`` (differentiate a catalog function or expression),
``direction`` (directional derivative of a quadratic form), ``plan``
(certified step-size planning from a growth envelope), ``tables`` (regenerate
the built-in reference tables and audit them), ``queue`` (tandem-queue
blocking-probability sensitivity).

Exit codes: 0 success/stabilized, 2 not stabilized, 64 usage error, 70
runtime (oracle) failure.  Output formats: human table (default), csv, json;
identical invocations produce byte-identical output.  The BLEND_THREADS
environment variable caps concurrent oracle evaluations (0 = serial) without
affecting any output byte.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import click

from . import __version__
from .blend_driver import BlendConfig, BlendReport, DirectionSpec, directional_oracle, run_blend
from .bounds_planner import BOUND_FORMULAS, GrowthEnvelope, h_domain, solve_k_exact_h
from .expressions import ExpressionError, compile_expression
from .models import (
    CATALOG,
    TandemQueueModel,
    build_generator,  # noqa: F401  unused here; perfbench/spans.py wraps it under this name
    quadratic_form,
    queue_sensitivity_oracle,
    solve_stationary,
)
from .oracle import FunctionOracle, OracleEvaluationError
from .output import canonical_json, render_csv, render_table
from .reference_tables import TABLES, generate_table
from .series_core import ORDER_CAP

EXIT_OK = 0
EXIT_NOT_STABILIZED = 2
EXIT_USAGE = 64
EXIT_RUNTIME = 70


def _format_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]), default="table", show_default=True, help="Output format.")(fn)
    fn = click.option("--out", "out_path", type=click.Path(dir_okay=False, writable=True), default=None, help="Write output to a file instead of stdout.")(fn)
    return fn


def _driver_options(fn):
    fn = click.option("--h0", type=float, default=0.01, show_default=True, help="Initial step size.")(fn)
    fn = click.option("--n-max", type=click.IntRange(2, ORDER_CAP), default=8, show_default=True, help="Truncation order.")(fn)
    fn = click.option("--refinements", type=click.IntRange(min=0), default=8, show_default=True, help="Maximum step refinements.")(fn)
    fn = click.option("--no-refine", is_flag=True, help="Disable step refinement (same as --refinements 0).")(fn)
    fn = click.option("--min-digits", type=click.IntRange(min=1), default=2, show_default=True, help="Digits of agreement required to stabilize.")(fn)
    return fn


def _emit(payload: dict, fmt: str, out_path: str | None, csv_rows) -> None:
    if fmt == "json":
        text = canonical_json(payload) + "\n"
    elif fmt == "csv":
        text = render_csv(csv_rows(payload))
    else:
        text = render_table(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _trace_rows(payload: dict):
    return payload["trace"]


def _report_payload(report: BlendReport) -> dict:
    return {
        "value": report.value if _finite(report.value) else None,
        "agreed_digits": report.agreed_digits,
        "stabilized": report.stabilized,
        "h_used": report.h_used,
        "refinements": report.refinements,
        "eval_count": report.eval_count,
    }


def _run_payload(command: str, config_payload: dict, report: BlendReport, notes: list[str]) -> dict:
    trace_rows = [{"N": i + 1, "delta": d if _finite(d) else None} for i, d in enumerate(report.trace.deltas)]
    return {
        "command": command,
        "config": config_payload,
        "trace": trace_rows,
        "report": _report_payload(report),
        "notes": notes,
    }


def _finite(x: float) -> bool:
    return math.isfinite(x)


def _build_config(h0: float, n_max: int, refinements: int, no_refine: bool, min_digits: int) -> BlendConfig:
    if no_refine:
        refinements = 0
    try:
        return BlendConfig(h0=h0, n_max=n_max, max_h_refinements=refinements, min_agree_digits=min_digits)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group(name="blend")
@click.version_option(version=__version__, prog_name="blend")
def cli() -> None:
    """Black-box numerical differentiation with certified step planning."""


@cli.command(name="diff")
@click.argument("function")
@click.option("--theta", type=float, default=0.0, show_default=True, help="Expansion point.")
@_driver_options
@_format_options
def cmd_diff(function, theta, h0, n_max, refinements, no_refine, min_digits, fmt, out_path):
    """Differentiate a catalog function or an expression in theta.

    FUNCTION is a catalog name (sin, quartic5) or an arithmetic expression
    such as "theta^2*sin(theta)".  Exits 0 when stabilized, 2 otherwise.
    """
    notes: list[str] = []
    entry = CATALOG.get(function)
    if entry is not None:
        oracle = FunctionOracle(entry.evaluate, parallel_safe=True, name=entry.name)
        envelope = entry.envelope
    else:
        try:
            compiled = compile_expression(function)
        except ExpressionError as exc:
            raise click.UsageError(f"unknown function {function!r}: {exc}") from exc
        oracle = FunctionOracle(compiled, parallel_safe=True, name="expression")
        envelope = None
    config = _build_config(h0, n_max, refinements, no_refine, min_digits)
    report = run_blend(oracle, theta, config)
    if envelope is not None and report.refinements == 0 and config.h0 >= h_domain(envelope):
        notes.append(
            f"step h0={config.h0:g} is at or above the certified-step limit "
            f"{h_domain(envelope):.6g} for {function}; digit agreement at this step "
            "does not certify correctness"
        )
    payload = _run_payload(
        "diff",
        {
            "function": function,
            "theta": theta,
            "h0": config.h0,
            "n_max": config.n_max,
            "max_refinements": config.max_h_refinements,
            "min_digits": config.min_agree_digits,
        },
        report,
        notes,
    )
    _emit(payload, fmt, out_path, _trace_rows)
    return EXIT_OK if report.stabilized else EXIT_NOT_STABILIZED


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise click.UsageError(f"{flag} expects a comma-separated list of reals: {exc}") from exc
    if not values:
        raise click.UsageError(f"{flag} expects at least one value")
    return values


@cli.command(name="direction")
@click.option("--a", "a_text", required=True, help="Comma-separated quadratic coefficients a_i.")
@click.option("--theta", "theta_text", required=True, help="Comma-separated expansion point.")
@click.option("--v", "v_text", required=True, help="Comma-separated direction vector.")
@click.option("--normalize", is_flag=True, help="Normalize the direction to unit length first.")
@_driver_options
@_format_options
def cmd_direction(a_text, theta_text, v_text, normalize, h0, n_max, refinements, no_refine, min_digits, fmt, out_path):
    """Directional derivative of phi(theta) = sum_i a_i*theta_i^2 along v.

    The run differentiates the scalar restriction g(t) = phi(theta + t*v) at
    t = 0, so stencil point k evaluates phi at theta + k*h*v (the step scales
    the direction).  Demonstrates dimension independence: the report's
    eval_count depends only on the truncation order and refinement count,
    never on the dimension.
    """
    coeffs = _parse_floats(a_text, "--a")
    theta = _parse_floats(theta_text, "--theta")
    vector = _parse_floats(v_text, "--v")
    if not (len(coeffs) == len(theta) == len(vector)):
        raise click.UsageError(
            f"dimension mismatch: {len(coeffs)} coefficients, {len(theta)} theta components, "
            f"{len(vector)} direction components"
        )
    try:
        spec = DirectionSpec.unit(vector) if normalize else DirectionSpec(vector)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    quadratic = quadratic_form(coeffs)
    oracle = directional_oracle(quadratic.evaluate, theta, spec, parallel_safe=True)
    config = _build_config(h0, n_max, refinements, no_refine, min_digits)
    report = run_blend(oracle, 0.0, config)
    analytic = quadratic.reference_derivative(theta, spec.direction)
    payload = _run_payload(
        "direction",
        {
            "dimension": len(coeffs),
            "a": list(coeffs),
            "theta": list(theta),
            "v": list(spec.direction),
            "h0": config.h0,
            "n_max": config.n_max,
            "max_refinements": config.max_h_refinements,
            "min_digits": config.min_agree_digits,
        },
        report,
        [],
    )
    payload["analytic_reference"] = analytic
    _emit(payload, fmt, out_path, _trace_rows)
    return EXIT_OK if report.stabilized else EXIT_NOT_STABILIZED


@cli.command(name="plan")
@click.option("--M", "magnitude", type=float, required=True, help="Envelope magnitude M.")
@click.option("--b", "growth", type=float, required=True, help="Envelope growth rate b.")
@click.option("--N", "order", type=click.IntRange(1, ORDER_CAP), required=True, help="Truncation order.")
@click.option("--K", "digits", type=click.IntRange(min=1), required=True, help="Digits to make exact.")
@click.option("--formula", type=click.Choice(list(BOUND_FORMULAS)), default="lemma2", show_default=True, help="Remainder-bound form.")
@_format_options
def cmd_plan(magnitude, growth, order, digits, formula, fmt, out_path):
    """Solve for the step size making the order-N approximation K-digit exact.

    Requires the growth envelope (M, b) with sup|phi^(n)| <= M*b^n on the
    stencil interval; the certified step domain is h < 1/(2*b*e).
    """
    try:
        envelope = GrowthEnvelope(magnitude=magnitude, growth=growth)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    plan = solve_k_exact_h(envelope, order, digits, formula)
    notes = []
    if plan.clipped:
        notes.append(
            "target accuracy is looser than the bound anywhere in the step domain; "
            "returning the domain edge shrunk by the 0.99 safety factor"
        )
    payload = {
        "command": "plan",
        "config": {"M": envelope.magnitude, "b": envelope.growth, "N": order, "K": digits, "formula": formula},
        "h_domain_limit": h_domain(envelope),
        "h_star": plan.h,
        "bound_at_h_star": plan.bound,
        "target": plan.target,
        "clipped": plan.clipped,
        "notes": notes,
    }
    _emit(payload, fmt, out_path, lambda p: [
        {
            "h_domain_limit": p["h_domain_limit"],
            "h_star": p["h_star"],
            "bound_at_h_star": p["bound_at_h_star"],
            "target": p["target"],
            "clipped": p["clipped"],
        }
    ])
    return EXIT_OK


@cli.command(name="tables")
@click.argument("which", default="all")
@_format_options
def cmd_tables(which, fmt, out_path):
    """Regenerate reference tables (1-5 or "all") and audit each cell.

    Every cell is tagged match/mismatch against the embedded published value;
    the notes record the step reinterpretations and known inconsistencies.
    """
    if which == "all":
        numbers = sorted(TABLES)
    else:
        try:
            numbers = [int(which)]
        except ValueError:
            raise click.UsageError(f"WHICH must be 1-5 or 'all', got {which!r}") from None
        if numbers[0] not in TABLES:
            raise click.UsageError(f"no reference table {numbers[0]}; choose 1-5 or 'all'")
    tables = [generate_table(number) for number in numbers]
    payload = {"command": "tables", "tables": tables}

    def csv_rows(p):
        rows = []
        for table in p["tables"]:
            for row in table["rows"]:
                rows.append(
                    {
                        "table": table["table"],
                        "N": row["N"],
                        "computed": row["computed"],
                        "expected": row["expected"],
                        "abs_diff": row["abs_diff"],
                        "match": row["match"],
                    }
                )
        return rows

    _emit(payload, fmt, out_path, csv_rows)
    return EXIT_OK


@cli.command(name="queue")
@click.option("--lambda", "arrival_rate", type=float, default=1.0, show_default=True, help="Arrival rate (sensitivity parameter).")
@click.option("--mu1", type=float, default=1.0, show_default=True, help="Station-1 service rate.")
@click.option("--mu2", type=float, default=2.0, show_default=True, help="Station-2 service rate.")
@click.option("--cap1", type=click.IntRange(1, 40), default=10, show_default=True, help="Station-1 capacity.  Each evaluation solves the (cap1+1)*(cap2+1)-state chain level by level in O(cap1*cap2^3), so capacities up to 40 are practical.")
@click.option("--cap2", type=click.IntRange(1, 40), default=10, show_default=True, help="Station-2 capacity (sets the block size cap2+1 of the level-by-level solve).")
@click.option("--stationary-csv", type=click.Path(dir_okay=False, writable=True), default=None, help="Also export the base model's stationary vector as CSV.")
@_driver_options
@_format_options
def cmd_queue(arrival_rate, mu1, mu2, cap1, cap2, stationary_csv, h0, n_max, refinements, no_refine, min_digits, fmt, out_path):
    """Sensitivity of the tandem-queue blocking probability to the arrival rate."""
    try:
        model = TandemQueueModel(arrival_rate=arrival_rate, mu1=mu1, mu2=mu2, cap1=cap1, cap2=cap2)
        if model.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive for a sensitivity run")
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    stationary = solve_stationary(model)
    if stationary_csv:
        rows = [
            {"n1": n1, "n2": n2, "prob": float(stationary.probabilities[model.state_index(n1, n2)])}
            for n1, n2 in model.states()
        ]
        with open(stationary_csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(render_csv(rows))
    oracle = queue_sensitivity_oracle(model)
    config = _build_config(h0, n_max, refinements, no_refine, min_digits)
    report = run_blend(oracle, model.arrival_rate, config)
    payload = _run_payload(
        "queue",
        {
            "lambda": model.arrival_rate,
            "mu1": model.mu1,
            "mu2": model.mu2,
            "cap1": model.cap1,
            "cap2": model.cap2,
            "h0": config.h0,
            "n_max": config.n_max,
            "max_refinements": config.max_h_refinements,
            "min_digits": config.min_agree_digits,
        },
        report,
        [],
    )
    payload["diagnostics"] = {
        "states": model.state_count,
        "stationary_residual_inf_norm": stationary.residual_norm,
        "stationary_sum": float(stationary.probabilities.sum()),
        "blocking_probability": float(
            stationary.probabilities[model.state_index(model.cap1, 0) : model.state_index(model.cap1, model.cap2) + 1].sum()
        ),
    }
    _emit(payload, fmt, out_path, _trace_rows)
    return EXIT_OK if report.stabilized else EXIT_NOT_STABILIZED


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        return 130
    except OracleEvaluationError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_RUNTIME
    return int(result) if isinstance(result, int) else EXIT_OK


def entry() -> None:  # console-script hook
    sys.exit(main())
