"""Command-line front end.

Subcommands: ``diff`` (differentiate a catalog function or expression),
``direction`` (directional derivative of a quadratic form), ``plan``
(certified step-size planning from a growth envelope), ``tables`` (regenerate
the built-in reference tables and audit them), ``queue`` (tandem-queue
blocking-probability sensitivity).

Exit codes: 0 success/stabilized, 2 not stabilized, 64 usage error (an
output file that cannot be written included), 70 runtime failure (an oracle
evaluation or the queue's stationary solve).
Output formats: human table (default), csv, json; identical invocations
produce byte-identical output.  The BLEND_THREADS environment variable caps
concurrent oracle evaluations (0 = serial) without affecting any output byte;
the queue's oracle takes each grid as one stacked solve, so it does not apply
there.  A value that is not an integer >= 0 is a usage error of diff,
direction, tables and queue, the commands that evaluate an oracle.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import click

from . import __version__
from .blend_driver import PRECISION_CAP, BlendConfig, BlendReport, DirectionSpec, directional_oracle, run_blend
from .bounds_planner import BOUND_FORMULAS, DOMAIN_EDGE_SAFETY, GrowthEnvelope, h_domain, solve_k_exact_h
from .expressions import ExpressionError, compile_expression
from .models import (
    CATALOG,
    SingularGeneratorError,
    TandemQueueModel,
    _queue_oracle,
    blocking_mass,
    build_generator,  # noqa: F401  unused here; perfbench/spans.py wraps it under this name
    quadratic_form,
    solve_stationary,  # noqa: F401  unused here; perfbench/spans.py wraps it under this name
)
from .oracle import FunctionOracle, OracleEvaluationError
from .output import canonical_json, render_csv, render_table
from .reference_tables import TABLES, generate_table
from .series_core import ORDER_CAP, _env_workers

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
    fn = click.option("--min-digits", type=click.IntRange(1, PRECISION_CAP), default=2, show_default=True, help="Digits of agreement required to stabilize.")(fn)
    return fn


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {path}: {exc.strerror or exc}", err=True)
        raise click.exceptions.Exit(EXIT_USAGE) from exc


def _check_threads() -> None:
    """An invalid BLEND_THREADS is a usage error: one ``error:`` line naming it."""
    try:
        _env_workers()
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        raise click.exceptions.Exit(EXIT_USAGE) from exc


def _emit(payload: dict, fmt: str, out_path: str | None, csv_rows) -> None:
    if fmt == "json":
        text = canonical_json(payload) + "\n"
    elif fmt == "csv":
        text = render_csv(csv_rows(payload))
    else:
        text = render_table(payload)
    if out_path:
        _write_file(out_path, text)
    else:
        click.echo(text, nl=False)


def _build_config(h0: float, n_max: int, refinements: int, min_digits: int) -> BlendConfig:
    try:
        return BlendConfig(h0=h0, n_max=n_max, max_h_refinements=refinements, min_agree_digits=min_digits)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _emit_run(
    command: str, inputs: dict, config: BlendConfig, report: BlendReport, notes: list[str], fmt: str, out_path: str | None, **extra
) -> int:
    """Write one driver run and return its exit code.

    The record's keys, in order: command, config (``inputs``, then the four
    driver settings), trace, report, notes, then ``extra``.  Non-finite
    partial sums and values are written as null.
    """
    payload = {
        "command": command,
        "config": {
            **inputs,
            "h0": config.h0,
            "n_max": config.n_max,
            "max_refinements": config.max_h_refinements,
            "min_digits": config.min_agree_digits,
        },
        "trace": [{"N": i + 1, "delta": d if math.isfinite(d) else None} for i, d in enumerate(report.trace.deltas)],
        "report": {
            "value": report.value if math.isfinite(report.value) else None,
            "agreed_digits": report.agreed_digits,
            "stabilized": report.stabilized,
            "h_used": report.h_used,
            "refinements": report.refinements,
            "eval_count": report.eval_count,
        },
        "notes": notes,
        **extra,
    }
    _emit(payload, fmt, out_path, lambda p: p["trace"])
    return EXIT_OK if report.stabilized else EXIT_NOT_STABILIZED


@click.group(name="blend")
@click.version_option(version=__version__, prog_name="blend")
def cli() -> None:
    """Black-box numerical differentiation with certified step planning."""


@cli.command(name="diff")
@click.argument("function")
@click.option("--theta", type=float, default=0.0, show_default=True, help="Expansion point.")
@_driver_options
@_format_options
def cmd_diff(function, theta, fmt, out_path, **driver):
    """Differentiate a catalog function or an expression in theta.

    FUNCTION is a catalog name (sin, quartic5) or an arithmetic expression
    such as "theta^2*sin(theta)".  Exits 0 when stabilized, 2 otherwise.
    """
    _check_threads()
    if not math.isfinite(theta):
        raise click.UsageError(f"--theta must be a finite real, got {theta!r}")
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
    config = _build_config(**driver)
    report = run_blend(oracle, theta, config)
    if envelope is not None and report.refinements == 0 and config.h0 >= h_domain(envelope):
        notes.append(
            f"step h0={config.h0:g} is at or above the certified-step limit "
            f"{h_domain(envelope):.6g} for {function}; digit agreement at this step "
            "does not certify correctness"
        )
    return _emit_run("diff", {"function": function, "theta": theta}, config, report, notes, fmt, out_path)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise click.UsageError(f"{flag} expects a comma-separated list of reals: {exc}") from exc
    if not values:
        raise click.UsageError(f"{flag} expects at least one value")
    if not all(math.isfinite(v) for v in values):
        raise click.UsageError(f"{flag} expects finite reals, got {text!r}")
    return values


@cli.command(name="direction")
@click.option("--a", "a_text", required=True, help="Comma-separated quadratic coefficients a_i.")
@click.option("--theta", "theta_text", required=True, help="Comma-separated expansion point.")
@click.option("--v", "v_text", required=True, help="Comma-separated direction vector.")
@click.option("--normalize", is_flag=True, help="Normalize the direction to unit length first.")
@_driver_options
@_format_options
def cmd_direction(a_text, theta_text, v_text, normalize, fmt, out_path, **driver):
    """Directional derivative of phi(theta) = sum_i a_i*theta_i^2 along v.

    The run differentiates the scalar restriction g(t) = phi(theta + t*v) at
    t = 0, so stencil point k evaluates phi at theta + k*h*v (the step scales
    the direction).  Demonstrates dimension independence: the report's
    eval_count depends only on the truncation order and refinement count,
    never on the dimension.
    """
    _check_threads()
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
    config = _build_config(**driver)
    report = run_blend(oracle, 0.0, config)
    analytic = quadratic.reference_derivative(theta, spec.direction)
    inputs = {"dimension": len(coeffs), "a": list(coeffs), "theta": list(theta), "v": list(spec.direction)}
    reference = analytic if math.isfinite(analytic) else None
    return _emit_run("direction", inputs, config, report, [], fmt, out_path, analytic_reference=reference)


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
        plan = solve_k_exact_h(envelope, order, digits, formula)
    except (ValueError, ArithmeticError) as exc:
        raise click.UsageError(str(exc)) from exc
    notes = []
    if plan.clipped:
        notes.append(
            "target accuracy is looser than the bound anywhere in the step domain; "
            f"returning the domain edge shrunk by the {DOMAIN_EDGE_SAFETY:g} safety factor"
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
    _emit(payload, fmt, out_path, lambda p: [{k: v for k, v in p.items() if k not in ("command", "config", "notes")}])
    return EXIT_OK


@cli.command(name="tables")
@click.argument("which", default="all")
@_format_options
def cmd_tables(which, fmt, out_path):
    """Regenerate reference tables (1-5 or "all") and audit each cell.

    Every cell is tagged match/mismatch against the embedded published value;
    the notes record the step reinterpretations and known inconsistencies.
    """
    _check_threads()
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
    _emit(payload, fmt, out_path, lambda p: [{"table": t["table"], **row} for t in p["tables"] for row in t["rows"]])
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
def cmd_queue(arrival_rate, mu1, mu2, cap1, cap2, stationary_csv, fmt, out_path, **driver):
    """Sensitivity of the tandem-queue blocking probability to the arrival rate.

    Each attempt of the run solves its whole grid as one stack.  The
    diagnostics and --stationary-csv describe the base rate, which is slot 0
    of every grid, so they come from the last attempt's stack: the command
    makes one stationary solve per attempt and none besides.  The CSV is
    written after the run, so a run that fails leaves none behind.
    """
    _check_threads()
    try:
        model = TandemQueueModel(arrival_rate=arrival_rate, mu1=mu1, mu2=mu2, cap1=cap1, cap2=cap2)
        if model.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive for a sensitivity run")
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    oracle, stationary = _queue_oracle(model)
    config = _build_config(**driver)
    report = run_blend(oracle, model.arrival_rate, config)
    # Slot 0 of every attempt's grid is the base rate, so the oracle's latest
    # stack holds its solve.
    (base,) = stationary([model.arrival_rate])
    if stationary_csv:
        rows = [{"n1": n1, "n2": n2, "prob": float(base.probabilities[model.state_index(n1, n2)])} for n1, n2 in model.states()]
        _write_file(stationary_csv, render_csv(rows))
    inputs = {"lambda": model.arrival_rate, "mu1": model.mu1, "mu2": model.mu2, "cap1": model.cap1, "cap2": model.cap2}
    diagnostics = {
        "states": model.state_count,
        "stationary_residual_inf_norm": base.residual_norm,
        "stationary_sum": float(base.probabilities.sum()),
        "blocking_probability": blocking_mass(model, base.probabilities),
    }
    return _emit_run("queue", inputs, config, report, [], fmt, out_path, diagnostics=diagnostics)


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
    except (OracleEvaluationError, SingularGeneratorError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_RUNTIME
    return int(result) if isinstance(result, int) else EXIT_OK


def entry() -> None:  # console-script hook
    sys.exit(main())
