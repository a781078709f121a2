"""Command-line front end.

Subcommands: ``diff`` (differentiate a catalog function or expression),
``direction`` (directional derivative of a quadratic form), ``plan``
(certified step-size planning from a growth envelope), ``tables`` (regenerate
the built-in reference tables and audit them), ``queue`` (tandem-queue
blocking-probability sensitivity).

The command line is read by one standard-library ``argparse`` tree, built at
import from ``_COMMANDS``: a subparser per command, abbreviations off.  A
value option takes the next token even when it starts with ``-``
(``--theta -1e-3``, ``--v -1,1,-1``): before parsing, each value option and
the token after it are joined as ``--opt=value``.  ``--opt=value`` works as
well, the last of a repeated option wins, and a positional may come after
the options.  A command line that starts with a command's name is parsed
once, by that command's parser alone (about 20-50 us per command, Python
3.11, 2 vCPUs); through the whole tree, a subparser would parse the same
tokens a second time.  The whole tree reads only a line that names
no command first (``--help``, ``--version``, an unknown command, an option
before the command).  The import builds the whole tree, every command's
arguments included, in about 1-2 ms, and nothing changes it afterwards.

Exit codes: 0 success/stabilized, 2 not stabilized, 64 usage error (an
output file that cannot be written included; a path that is a directory or
lies in a missing one is refused before the run), 70 runtime failure (an oracle
evaluation or the queue's stationary solve), 130 interrupted.  Exits 64 and
70 write exactly one ``error: <message>`` line to stderr; a usage error names
the option and its value where there is one.  ``blend`` without a command
writes its help to stderr before that line.  ``--help`` (on ``blend`` and on
each command) and ``--version`` write to stdout and exit 0.
Output formats: human table (default), csv, json; identical invocations
produce byte-identical output.  The BLEND_THREADS environment variable caps
concurrent oracle evaluations (0 = serial) without affecting any output byte;
the queue's oracle takes each grid as one stacked solve, so it does not apply
there.  A value that is not an integer >= 0 is a usage error of diff,
direction, tables and queue, the commands that evaluate an oracle.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from typing import Sequence

from . import __version__
from .blend_driver import PRECISION_CAP, BlendConfig, BlendReport, DirectionSpec, directional_oracle, run_blend
from .bounds_planner import BOUND_FORMULAS, DOMAIN_EDGE_SAFETY, GrowthEnvelope, h_domain, solve_k_exact_h
from .expressions import ExpressionError, compile_expression
from .models import (
    CATALOG,
    SingularGeneratorError,
    TandemQueueModel,
    _queue_oracle,
    _with_residual,
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


class _UsageError(Exception):
    """A command line or input the commands reject: ``main`` writes one ``error:`` line and returns 64."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` where argparse would print its usage and exit 2."""

    def error(self, message: str):
        raise _UsageError(message)


class _IntRange:
    """An integer option within [low, high] (no upper end when ``high`` is None)."""

    def __init__(self, low: int, high: int | None = None):
        self.low, self.high = low, high

    def __call__(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
        if value < self.low or (self.high is not None and value > self.high):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {self}")
        return value

    def __str__(self) -> str:
        return f"x>={self.low}" if self.high is None else f"{self.low}<=x<={self.high}"


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_output(path: str | None) -> None:
    """Refuse before the run, and without creating it, an output path that is a directory or lies in none.

    The message is the one ``_write_file`` gives for it; any other failure
    still shows when the file is written.
    """
    if not path:
        return
    if os.path.isdir(path) or path.endswith(os.sep):  # open refuses a trailing separator as a directory
        raise _UsageError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    try:
        # With a trailing separator, stat fails as open does on the file's
        # directory: ENOENT when it is missing, ENOTDIR when it is a file.
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _check_threads() -> int:
    """The BLEND_THREADS worker budget, read once per command.

    An invalid value is a usage error: one ``error:`` line naming it.
    """
    try:
        return _env_workers()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


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
        sys.stdout.write(text)
        sys.stdout.flush()


def _build_config(h0: float, n_max: int, refinements: int, min_digits: int) -> BlendConfig:
    try:
        return BlendConfig(h0=h0, n_max=n_max, max_h_refinements=refinements, min_agree_digits=min_digits)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


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
            "h_used": report.trace.h,
            "refinements": report.refinements,
            "eval_count": report.eval_count,
        },
        "notes": notes,
        **extra,
    }
    _emit(payload, fmt, out_path, lambda p: p["trace"])
    return EXIT_OK if report.stabilized else EXIT_NOT_STABILIZED


def cmd_diff(function, theta, fmt, out_path, **driver):
    """Differentiate a catalog function or an expression in theta.

    FUNCTION is a catalog name (sin, quartic5) or an arithmetic expression
    such as "theta^2*sin(theta)".  Exits 0 when stabilized, 2 otherwise.
    """
    workers = _check_threads()
    if not math.isfinite(theta):
        raise _UsageError(f"--theta must be a finite real, got {theta!r}")
    notes: list[str] = []
    entry = CATALOG.get(function)
    if entry is not None:
        oracle = FunctionOracle(entry.evaluate, parallel_safe=True, name=entry.name)
        envelope = entry.envelope
    else:
        try:
            compiled = compile_expression(function)
        except ExpressionError as exc:
            raise _UsageError(f"unknown function {function!r}: {exc}") from exc
        oracle = FunctionOracle(compiled, parallel_safe=True, name="expression")
        envelope = None
    config = _build_config(**driver)
    report = run_blend(oracle, theta, config, max_workers=workers)
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
        raise _UsageError(f"{flag} expects a comma-separated list of reals: {exc}") from exc
    if not values:
        raise _UsageError(f"{flag} expects at least one value")
    if not all(math.isfinite(v) for v in values):
        raise _UsageError(f"{flag} expects finite reals, got {text!r}")
    return values


def cmd_direction(a_text, theta_text, v_text, normalize, fmt, out_path, **driver):
    """Directional derivative of phi(theta) = sum_i a_i*theta_i^2 along v.

    The run differentiates the scalar restriction g(t) = phi(theta + t*v) at
    t = 0, so stencil point k evaluates phi at theta + k*h*v (the step scales
    the direction).  Demonstrates dimension independence: the report's
    eval_count depends only on the truncation order and refinement count,
    never on the dimension.
    """
    workers = _check_threads()
    coeffs = _parse_floats(a_text, "--a")
    theta = _parse_floats(theta_text, "--theta")
    vector = _parse_floats(v_text, "--v")
    if not (len(coeffs) == len(theta) == len(vector)):
        raise _UsageError(
            f"dimension mismatch: {len(coeffs)} coefficients, {len(theta)} theta components, "
            f"{len(vector)} direction components"
        )
    try:
        spec = DirectionSpec.unit(vector) if normalize else DirectionSpec(vector)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    quadratic = quadratic_form(coeffs)
    oracle = directional_oracle(quadratic.evaluate, theta, spec, parallel_safe=True)
    config = _build_config(**driver)
    report = run_blend(oracle, 0.0, config, max_workers=workers)
    analytic = quadratic.reference_derivative(theta, spec.direction)
    inputs = {"dimension": len(coeffs), "a": list(coeffs), "theta": list(theta), "v": list(spec.direction)}
    reference = analytic if math.isfinite(analytic) else None
    return _emit_run("direction", inputs, config, report, [], fmt, out_path, analytic_reference=reference)


def cmd_plan(magnitude, growth, order, digits, formula, fmt, out_path):
    """Solve for the step size making the order-N approximation K-digit exact.

    Requires the growth envelope (M, b) with sup|phi^(n)| <= M*b^n on the
    stencil interval; the certified step domain is h < 1/(2*b*e).
    """
    try:
        envelope = GrowthEnvelope(magnitude=magnitude, growth=growth)
        plan = solve_k_exact_h(envelope, order, digits, formula)
    except (ValueError, ArithmeticError) as exc:
        raise _UsageError(str(exc)) from exc
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


def cmd_tables(which, fmt, out_path):
    """Regenerate reference tables (1-5 or "all") and audit each cell.

    Every cell is tagged match/mismatch against the embedded published value;
    the notes record the step reinterpretations and known inconsistencies.
    """
    workers = _check_threads()
    if which == "all":
        numbers = sorted(TABLES)
    else:
        try:
            numbers = [int(which)]
        except ValueError:
            raise _UsageError(f"WHICH must be 1-5 or 'all', got {which!r}") from None
        if numbers[0] not in TABLES:
            raise _UsageError(f"no reference table {numbers[0]}; choose 1-5 or 'all'")
    tables = [generate_table(number, max_workers=workers) for number in numbers]
    payload = {"command": "tables", "tables": tables}
    _emit(payload, fmt, out_path, lambda p: [{"table": t["table"], **row} for t in p["tables"] for row in t["rows"]])
    return EXIT_OK


def cmd_queue(arrival_rate, mu1, mu2, cap1, cap2, stationary_csv, fmt, out_path, **driver):
    """Sensitivity of the tandem-queue blocking probability to the arrival rate.

    Each attempt of the run solves its whole grid as one stack.  The
    diagnostics and --stationary-csv describe the base rate, which is slot 0
    of every grid, so they come from the last attempt's stack: the command
    makes one stationary solve per attempt and none besides, and computes
    the balance residual of the base row alone.  The CSV is written after
    the run, so a run that fails leaves none behind.
    """
    workers = _check_threads()
    try:
        model = TandemQueueModel(arrival_rate=arrival_rate, mu1=mu1, mu2=mu2, cap1=cap1, cap2=cap2)
        if model.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive for a sensitivity run")
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    oracle, stationary = _queue_oracle(model)
    config = _build_config(**driver)
    report = run_blend(oracle, model.arrival_rate, config, max_workers=workers)
    # Slot 0 of every attempt's grid is the base rate, so the oracle's latest
    # stack holds its row.
    base = _with_residual(model, stationary([model.arrival_rate])[0])
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


# Each argument is (name or flag, add_argument keywords); _add_argument shows
# its default or "required", and an _IntRange type's range, in its help.
_OUTPUT_OPTIONS = (
    ("--format", {"dest": "fmt", "choices": ("table", "csv", "json"), "default": "table", "help": "Output format."}),
    ("--out", {"dest": "out_path", "metavar": "PATH", "help": "Write output to a file instead of stdout."}),
)
_DRIVER_OPTIONS = (
    ("--h0", {"type": float, "default": 0.01, "help": "Initial step size."}),
    ("--n-max", {"type": _IntRange(2, ORDER_CAP), "default": BlendConfig.n_max, "help": "Truncation order."}),
    ("--refinements", {"type": _IntRange(0), "default": BlendConfig.max_h_refinements, "help": "Maximum step refinements."}),
    ("--min-digits", {"type": _IntRange(1, PRECISION_CAP), "default": BlendConfig.min_agree_digits, "help": "Digits of agreement required to stabilize."}),
)

#: Command name -> (function, arguments).
_COMMANDS = {
    "diff": (
        cmd_diff,
        (
            ("function", {"metavar": "FUNCTION", "help": "Catalog name or expression in theta."}),
            ("--theta", {"type": float, "default": 0.0, "help": "Expansion point."}),
            *_DRIVER_OPTIONS,
            *_OUTPUT_OPTIONS,
        ),
    ),
    "direction": (
        cmd_direction,
        (
            ("--a", {"dest": "a_text", "required": True, "help": "Comma-separated quadratic coefficients a_i."}),
            ("--theta", {"dest": "theta_text", "required": True, "help": "Comma-separated expansion point."}),
            ("--v", {"dest": "v_text", "required": True, "help": "Comma-separated direction vector."}),
            ("--normalize", {"action": "store_true", "help": "Normalize the direction to unit length first."}),
            *_DRIVER_OPTIONS,
            *_OUTPUT_OPTIONS,
        ),
    ),
    "plan": (
        cmd_plan,
        (
            ("--M", {"dest": "magnitude", "type": float, "required": True, "help": "Envelope magnitude M."}),
            ("--b", {"dest": "growth", "type": float, "required": True, "help": "Envelope growth rate b."}),
            ("--N", {"dest": "order", "type": _IntRange(1, ORDER_CAP), "required": True, "help": "Truncation order."}),
            ("--K", {"dest": "digits", "type": _IntRange(1), "required": True, "help": "Digits to make exact."}),
            ("--formula", {"choices": tuple(BOUND_FORMULAS), "default": "lemma2", "help": "Remainder-bound form."}),
            *_OUTPUT_OPTIONS,
        ),
    ),
    "tables": (
        cmd_tables,
        (("which", {"metavar": "WHICH", "nargs": "?", "default": "all", "help": 'Table number 1-5 or "all".'}), *_OUTPUT_OPTIONS),
    ),
    "queue": (
        cmd_queue,
        (
            ("--lambda", {"dest": "arrival_rate", "type": float, "default": 1.0, "help": "Arrival rate (sensitivity parameter)."}),
            ("--mu1", {"type": float, "default": 1.0, "help": "Station-1 service rate."}),
            ("--mu2", {"type": float, "default": 2.0, "help": "Station-2 service rate."}),
            (
                "--cap1",
                {
                    "type": _IntRange(1, 40),
                    "default": 10,
                    "help": "Station-1 capacity.  Each evaluation solves the (cap1+1)*(cap2+1)-state chain level by "
                    "level in O(cap1*cap2^3), so capacities up to 40 are practical.",
                },
            ),
            ("--cap2", {"type": _IntRange(1, 40), "default": 10, "help": "Station-2 capacity (sets the block size cap2+1 of the level-by-level solve)."}),
            ("--stationary-csv", {"metavar": "PATH", "help": "Also export the base model's stationary vector as CSV."}),
            *_DRIVER_OPTIONS,
            *_OUTPUT_OPTIONS,
        ),
    ),
}

#: The options of each command that take a value, which _join_values attaches to them.
_VALUE_FLAGS = {
    name: frozenset(flag for flag, keywords in arguments if flag.startswith("-") and keywords.get("action") != "store_true")
    for name, (_, arguments) in _COMMANDS.items()
}


def _add_argument(command: _Parser, flag: str, keywords: dict) -> None:
    """Add one argument, with its default, range or "required" in its help and a FLOAT, INTEGER or TEXT metavar."""
    kind = keywords.get("type")
    notes = []
    if keywords.get("required"):
        notes.append("required")
    elif keywords.get("default") is not None:
        notes.append(f"default: {keywords['default']}")
    if isinstance(kind, _IntRange):
        notes.append(str(kind))
    extra = {"help": f"{keywords['help']} [{'; '.join(notes)}]" if notes else keywords["help"]}
    if not {"metavar", "choices", "action"} & keywords.keys():
        extra["metavar"] = "INTEGER" if isinstance(kind, _IntRange) else "FLOAT" if kind is float else "TEXT"
    command.add_argument(flag, **{**keywords, **extra})


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The whole tree, and the parser of each command by name."""
    parser = _Parser(prog="blend", description="Black-box numerical differentiation with certified step planning.", add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--version", action="version", version=f"blend, version {__version__}", help="Show the version and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", title="commands", required=True)
    for name, (function, arguments) in _COMMANDS.items():
        # Dedents the docstring on Python versions that keep its indentation.
        doc = function.__doc__.replace("\n    ", "\n")
        command = commands.add_parser(
            name,
            help=doc.partition("\n")[0],
            description=doc,
            add_help=False,
            allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for flag, keywords in arguments:
            _add_argument(command, flag, keywords)
        command.add_argument("--help", action="help", help="Show this message and exit.")
    return parser, commands.choices


_PARSER, _COMMAND_PARSERS = _build_parser()


def _join_values(args: list[str]) -> list[str]:
    """Attach each value option of the command to its value: ``--theta -1e-3`` becomes ``--theta=-1e-3``.

    A value option takes the next token whatever it looks like; argparse
    would read a value that starts with ``-`` as an option.  Tokens after
    ``--`` stay as they are.
    """
    flags = _VALUE_FLAGS.get(args[0], ()) if args else ()
    joined = args[:1]
    i = 1
    while i < len(args):
        token = args[i]
        if token == "--":
            joined += args[i:]
            break
        if token in flags and i + 1 < len(args):
            joined.append(f"{token}={args[i + 1]}")
            i += 2
        else:
            joined.append(token)
            i += 1
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if not args:
            _PARSER.print_help(sys.stderr)
            raise _UsageError("missing command")
        parser = _COMMAND_PARSERS.get(args[0])
        try:
            if parser is None:
                # No command first: the whole tree writes --help or --version
                # and exits, or raises its usage error; it returns no namespace.
                _PARSER.parse_args(args)
            options = vars(parser.parse_args(_join_values(args)[1:]))
        except SystemExit as exc:  # --help or --version has written its text
            return exc.code
        function = _COMMANDS[args[0]][0]
        _check_output(options.get("out_path"))
        _check_output(options.get("stationary_csv"))
        return function(**options)
    except _UsageError as exc:
        message, code = str(exc), EXIT_USAGE
    except (OracleEvaluationError, SingularGeneratorError) as exc:
        message, code = str(exc), EXIT_RUNTIME
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # The reader closed stdout (``blend tables all | head -1``): exit 1
        # without a traceback, and let the exit's flush of stdout go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    print(f"error: {message}", file=sys.stderr)
    return code
