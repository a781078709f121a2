"""The four workloads: their inputs, the timed operation of each op, and its check.

A workload is one round of ops, built once per run and repeated whole until
the run's time is up, so every run attempts the same ops in the same
proportion.  Inputs a ``run_blend`` stabilization run sees never depend on the
seed: random draws make the driver over-claim its digits in 1-5 % of runs (a
fault of the driver), which would make the failed share vary from seed to
seed.  The seed draws the inputs of the ops that carry a proof instead
(certified plans, polynomial exactness, directional exactness) and the order
of every round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import functions
from checks import (
    adaptive_failure,
    eq12_bound,
    lemma2_bound,
    queue_blocking_and_sensitivity,
    rounding_allowance,
    significant_digits,
)

#: Seed of the inputs that must not depend on --seed.
FIXED_SEED = 160807770

#: Latency of one remote-oracle evaluation.
REMOTE_LATENCY_S = 0.002


@dataclass
class Outcome:
    value: float | None
    evals: int | None
    detail: tuple


@dataclass
class Verdict:
    #: Correct significant digits of the op's value; None when it has no value
    #: or the op failed.
    digits: float | None = None
    #: The op failed in a way a known program fault explains (counted in ``failed``).
    failure: str | None = None
    #: The output is wrong in a way no known fault explains (``correct`` false).
    fatal: str | None = None


class Context:
    """What ops share within a run: the checkout, the tracer when tracing is on."""

    def __init__(self, root: Path):
        self.root = root
        self.tracer = None
        self.workers = len(os.sched_getaffinity(0))


def _blend():
    import blend.blend_driver as blend_driver
    import blend.bounds_planner as bounds_planner
    import blend.models as models
    import blend.series_core as series_core

    return blend_driver, bounds_planner, models, series_core


def _grid_errors(box, theta: float, h: float, order_n: int) -> list[float]:
    return [box.value_error(theta + k * h, k * h) for k in range(order_n + 1)]


class AdaptiveOp:
    """``run_blend`` from h0 with the default stopping rule."""

    def __init__(self, box, theta: float, h0: float, n_max: int, workers: int | None = None):
        self.box, self.theta, self.h0, self.n_max, self.workers = box, theta, h0, n_max, workers
        self.label = f"run_blend {box.label} theta={theta!r} h0={h0!r} n_max={n_max}"
        self.blend_driver = _blend()[0]

    def execute(self) -> Outcome:
        driver = self.blend_driver
        oracle = self.box.make()
        config = driver.BlendConfig(h0=self.h0, n_max=self.n_max)
        report = driver.run_blend(oracle, self.theta, config, max_workers=self.workers)
        return Outcome(report.value, report.eval_count, (report.agreed_digits, report.stabilized, report.refinements))

    def check(self, out: Outcome) -> Verdict:
        agreed, stabilized, refinements = out.detail
        if out.evals != (refinements + 1) * (self.n_max + 1):
            return Verdict(fatal=f"{out.evals} evaluations for {refinements} refinements at n_max={self.n_max}")
        reference = self.box.derivative(self.theta)
        scale = max(abs(self.box.value(self.theta + k * self.h0)) for k in range(self.n_max + 1)) or 1.0
        digits = significant_digits(out.value, reference, scale)
        failure = adaptive_failure(stabilized, agreed, digits)
        return Verdict(digits=None if failure else digits, failure=failure)


class FixedOrderOp:
    """``blend_partial_sums`` at a given order on a function it must get exact to rounding."""

    def __init__(self, box, theta: float, h: float, order_n: int):
        self.box, self.theta, self.h, self.order_n = box, theta, h, order_n
        self.label = f"partial_sums {box.label} theta={theta!r} h={h!r} N={order_n}"
        self.series_core = _blend()[3]

    def execute(self) -> Outcome:
        oracle = self.box.make()
        trace = self.series_core.blend_partial_sums(oracle, self.theta, self.h, self.order_n)
        return Outcome(trace.deltas[-1], oracle.eval_count, ())

    def check(self, out: Outcome) -> Verdict:
        if out.evals != self.order_n + 1:
            return Verdict(fatal=f"{out.evals} evaluations for order {self.order_n}, whatever the dimension")
        reference = self.box.derivative(self.theta)
        allowance = rounding_allowance(self.order_n, self.h, _grid_errors(self.box, self.theta, self.h, self.order_n), out.value)
        if not abs(out.value - reference) <= allowance:
            return Verdict(fatal=f"error {abs(out.value - reference):.3g} exceeds the rounding allowance {allowance:.3g}")
        return Verdict(digits=significant_digits(out.value, reference, max(abs(self.box.value(self.theta)), 1.0)))


class CertifiedOp:
    """``solve_k_exact_h`` for K digits, then ``blend_partial_sums`` at the planned step."""

    def __init__(self, box, theta: float, order_n: int, k_digits: int):
        self.box, self.theta, self.order_n, self.k_digits = box, theta, order_n, k_digits
        self.envelope = box.envelope(theta)
        self.label = f"certified {box.label} theta={theta!r} N={order_n} K={k_digits}"
        _, self.bounds_planner, _, self.series_core = _blend()

    def execute(self) -> Outcome:
        planner = self.bounds_planner
        magnitude, growth = self.envelope
        plan = planner.solve_k_exact_h(planner.GrowthEnvelope(magnitude, growth), self.order_n, self.k_digits)
        oracle = self.box.make()
        trace = self.series_core.blend_partial_sums(oracle, self.theta, plan.h, self.order_n)
        return Outcome(trace.deltas[-1], oracle.eval_count, (plan.h,))

    def check(self, out: Outcome) -> Verdict:
        (h,) = out.detail
        magnitude, growth = self.envelope
        if out.evals != self.order_n + 1:
            return Verdict(fatal=f"{out.evals} evaluations for order {self.order_n}")
        if not 0.0 < h < 1.0 / (2.0 * growth * math.e):
            return Verdict(fatal=f"planned step {h!r} outside the domain h < 1/(2be)")
        bound = lemma2_bound(magnitude, growth, self.order_n, h)
        target = 10.0 ** -(self.k_digits + 1)
        if bound > target * (1.0 + 1e-9):
            return Verdict(fatal=f"lemma2 bound {bound:.6g} at the planned step exceeds the target {target:.1g}")
        reference = self.box.derivative(self.theta)
        allowance = rounding_allowance(self.order_n, h, _grid_errors(self.box, self.theta, h, self.order_n), out.value)
        if not abs(out.value - reference) <= bound + allowance:
            return Verdict(fatal=f"error {abs(out.value - reference):.3g} exceeds bound {bound:.3g} + rounding {allowance:.3g}")
        return Verdict(digits=significant_digits(out.value, reference, 1.0))


class QueueOp:
    """``run_blend`` on the tandem-queue blocking probability, differentiated in the arrival rate."""

    def __init__(self, cap1: int, cap2: int, arrival_rate: float, mu1: float, mu2: float):
        self.params = (arrival_rate, mu1, mu2, cap1, cap2)
        self.label = f"queue {cap1}x{cap2} lambda={arrival_rate!r} mu1={mu1!r} mu2={mu2!r}"
        self.blend_driver, _, self.models, _ = _blend()

    def execute(self) -> Outcome:
        arrival_rate, mu1, mu2, cap1, cap2 = self.params
        model = self.models.TandemQueueModel(arrival_rate=arrival_rate, mu1=mu1, mu2=mu2, cap1=cap1, cap2=cap2)
        oracle = self.models.queue_sensitivity_oracle(model)
        report = self.blend_driver.run_blend(oracle, arrival_rate, self.blend_driver.BlendConfig(h0=0.01))
        return Outcome(report.value, report.eval_count, (report.agreed_digits, report.stabilized, report.refinements))

    def check(self, out: Outcome) -> Verdict:
        agreed, stabilized, refinements = out.detail
        if out.evals != (refinements + 1) * 9:
            return Verdict(fatal=f"{out.evals} evaluations for {refinements} refinements")
        _, sensitivity = queue_blocking_and_sensitivity(*self.params)
        if not sensitivity > 0.0:
            return Verdict(fatal=f"exact dB/dlambda {sensitivity!r} is not positive")
        digits = significant_digits(out.value, sensitivity)
        failure = adaptive_failure(stabilized, agreed, digits)
        return Verdict(digits=None if failure else digits, failure=failure)


# ---------------------------------------------------------------------------
# cli: the command-line interface, in-process
# ---------------------------------------------------------------------------


class CliOp:
    """One ``blend ... --format json`` command through ``blend.cli.main``, in this process.

    Its output and exit code are what ``python -m blend`` prints and returns;
    interpreter start and the imports are the set-up of the ``cli`` workload.
    """

    def __init__(self, ctx: Context, args: list[str], check):
        import blend.cli

        self.ctx, self.args, self._check = ctx, args, check
        self.cli = blend.cli
        self.label = "blend " + " ".join(args)

    def execute(self) -> Outcome:
        tracer = self.ctx.tracer
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.begin("cli.main") if tracer is not None else None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main([*self.args, "--format", "json"])
        finally:
            if span is not None:
                tracer.end(span)
                span[6] = self.args[0]
        text = stdout.getvalue()
        payload = json.loads(text) if code in (0, 2) and text else None
        evals = payload["report"]["eval_count"] if payload and "report" in payload else None
        return Outcome(None, evals, (code, text, stderr.getvalue()[-500:]))

    def check(self, out: Outcome) -> Verdict:
        code, stdout, stderr = out.detail
        if code not in (0, 2):
            return Verdict(fatal=f"exit code {code}: {stderr}")
        return self._check(code, json.loads(stdout))


def trace_cold_import(root: Path, tracer) -> None:
    """Record a ``cli.import`` span: ``import blend.cli`` in a fresh interpreter."""
    probe = "import time; t = time.perf_counter_ns(); import blend.cli; print(t, time.perf_counter_ns())"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", probe], cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True)
    start, end = (int(part) for part in done.stdout.split())
    tracer.record("cli.import", start, end)


def _report_check(reference, expected_evals_per_attempt: int):
    """Exit 0 exactly when stabilized, 2 otherwise; the value against ``reference()``."""

    def check(code: int, payload: dict) -> Verdict:
        report = payload["report"]
        if code != (0 if report["stabilized"] else 2):
            return Verdict(fatal=f"exit code {code} with stabilized={report['stabilized']}")
        if report["eval_count"] != (report["refinements"] + 1) * expected_evals_per_attempt:
            return Verdict(fatal=f"eval_count {report['eval_count']} after {report['refinements']} refinements")
        value = report["value"] if report["value"] is not None else math.nan
        digits = significant_digits(value, reference())
        failure = adaptive_failure(report["stabilized"], report["agreed_digits"], digits)
        return Verdict(digits=None if failure else digits, failure=failure)

    return check


def _plan_check(magnitude: float, growth: float, order_n: int, k_digits: int, formula: str):
    def check(code: int, payload: dict) -> Verdict:
        if code != 0:
            return Verdict(fatal=f"plan exited {code}")
        limit = 1.0 / (2.0 * growth * math.e)
        if abs(payload["h_domain_limit"] - limit) > 4e-16 * limit:
            return Verdict(fatal=f"h_domain_limit {payload['h_domain_limit']!r} is not 1/(2be) = {limit!r}")
        h_star, target = payload["h_star"], payload["target"]
        if not (payload["bound_at_h_star"] <= target and 0.0 < h_star < payload["h_domain_limit"]):
            return Verdict(fatal=f"plan h*={h_star!r} bound={payload['bound_at_h_star']!r} target={target!r}")
        own = (lemma2_bound if formula == "lemma2" else eq12_bound)(magnitude, growth, order_n, h_star)
        if target != 10.0 ** -(k_digits + 1) or own > target * (1.0 + 1e-9):
            return Verdict(fatal=f"{formula} bound {own!r} at h*={h_star!r} misses the target {target!r}")
        return Verdict()

    return check


def _tables_check(code: int, payload: dict) -> Verdict:
    """Each table's N = 1 row is the forward difference (f(theta + h) - f(theta)) / h."""
    import blend.reference_tables as reference_tables

    coeffs = reference_tables.DIRECTIONAL_COEFFS
    theta4 = reference_tables.DIRECTIONAL_THETA
    direction = reference_tables.DIRECTIONAL_DIRECTION

    def quadratic(t: float) -> float:
        return math.fsum(a * (p + t * v) ** 2 for a, p, v in zip(coeffs, theta4, direction))

    def blocking(rate: float) -> float:
        return queue_blocking_and_sensitivity(rate, 1.0, 2.0, 10, 10)[0]

    experiments = {
        1: (math.sin, 0.0),
        2: (math.sin, 0.0),
        3: (lambda t: 5.0 * t**4, 2.0),
        4: (quadratic, 0.0),
        5: (blocking, 1.0),
    }
    if code != 0:
        return Verdict(fatal=f"tables exited {code}")
    tables = {table["table"]: table for table in payload["tables"]}
    if sorted(tables) != sorted(experiments):
        return Verdict(fatal=f"tables {sorted(tables)} instead of 1-5")
    for number, (fn, theta) in experiments.items():
        table = tables[number]
        h = table["h"]
        forward = (fn(theta + h) - fn(theta)) / h
        row = table["rows"][0]["computed"]
        if abs(row - forward) > 1e-10 * max(1.0, abs(forward)):
            return Verdict(fatal=f"table {number} N=1 row {row!r} is not the forward difference {forward!r}")
    return Verdict()


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def _unit(rng: random.Random, dim: int) -> tuple[float, ...]:
    raw = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(math.fsum(r * r for r in raw))
    return tuple(r / norm for r in raw)


def _quadratic_box(rng: random.Random, dim: int):
    coeffs = [rng.uniform(0.1, 2.0) for _ in range(dim)]
    theta = [rng.uniform(-2.0, 2.0) for _ in range(dim)]
    return functions.directional(coeffs, theta, _unit(rng, dim))


#: Dimensions of the directional ops: 1 to several hundred.
DIMENSION_STRATA = ((1, 1), (2, 9), (10, 99), (100, 400))

#: n_max of the stabilization runs, 2 to 40.
N_MAX_CYCLE = (2, 3, 4, 6, 8, 12, 16, 24, 32, 40)


def analytic(ctx: Context, seed: int) -> list:
    fixed = random.Random(FIXED_SEED)
    ops: list = [
        # The three documented stabilization faults.
        AdaptiveOp(functions.catalog("sin"), math.pi / 2, 0.1, 8),
        AdaptiveOp(functions.catalog("quartic5"), 0.0, 0.1, 8),
        AdaptiveOp(functions.catalog("sin"), 0.0, 2 * math.pi, 8),
        # Over-claims found by random search: agreement at the rounding floor
        # (claims 14 digits, has 12) and at the truncation level (10, has 8).
        AdaptiveOp(functions.catalog("sin"), 0.9056068382391222, 0.01, 8),
        AdaptiveOp(functions.catalog("sin"), -0.39812589802568477, 0.1, 8),
    ]
    families = ("sin", "quartic5", "exp_density", "expression_sin", "expression_exp", "directional")
    for i in range(60):
        family = families[i % len(families)]
        n_max = N_MAX_CYCLE[i % len(N_MAX_CYCLE)]
        h0 = 10.0 ** fixed.uniform(-4.0, -0.5)
        theta = fixed.uniform(-3.0, 3.0)
        if family == "sin":
            box = functions.catalog("sin")
        elif family == "quartic5":
            box = functions.catalog("quartic5")
        elif family == "exp_density":
            box, theta = functions.exp_density(fixed.uniform(0.5, 2.0)), abs(theta)
        elif family == "expression_sin":
            box = functions.expression_sin(fixed.uniform(0.5, 3.0), fixed.uniform(0.0, 1.0))
        elif family == "expression_exp":
            box, theta = functions.expression_exp(fixed.uniform(0.5, 2.0)), abs(theta)
        else:
            low, high = DIMENSION_STRATA[(i // len(families)) % len(DIMENSION_STRATA)]
            box, theta, n_max = _quadratic_box(fixed, fixed.randint(low, high)), 0.0, min(n_max, 12)
        ops.append(AdaptiveOp(box, theta, h0, n_max))

    rng = random.Random(seed)
    for i in range(48):
        order_n = 2 + i % 12
        k_digits = 3 + i % 9
        family = i % 4
        if family == 0:
            box, theta = functions.catalog("sin"), rng.uniform(-3.0, 3.0)
        elif family == 1:
            box, theta = functions.exp_density(rng.uniform(0.5, 2.0)), rng.uniform(0.0, 3.0)
        elif family == 2:
            box, theta = functions.expression_sin(rng.uniform(0.5, 3.0), rng.uniform(0.0, 1.0)), rng.uniform(-3.0, 3.0)
        else:
            box, theta = functions.expression_exp(rng.uniform(0.5, 2.0)), rng.uniform(0.0, 3.0)
        ops.append(CertifiedOp(box, theta, order_n, k_digits))
    for i in range(12):
        ops.append(FixedOrderOp(functions.catalog("quartic5"), rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, -1.0), 4 + i))
    for i in range(24):
        low, high = DIMENSION_STRATA[i % len(DIMENSION_STRATA)]
        box = _quadratic_box(rng, rng.randint(low, high))
        ops.append(FixedOrderOp(box, 0.0, 10.0 ** rng.uniform(-3.0, -1.0), 2 + i % 8))
    rng.shuffle(ops)
    return ops


#: (cap1, cap2, arrival rate, mu1, mu2): small to 20 per station, tall and wide.
QUEUE_CASES = (
    (10, 10, 1.0, 1.0, 2.0),
    (3, 3, 0.8, 1.3, 1.1),
    (5, 2, 1.2, 1.9, 1.4),
    (2, 6, 0.6, 0.9, 1.7),
    (8, 12, 1.1, 1.4, 0.9),
    (12, 8, 0.9, 1.2, 1.5),
    (20, 3, 1.3, 1.6, 2.2),
    (3, 20, 0.7, 1.1, 0.8),
    (16, 6, 1.5, 1.8, 1.2),
    (6, 16, 1.0, 0.8, 1.9),
    (15, 15, 1.2, 1.0, 1.3),
    (20, 20, 0.9, 1.1, 1.6),
)


def queue(ctx: Context, seed: int) -> list:
    ops = [QueueOp(*case) for case in QUEUE_CASES]
    random.Random(seed).shuffle(ops)
    return ops


#: (function, theta, h0, n_max) behind the fixed latency.
REMOTE_CASES = (
    ("sin", 0.4, 0.05, 8),
    ("sin", -1.3, 0.01, 12),
    ("sin", 2.6, 0.002, 4),
    ("exp_density", 0.7, 0.05, 8),
    ("exp_density", 2.2, 0.01, 6),
    ("quartic5", 1.7, 0.01, 8),
    ("quartic5", -0.9, 0.05, 12),
    ("expression_sin", 0.3, 0.01, 8),
)


def remote_oracle(ctx: Context, seed: int) -> list:
    ops = []
    for name, theta, h0, n_max in REMOTE_CASES:
        if name == "exp_density":
            box = functions.exp_density(1.5)
        elif name == "expression_sin":
            box = functions.expression_sin(2.0, 0.5)
        else:
            box = functions.catalog(name)
        ops.append(AdaptiveOp(functions.remote(box, REMOTE_LATENCY_S, ctx), theta, h0, n_max, workers=ctx.workers))
    random.Random(seed).shuffle(ops)
    return ops


def cli(ctx: Context, seed: int) -> list:
    sin = functions.catalog("sin")
    expression = functions.expression_exp(1.5)
    coeffs = [0.5 + 0.25 * (i % 7) for i in range(40)]
    theta = [math.sin(i + 1.0) for i in range(40)]
    direction = [(-1.0) ** i * (1.0 + (i % 3)) for i in range(40)]
    norm = math.sqrt(math.fsum(v * v for v in direction))
    unit = [v / norm for v in direction]
    directional = functions.directional(coeffs, theta, unit)

    def csv(values) -> str:
        return ",".join(repr(v) for v in values)

    # Nothing here depends on the seed.  With seeded plan inputs, the seed
    # decided whether a plan or a diff is the median of the 7 per-op
    # latencies, and latency_p50_ms spread 23 % from seed to seed.  With a
    # seeded order, the op run before each sub-millisecond command did: after
    # the 70 ms of `tables all` the caches are cold, and it spread 30 %.
    fixed = random.Random(FIXED_SEED)
    plans = []
    for formula in ("lemma2", "eq12"):
        magnitude, growth = 10.0 ** fixed.uniform(-1.0, 3.0), 10.0 ** fixed.uniform(-1.0, 1.0)
        order_n, k_digits = fixed.randint(1, 12), fixed.randint(2, 12)
        plans.append(
            CliOp(
                ctx,
                ["plan", "--M", repr(magnitude), "--b", repr(growth), "--N", str(order_n), "--K", str(k_digits), "--formula", formula],
                _plan_check(magnitude, growth, order_n, k_digits, formula),
            )
        )
    ops = [
        CliOp(ctx, ["diff", "sin", "--theta", "0.7", "--h0", "0.01"], _report_check(lambda: sin.derivative(0.7), 9)),
        CliOp(ctx, ["diff", "theta*exp(-theta*1.5)", "--theta", "0.8", "--h0", "0.01"], _report_check(lambda: expression.derivative(0.8), 9)),
        CliOp(
            ctx,
            ["direction", "--a", csv(coeffs), "--theta", csv(theta), "--v", csv(direction), "--normalize", "--h0", "0.01"],
            _report_check(lambda: directional.derivative(0.0), 9),
        ),
        *plans,
        CliOp(ctx, ["tables", "all"], _tables_check),
        CliOp(ctx, ["queue", "--lambda", "1", "--mu1", "1", "--mu2", "2", "--cap1", "10", "--cap2", "10", "--h0", "0.01"], _report_check(lambda: queue_blocking_and_sensitivity(1.0, 1.0, 2.0, 10, 10)[1], 9)),
    ]
    return ops


BUILDERS = {"analytic": analytic, "queue": queue, "remote-oracle": remote_oracle, "cli": cli}
