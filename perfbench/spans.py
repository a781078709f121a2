"""Span recording around the program's public functions, and per-layer metrics.

The tracer wraps each function at the name its callers look it up by (for
example ``blend.blend_driver.blend_partial_sums``, which is what ``run_blend``
calls), so nothing under ``src/`` changes.  A span is (id, name, start, end,
parent, op, info); spans stay in memory and are written out when the run
ends.  The parent of a span opened on a grid worker thread is the span open on
the client thread, which is blocked waiting for that grid.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Spans kept for the trace file; aggregation sees every span regardless.
SPAN_FILE_CAP = 50_000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        span = [next(self._ids), name, time.perf_counter_ns(), 0, parent, self.op, None]
        stack.append(span[0])
        return span

    def record(self, name: str, start: int, end: int, info=None) -> None:
        """Add a finished top-level span timed elsewhere."""
        self.spans.append([next(self._ids), name, start, end, 0, self.op, info])

    def end(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, *, info=None, result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`unwrap`.

        ``info(result)`` stores a detail on the span; ``result(value)``
        replaces what the caller receives (used to trace compiled closures).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                value = original(*args, **kwargs)
            finally:
                self.end(span)
            if info is not None:
                span[6] = info(value)
            return value if result is None else result(value)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def traced_callable(self, fn, name: str):
        def wrapper(*args):
            span = self.begin(name)
            try:
                return fn(*args)
            finally:
                self.end(span)

        return wrapper

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def _wrap_layers(tracer: Tracer, targets) -> None:
    """Wrap each (owner, attribute, span name); the span name decides what else is kept."""
    for owner, attr, name in targets:
        if name == "blend_driver.run_blend":
            tracer.wrap(owner, attr, name, info=lambda report: (report.stabilized, report.refinements))
        elif name == "expressions.compile_expression":
            tracer.wrap(owner, attr, name, result=lambda fn: tracer.traced_callable(fn, "expressions.eval"))
        else:
            tracer.wrap(owner, attr, name)


def _program_targets() -> list:
    import blend.blend_driver as blend_driver
    import blend.bounds_planner as bounds_planner
    import blend.expressions as expressions
    import blend.models as models
    import blend.oracle as oracle
    import blend.series_core as series_core

    return [
        (oracle.FunctionOracle, "evaluate", "oracle.evaluate"),
        (series_core, "stencil_weights", "series_core.stencil_weights"),
        (series_core, "delta_from_cache", "series_core.delta_from_cache"),
        (series_core, "blend_partial_sums", "series_core.blend_partial_sums"),
        (blend_driver, "blend_partial_sums", "series_core.blend_partial_sums"),
        (blend_driver, "run_blend", "blend_driver.run_blend"),
        (bounds_planner, "remainder_bound", "bounds_planner.remainder_bound"),
        (bounds_planner, "solve_k_exact_h", "bounds_planner.solve_k_exact_h"),
        (expressions, "compile_expression", "expressions.compile_expression"),
        (models, "build_generator", "models.build_generator"),
        (models, "solve_stationary", "models.solve_stationary"),
    ]


def install_program_spans(tracer: Tracer) -> None:
    """Wrap every public layer boundary of ``blend`` that the in-process workloads reach."""
    _wrap_layers(tracer, _program_targets())


def install_cli_spans(tracer: Tracer) -> None:
    """The program's boundaries plus the names ``blend.cli`` and ``reference_tables`` call through."""
    import blend.cli as cli
    import blend.reference_tables as reference_tables

    _wrap_layers(
        tracer,
        _program_targets()
        + [
            (cli, "run_blend", "blend_driver.run_blend"),
            (cli, "solve_k_exact_h", "bounds_planner.solve_k_exact_h"),
            (cli, "compile_expression", "expressions.compile_expression"),
            (cli, "build_generator", "models.build_generator"),
            (cli, "solve_stationary", "models.solve_stationary"),
            (cli, "generate_table", "reference_tables.generate_table"),
            (cli, "canonical_json", "output.canonical_json"),
            (reference_tables, "run_blend", "blend_driver.run_blend"),
            (reference_tables, "blend_partial_sums", "series_core.blend_partial_sums"),
        ],
    )


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class LayerStats:
    """Accumulates per-layer counts and times over the traced rounds."""

    def __init__(self):
        self.ops = 0
        self.count = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.extra = defaultdict(float)
        self.cli_main = defaultdict(list)
        self.kept: list[list] = []

    def add(self, spans: list[list], ops: int) -> None:
        self.ops += ops
        if len(self.kept) < SPAN_FILE_CAP:
            self.kept.extend(spans[: SPAN_FILE_CAP - len(self.kept)])
        children = defaultdict(list)
        for span in spans:
            children[(span[5], span[4])].append(span)
        for span in spans:
            sid, name, start, end, parent, op, info = span
            duration = end - start
            self.count[name] += 1
            self.total_ns[name] += duration
            kids = children.get((op, sid), ())
            if name in ("series_core.blend_partial_sums", "blend_driver.run_blend"):
                self.self_ns[name] += duration - _covered([(k[2], k[3]) for k in kids])
            if name == "series_core.blend_partial_sums":
                reductions = [(k[2], k[3]) for k in kids if k[1] != "oracle.evaluate"]
                self.extra["grid_wall_ns"] += duration - _covered(reductions)
                self.extra["grid_busy_ns"] += sum(k[3] - k[2] for k in kids if k[1] == "oracle.evaluate")
            elif name == "blend_driver.run_blend":
                stabilized, refinements = info
                self.extra["attempts"] += refinements + 1
                self.extra["accepted"] += 1 if stabilized else 0
            elif name == "bounds_planner.solve_k_exact_h":
                self.extra["bound_calls"] += sum(1 for k in kids if k[1] == "bounds_planner.remainder_bound")
            elif name == "reference_tables.generate_table":
                self.extra["table_evals"] += _descendants(children, op, sid, "oracle.evaluate")
            elif name == "oracle.evaluate":
                inner = [k for k in kids if k[1] == "remote.fn"]
                if inner:
                    self.extra["overhead_ns"] += duration - sum(k[3] - k[2] for k in inner)
                    self.extra["overhead_n"] += 1
            elif name == "cli.main":
                self.cli_main[info].append(duration)

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        def mean(name: str, unit_ns: float) -> float:
            n = self.count[name]
            return self.total_ns[name] / n / unit_ns if n else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def cli_ms(command: str) -> float:
            values = self.cli_main.get(command, [])
            return sum(values) / len(values) / 1e6 if values else 0.0

        ops = self.ops or 1
        psums = self.count["series_core.blend_partial_sums"]
        runs = self.count["blend_driver.run_blend"]
        return {
            "oracle.evals": self.count["oracle.evaluate"] / ops,
            "oracle.busy_ms": self.total_ns["oracle.evaluate"] / ops / 1e6,
            "oracle.overhead_us": ratio(self.extra["overhead_ns"], self.extra["overhead_n"]) / 1e3,
            "series_core.partial_sums_self_ms": ratio(self.self_ns["series_core.blend_partial_sums"], psums) / 1e6,
            "series_core.stencil_weights_us": mean("series_core.stencil_weights", 1e3),
            "series_core.delta_from_cache_us": mean("series_core.delta_from_cache", 1e3),
            "series_core.grid_concurrency": ratio(self.extra["grid_busy_ns"], self.extra["grid_wall_ns"]),
            "blend_driver.attempts_per_op": ratio(self.extra["attempts"], runs),
            "blend_driver.accept_ratio": ratio(self.extra["accepted"], self.extra["attempts"]),
            "blend_driver.self_us": ratio(self.self_ns["blend_driver.run_blend"], runs) / 1e3,
            "bounds_planner.plan_us": mean("bounds_planner.solve_k_exact_h", 1e3),
            "bounds_planner.bound_calls_per_plan": ratio(self.extra["bound_calls"], self.count["bounds_planner.solve_k_exact_h"]),
            "expressions.compile_us": mean("expressions.compile_expression", 1e3),
            "expressions.eval_us": mean("expressions.eval", 1e3),
            "models.build_generator_ms": mean("models.build_generator", 1e6),
            "models.solve_stationary_ms": mean("models.solve_stationary", 1e6),
            "models.solves_per_op": self.count["models.solve_stationary"] / ops,
            "reference_tables.generate_table_ms": mean("reference_tables.generate_table", 1e6),
            "reference_tables.evals_per_table": ratio(self.extra["table_evals"], self.count["reference_tables.generate_table"]),
            "output.canonical_json_us": mean("output.canonical_json", 1e3),
            "cli.import_ms": mean("cli.import", 1e6),
            "cli.diff_ms": cli_ms("diff"),
            "cli.direction_ms": cli_ms("direction"),
            "cli.plan_ms": cli_ms("plan"),
            "cli.tables_ms": cli_ms("tables"),
            "cli.queue_ms": cli_ms("queue"),
            "trace.overhead_pct": overhead_pct,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op, info in self.kept:
                record = {"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                if info is not None:
                    record["info"] = info
                handle.write(json.dumps(record) + "\n")


def _descendants(children, op: int, sid: int, name: str) -> int:
    count = 0
    pending = [sid]
    while pending:
        for kid in children.get((op, pending.pop()), ()):
            count += kid[1] == name
            pending.append(kid[0])
    return count
