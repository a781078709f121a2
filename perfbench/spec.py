"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the two never disagree.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "analytic",
        "why": "serial in-process derivatives over n_max 2-40, steps across decades and dimensions 1-400: "
        "series_core reductions, stencil_weights and the driver loop do nearly all the work",
    },
    {
        "name": "queue",
        "why": "tandem-queue sensitivities on tall, wide and square capacity shapes up to 20x20: "
        "generator build and the dense stationary solve dominate, series_core is idle",
    },
    {
        "name": "remote-oracle",
        "why": "a black box with a fixed 2 ms latency on nproc grid workers: evaluation count and grid "
        "concurrency decide the time, the speed of series_core does not",
    },
    {
        "name": "cli",
        "why": "blend.cli.main in-process over diff, direction, plan, tables all and queue: click parsing, "
        "output and the reference-table grids show only here, and the cold import of blend.cli in setup_s",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "evals_per_op", "unit": "count", "better": "lower", "bound": 0.05},
    {"name": "correct_digits_p50", "unit": "digits", "better": "higher", "bound": 0.05},
]

PER_LAYER = [
    {"name": "oracle.evals", "unit": "count", "better": "lower"},
    {"name": "oracle.busy_ms", "unit": "ms", "better": "lower"},
    {"name": "oracle.overhead_us", "unit": "us", "better": "lower"},
    {"name": "series_core.partial_sums_self_ms", "unit": "ms", "better": "lower"},
    {"name": "series_core.stencil_weights_us", "unit": "us", "better": "lower"},
    {"name": "series_core.delta_from_cache_us", "unit": "us", "better": "lower"},
    {"name": "series_core.grid_concurrency", "unit": "ratio", "better": "higher"},
    {"name": "blend_driver.attempts_per_op", "unit": "count", "better": "lower"},
    {"name": "blend_driver.accept_ratio", "unit": "ratio", "better": "higher"},
    {"name": "blend_driver.self_us", "unit": "us", "better": "lower"},
    {"name": "bounds_planner.plan_us", "unit": "us", "better": "lower"},
    {"name": "bounds_planner.bound_calls_per_plan", "unit": "count", "better": "lower"},
    {"name": "expressions.compile_us", "unit": "us", "better": "lower"},
    {"name": "expressions.eval_us", "unit": "us", "better": "lower"},
    {"name": "models.build_generator_ms", "unit": "ms", "better": "lower"},
    {"name": "models.solve_stationary_ms", "unit": "ms", "better": "lower"},
    {"name": "models.solves_per_op", "unit": "count", "better": "lower"},
    {"name": "reference_tables.generate_table_ms", "unit": "ms", "better": "lower"},
    {"name": "reference_tables.evals_per_table", "unit": "count", "better": "lower"},
    {"name": "output.canonical_json_us", "unit": "us", "better": "lower"},
    {"name": "cli.import_ms", "unit": "ms", "better": "lower"},
    {"name": "cli.diff_ms", "unit": "ms", "better": "lower"},
    {"name": "cli.direction_ms", "unit": "ms", "better": "lower"},
    {"name": "cli.plan_ms", "unit": "ms", "better": "lower"},
    {"name": "cli.tables_ms", "unit": "ms", "better": "lower"},
    {"name": "cli.queue_ms", "unit": "ms", "better": "lower"},
    {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path
