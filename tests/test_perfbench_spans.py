"""The names that the benchmark's trace mode wraps resolve in the program.

``perfbench/spans.py`` patches program functions by module attribute, so a
name it wraps must stay importable under that name.  This loads the file as
it is, installs both span sets on a tracer and unwraps them again.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import blend.cli as cli
import blend.models as models
import blend.reference_tables as reference_tables

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: Names that no program path calls, kept for the trace mode alone.
TRACE_ONLY = (
    (cli, "build_generator"),
    (cli, "solve_stationary"),
    (models, "build_generator"),
    (reference_tables, "blend_partial_sums"),
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_mode_wraps_and_restores_every_name():
    spans = _load_spans()
    originals = [getattr(owner, attr) for owner, attr in TRACE_ONLY]
    tracer = spans.Tracer()
    try:
        spans.install_program_spans(tracer)
        spans.install_cli_spans(tracer)
        assert all(getattr(owner, attr) is not original for (owner, attr), original in zip(TRACE_ONLY, originals))
    finally:
        tracer.unwrap()
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(TRACE_ONLY, originals))
