"""The public surface of ``blend``: a name added to or dropped from it is a deliberate change."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import blend


def test_public_names_are_pinned():
    assert sorted(blend.__all__) == [
        "AnalyticTestFunction",
        "BOUND_FORMULAS",
        "BlendConfig",
        "BlendReport",
        "CATALOG",
        "DirectionSpec",
        "FunctionOracle",
        "GrowthEnvelope",
        "ORDER_CAP",
        "OracleEvaluationError",
        "OrderCapError",
        "PartialSumTrace",
        "SingularGeneratorError",
        "StationaryDistribution",
        "StencilWeights",
        "StepPlan",
        "TandemQueueModel",
        "agreed_significant_digits",
        "blend_partial_sums",
        "blocking_probability",
        "delta_from_cache",
        "directional_oracle",
        "exp_density",
        "exp_density_operator_power_closed_form",
        "h_domain",
        "operator_power",
        "operator_power_bound",
        "quadratic_form",
        "queue_sensitivity_oracle",
        "remainder_bound",
        "round_to_digits",
        "run_blend",
        "solve_k_exact_h",
        "solve_stationary",
        "stencil_weights",
    ]
    assert len(blend.__all__) == 35
    assert all(hasattr(blend, name) for name in blend.__all__)
    # Left the namespace, not the package: the tests' dense reference and the series kernel's dot.
    assert not hasattr(blend, "build_generator") and not hasattr(blend, "compensated_dot")
    assert callable(blend.models.build_generator) and callable(blend.series_core.compensated_dot)


def test_import_leaves_numpy_unloaded():
    # Only the tandem queue needs numpy; it is imported when a queue function
    # runs, and an analytic command leaves it unloaded too.  The command line
    # is parsed by the standard library alone, and a serial grid builds no
    # thread pool, so neither click nor concurrent.futures (and its logging)
    # is loaded either.
    env = dict(os.environ, PYTHONPATH=str(Path(blend.__file__).resolve().parents[1]), BLEND_THREADS="0")
    code = (
        "import sys, blend, blend.cli\n"
        "heavy = ('numpy', 'click', 'concurrent.futures')\n"
        "print([name for name in heavy if name in sys.modules])\n"
        "assert blend.cli.main(['diff', 'sin', '--format', 'json']) == 0\n"
        "print([name for name in heavy if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1].startswith('{"command":"diff"')
    assert lines[-1] == "[]"
