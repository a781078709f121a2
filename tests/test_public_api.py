"""The public surface of ``blend``: a name added to or dropped from it is a deliberate change."""

from __future__ import annotations

import ast
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
        "h_domain",
        "operator_power",
        "quadratic_form",
        "queue_sensitivity_oracle",
        "remainder_bound",
        "run_blend",
        "solve_k_exact_h",
        "solve_stationary",
        "stencil_weights",
    ]
    assert len(blend.__all__) == 32
    assert all(hasattr(blend, name) for name in blend.__all__)
    # The tests' dense reference left the namespace, not the package; the old dot left both.
    assert not hasattr(blend, "build_generator") and not hasattr(blend, "compensated_dot")
    assert callable(blend.models.build_generator) and not hasattr(blend.series_core, "compensated_dot")
    # The lemma references live in tests/lemma_references.py.
    assert not hasattr(blend.bounds_planner, "operator_power_bound")
    assert not hasattr(blend.models, "exp_density_operator_power_closed_form")
    # So does the significant-digit rounding, in tests/digit_rounding.py: a report's value is unrounded.
    assert not hasattr(blend.blend_driver, "round_to_digits")


def test_import_leaves_numpy_unloaded():
    # Only the tandem queue needs numpy; it is imported when a queue function
    # runs, and an analytic command leaves it unloaded too.  The command line
    # is parsed by the standard library alone, and a parallel grid runs on
    # plain threads, so neither click nor concurrent.futures (and its logging)
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


def test_parallel_grid_runs_on_persistent_helpers():
    # Four workers on a nine-point grid: three helper threads, started by the
    # first grid and reused by the second, and no executor module.
    env = dict(os.environ, PYTHONPATH=str(Path(blend.__file__).resolve().parents[1]), BLEND_THREADS="4")
    code = (
        "import sys, threading, blend.cli\n"
        "for _ in range(2):\n"
        "    assert blend.cli.main(['diff', 'sin', '--format', 'json']) == 0\n"
        "    print([t.daemon for t in threading.enumerate() if t.name == 'blend-grid'])\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    lines = [line for line in proc.stdout.splitlines() if not line.startswith("{")]
    assert lines == ["[True, True, True]", "[True, True, True]", "False"]


# Imported and never referenced, on purpose: perfbench/spans.py wraps each under this module's name.
SPAN_ONLY_IMPORTS = {("cli", "build_generator"), ("cli", "solve_stationary"), ("reference_tables", "blend_partial_sums")}


def _imports_of(scope: ast.AST):
    """The import statements of a module or function body, not those of the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_import_is_referenced():
    unused = set()
    for path in sorted(Path(blend.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            referenced = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            for statement in _imports_of(scope):
                if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                    continue
                for alias in statement.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in referenced:
                        unused.add((path.stem, name))
    assert sorted(unused) == sorted(SPAN_ONLY_IMPORTS)


def test_every_private_definition_is_referenced():
    # A module-level _private function or class that no module of the package
    # names, as a name or an attribute, is a leftover: only tests could call it.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(blend.__file__).parent.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []
