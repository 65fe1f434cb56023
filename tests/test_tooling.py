"""The benchmark and the scripts reach bunchlidar by name; each name must exist.

``perfbench/tracing.py`` lists the functions its tracer wraps in ``_COUNTS``
as (module, function) pairs, some with a counter that reads the function's
result, and the scripts and the benchmark import bunchlidar modules and
names. A deleted or renamed function, or a result field a counter reads,
would otherwise surface only when the benchmark or the script runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bunchlidar import estimator as est

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _bunchlidar_imports():
    """(file:line, statement) of every absolute bunchlidar import in the scripts and perfbench."""
    found = []
    for path in [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m == "bunchlidar" or m.startswith("bunchlidar.") for m in modules):
                found.append((path.relative_to(ROOT), node.lineno, ast.unparse(node)))
    return [(f"{path}:{line}", statement) for path, line, statement in sorted(found)]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", sorted(_tracing()._COUNTS))
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"bunchlidar.{module}"), function, None))


def test_fit_counts_read_a_real_fit():
    width = 40e-12
    tau = (np.arange(500) - 250 + 0.5) * width
    g2 = est.binned_model(tau, width, (1.0, 1.0, 0.606e-9, 1.03e-9))
    args = (tau, g2, np.full_like(g2, 0.01), width)
    fit = est.fit_g2(*args)
    counts = _tracing()._COUNTS[("estimator", "fit_g2")](args, {}, fit)
    assert counts == {"iterations": fit.n_iterations, "points": 500, "converged": True}


def test_imports_are_found():
    statements = [statement for _, statement in _bunchlidar_imports()]
    assert "from bunchlidar import cli" in statements
    assert "from bunchlidar.photonsim import EventStream" in statements


@pytest.mark.parametrize("where, statement", _bunchlidar_imports(), ids=lambda v: v)
def test_script_import_resolves(where, statement):
    exec(statement, {})
