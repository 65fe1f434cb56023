"""The benchmark's tracer wraps bunchlidar functions by name; each name must exist.

``perfbench/tracing.py`` lists them in ``_COUNTS`` as (module, function)
pairs, some with a counter that reads the function's result. A deleted or
renamed function, or a result field a counter reads, would otherwise surface
only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bunchlidar import estimator as est

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
