"""The benchmark's tracer wraps bunchlidar functions by name; each name must exist.

``perfbench/tracing.py`` lists them in ``_COUNTS`` as (module, function)
pairs. A deleted or renamed function would otherwise surface only when the
benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module._COUNTS)


@pytest.mark.parametrize("module, function", _traced_functions())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"bunchlidar.{module}"), function, None))
