"""The benchmark tracer (`perfbench/tracing.py`) wraps library functions by
module and name.  Each of them must exist, so that renaming one fails here
rather than in the next traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, name", sorted({**tracing.ENTRY_POINTS, **tracing.CLIENT_ENTRY_POINTS})
)
def test_traced_entry_point_is_a_library_function(module, name):
    target = getattr(importlib.import_module(f"fullness_lab.{module}"), name, None)
    assert callable(target), f"fullness_lab.{module}.{name}"
