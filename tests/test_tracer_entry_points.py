"""The benchmark tracer (`perfbench/tracing.py`) wraps library functions by
module and name, and reads each ring's memo as `_op_cache`.  Each of them
must exist, so that renaming one fails here rather than in the next traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fullness_lab.idealcalc import QuotientRing, ideal_product
from fullness_lab.polyring import QQ, PolyRing

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


def test_traced_memo_is_the_rings_op_cache():
    # The tracer counts a memo hit when a call leaves `_op_cache` the same
    # size, so a miss must add an entry and a hit none.
    ring = QuotientRing(PolyRing(["x", "y"], QQ))
    assert isinstance(ring._op_cache, dict)
    m = ring.maximal_ideal()
    before = len(ring._op_cache)
    ideal_product(m, m)
    after_miss = len(ring._op_cache)
    ideal_product(m, m)
    assert after_miss > before and len(ring._op_cache) == after_miss
