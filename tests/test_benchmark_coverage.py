"""A tier-1 preflight of the benchmark's coverage gate.

A traced benchmark run (`perfbench/run.py --trace 1`) fails when an entry
point that `perfbench/tracing.py` expects on the workload records no call
in the timed requests.  Here, for seeds 1, 2 and 3, each workload's warm-up
is served in-process and then one cycle, with counting wrappers on every
binding of those entry points, so a change that stops calling one of them
at any of those seeds fails here, before a benchmark run.  Both benchmark
files are read, never changed.
"""

import importlib.util
import sys
from collections import Counter, OrderedDict
from pathlib import Path

import pytest

from fullness_lab import cli, corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _count_calls(monkeypatch, calls: Counter):
    """Wrap every binding of each traced entry point in the library."""
    modules = [m for n, m in sys.modules.items() if n.startswith("fullness_lab.") and m]
    for module_name, name in tracing.ENTRY_POINTS:
        original = getattr(sys.modules[f"fullness_lab.{module_name}"], name)

        def counted(*args, _fn=original, _key=f"{module_name}.{name}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_cycle_calls_every_expected_entry_point(monkeypatch, workload):
    bench = workloads.WORKLOADS[workload](corpus)
    expected = {
        f"{module}.{name}" for (module, name), on in tracing.ENTRY_POINTS.items() if workload in on
    }
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)

    def serve(req):
        if not bench.long_lived:
            cli._RING_TABLE.clear()  # one process per request
        report = cli.run(req["problem"])
        assert workloads.check_answer(bench, req, report) is None, req["kind"]

    for seed in (1, 2, 3):
        # A fresh ring table, as in a new serving process.
        monkeypatch.setattr(cli, "_RING_TABLE", OrderedDict())
        for req in bench.warmup(seed):
            serve(req)
        calls.clear()
        for req in bench.cycle(seed, 0):
            serve(req)
        assert sorted(key for key in expected if not calls[key]) == [], seed
