import json
import os
import sys
import time
import types

import run
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_every_binding_is_wrapped_and_self_time_excludes_children(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        a.child()

    a.child, a.parent = child, parent
    b.child = child  # as if bound with `from .a import child`
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = tracing.Tracer()
    tracer.install("fakepkg", [("a", "child"), ("a", "parent")])
    assert b.child is a.child and b.child is not child
    a.parent()
    b.child()
    calls, incl, self_s = tracer.agg["a.parent"]
    assert calls == 1 and incl >= 0.03 and 0.005 <= self_s < 0.02
    assert tracer.agg["a.child"][0] == 2
    names = [s[0] for s in tracer.spans]
    assert names == ["a.parent", "a.child", "a.child"]
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == -1  # parent span index


def test_benchmark_json_matches_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)


def test_per_layer_metrics_cover_every_declared_metric():
    bench = run.Run(None, 1, 1.0, True, None)
    bench.latencies = [1.0, 2.0]
    bench.by_kind = {"k": [1.0, 2.0]}
    metrics = run.per_layer_metrics(bench, {"agg": {}, "counters": {}})
    assert set(metrics) == set(run.PER_LAYER)


def test_coverage_check_names_idle_entry_points():
    bench = run.Run(None, 1, 1.0, True, None)
    bench.trace = {"agg": {"cli.run": [3, 1.0, 0.1]}, "counters": {}}
    gaps = run.coverage_gaps("dense-ideals", bench, {"agg": {}, "counters": {}})
    assert "groebner.buchberger" in gaps and "corpus.load" in gaps
    assert "cli.run" not in gaps and "invariants.verify_statements" not in gaps
