import copy
import json

import pytest

import run
import workloads
from fullness_lab import corpus


def _dump(reqs):
    return json.dumps([r["problem"] for r in reqs], sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_problems(name):
    cls = workloads.WORKLOADS[name]
    a, b = cls(corpus), cls(corpus)
    for j in range(3):
        assert _dump(a.cycle(7, j)) == _dump(b.cycle(7, j))
    assert _dump(a.warmup(7)) == _dump(b.warmup(7))
    assert _dump(a.cycle(7, 0)) != _dump(a.cycle(8, 0))
    assert _dump(a.cycle(7, 0)) != _dump(a.cycle(7, 1))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cycles_keep_a_fixed_mix(name):
    cls = workloads.WORKLOADS[name](corpus)
    mix = lambda reqs: sorted(r["kind"] for r in reqs)  # noqa: E731
    assert mix(cls.cycle(1, 0)) == mix(cls.cycle(2, 5))


def _report(results, **extra):
    return {"results": results, **extra}


def test_wrong_answers_fail_the_check():
    dense = workloads.DenseIdeals(corpus)
    req = dense.cycle(1, 0)[0]
    want = dict(zip(("r", "s", "n1", "n2", "n3"), req["expect"]["rsn"]))
    good = _report({**want, "flags": {"alpha_validated": True}})
    assert workloads.check_answer(dense, req, good) is None
    bad = copy.deepcopy(good)
    bad["results"]["n2"] += 1
    assert workloads.check_answer(dense, req, bad) is not None
    unvalidated = copy.deepcopy(good)
    unvalidated["results"]["flags"]["alpha_validated"] = False
    assert workloads.check_answer(dense, req, unvalidated) is not None
    assert workloads.check_answer(dense, req, {"results": {}}) is not None


def test_corpus_check_needs_expected_match_and_no_violation():
    cold = workloads.CorpusCold(corpus)
    req = next(r for r in cold.cycle(1, 0) if r["kind"].endswith(":verify"))
    results = dict(req["expect"]["expected"], checks=[{"name": "c", "status": "HOLDS"}])
    assert workloads.check_answer(cold, req, _report(results, expected_match=True)) is None
    assert workloads.check_answer(cold, req, _report(results, expected_match=False))
    results["checks"][0]["status"] = "VIOLATION"
    assert workloads.check_answer(cold, req, _report(results, expected_match=True))


class _FakeWorkload:
    name = "fake"
    long_lived = True

    @staticmethod
    def check(req, report):
        return None if report["results"]["ok"] else "wrong"


def test_run_counts_exceptions_and_failed_checks():
    bench = run.Run(_FakeWorkload, 1, 1.0, False, corpus)
    bench.workload = _FakeWorkload()
    replies = iter([
        {"ok": True, "report": {"results": {"ok": True}}},
        {"ok": False, "error": "ZeroDivisionError: boom"},
        {"ok": True, "report": {"results": {"ok": False}}},
        {"ok": True, "report": {}},
    ])
    bench._serve = lambda rid, req: (next(replies), 0.1, 0.1)
    for rid in range(4):
        bench._request(rid, {"kind": "k", "problem": {}})
    assert (bench.tally.attempted, bench.tally.failed) == (4, 3)
