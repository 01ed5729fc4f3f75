"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
detail lines; the slow stretch case (criterion 7) only runs when the
environment variable RUN_SLOW=1 is set and is reported as SKIPPED-SLOW
otherwise, which is the accepted outcome for that criterion.
"""

import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import suites

from fullness_lab import cli, corpus
from fullness_lab.fullness import GenericElementPolicy
from fullness_lab.idealcalc import ideal_colon, ideal_equal_local, times_m_power
from fullness_lab.invariants import dao_numbers, ratliff_rush_power, reduction_number, s_index

POLICY = GenericElementPolicy(trials=8, seed=20260808)


def _report(line: str):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_rational_singularity_family():
    started = time.monotonic()
    for params in ((2, 2, 2), (2, 3, 4)):
        t0 = time.monotonic()
        ring = suites.rational_singularity_ring(*params)
        I = ring.parse_ideal(["x + y + z", "t"])
        rep = dao_numbers(I, POLICY)
        assert rep.r == 1, params
        assert rep.s == 1, params
        assert (rep.n1, rep.n2, rep.n3) == (1, 0, 1), params
        m = ring.maximal_ideal()
        colon_z = ideal_colon(I, ring.parse_ideal(["z"]))
        colon_m = ideal_colon(I, m)
        assert ideal_equal_local(colon_z, m)
        assert ideal_equal_local(colon_m, m)
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"{params}: {elapsed:.1f}s"
    _report(
        f"criterion 1: PASS  (a,b,c)=(2,2,2) and (2,3,4): r=1, s=1, n=(1,0,1), "
        f"I:z = m = I:m, total {time.monotonic() - started:.1f}s"
    )


def test_criterion_2_semigroup_ring_values():
    t0 = time.monotonic()
    ring = suites.semigroup_ring()
    x = ring.parse_ideal(["x"])

    assert reduction_number(x).r == 3
    xm2 = times_m_power(x, 2)
    assert not ideal_equal_local(xm2, ring.m_power(3))
    for n in (3, 4, 5):
        assert ideal_equal_local(times_m_power(x, n), ring.m_power(n + 1)), n

    rr2 = ratliff_rush_power(ring, 2)
    assert ideal_equal_local(rr2.stable_value, ring.parse_ideal(["x^2", "x*y", "y^2", "z"]))

    assert s_index(ring, 8).s == 3

    rep = dao_numbers(x, POLICY)
    assert (rep.n1, rep.n2, rep.n3) == (3, 3, 3)

    L = ring.parse_ideal(["x", "y"])
    assert reduction_number(L).r == 1
    repL = dao_numbers(L, POLICY)
    assert repL.n1 == 2

    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"{elapsed:.1f}s"
    _report(
        f"criterion 2: PASS  r_(x)=3, m^3 != x*m^2, m^(n+1)=x*m^n for n=3..5, "
        f"RR(m^2)=(x^2,xy,y^2,z), s=3, dao=(3,3,3), r_(x,y)=1, n1(L)=2, {elapsed:.1f}s"
    )


def test_criterion_3_regular_rings_vanish():
    details = []
    for nvars in (2, 3):
        t0 = time.monotonic()
        ring = suites.regular_ring(nvars)
        rep = dao_numbers(ring.maximal_ideal(), POLICY)
        assert (rep.n1, rep.n2, rep.n3) == (0, 0, 0), nvars
        assert rep.s == 1, nvars
        elapsed = time.monotonic() - t0
        assert elapsed < 10, f"{nvars} vars: {elapsed:.1f}s"
        details.append(f"{nvars}d {elapsed:.1f}s")
    _report(f"criterion 3: PASS  n=(0,0,0), s=1 on regular rings ({', '.join(details)})")


def test_criterion_4_randomized_theorem_suite():
    stats = suites.run_predicate_equivalence_suite(n_ideals=200, seed=424242, trials=8)
    assert stats.cases >= 200
    assert stats.implication_violations == [], stats.implication_violations
    assert stats.certified_violations == [], stats.certified_violations
    rate = len(stats.uncertified_discrepancies) / stats.cases
    assert rate < 0.02, f"uncertified discrepancy rate {rate:.2%}"

    rings = {
        "rational_singularity": suites.rational_singularity_ring(),
        "semigroup": suites.semigroup_ring(),
        "regular_2d": suites.regular_ring(2),
        "regular_3d": suites.regular_ring(3),
    }
    chains = suites.run_rr_chain_suite(rings, top_power=4)
    assert chains.ascent_violations == []
    assert chains.claim_violations == []
    assert chains.closure_mismatches == []
    _report(
        f"criterion 4: PASS  {stats.cases} predicate cases on 200 random ideals "
        f"(0 certified violations, {len(stats.uncertified_discrepancies)} uncertified "
        f"discrepancies), {chains.pairs_checked} chain pairs (0 ascent / 0 colon-identity "
        "violations, closures equal the chains' values)"
    )


def test_criterion_5_monomial_oracle_equivalence():
    stats = suites.run_monomial_oracle_suite(n_cases=500, seed=314159)
    assert stats.cases == 500
    assert stats.mismatches == [], stats.mismatches[:3]
    _report("criterion 5: PASS  500 random monomial instances, 0 mismatches across "
            "product/intersection/colon")


def _assert_report_consistency(results: dict, label: str):
    alpha = results["alpha"]
    assert results["n2"] <= results["n3"] == results["n1"] == alpha, label
    table = {row["n"]: row for row in results["predicate_table"]}
    if alpha >= 1:
        assert table[alpha - 1]["weakly_m_full"]["value"] is False, label
    assert table[alpha]["weakly_m_full"]["value"] is True, label


def test_criterion_6_corpus_report_consistency():
    # The slow corpus entry is covered once, inside criterion 7.
    checked = []
    for entry in corpus.listing():
        if entry["slow"]:
            continue
        problem = corpus.load(entry["name"])
        report = cli.run(problem)
        assert report.get("expected_match", True), (entry["name"], report.get("expected_diffs"))
        _assert_report_consistency(report["results"], entry["name"])
        checked.append(entry["name"])
    _report(
        f"criterion 6: PASS  internal consistency on {len(checked)} corpus runs: "
        + ", ".join(checked)
    )


def test_criterion_7_complete_intersection_stretch():
    if os.environ.get("RUN_SLOW") != "1":
        _report("criterion 7: SKIPPED-SLOW  (set RUN_SLOW=1 to attempt; budget 30 min)")
        pytest.skip("SKIPPED-SLOW: stretch case runs only with RUN_SLOW=1")
    t0 = time.monotonic()
    problem = corpus.load("example_4_3")
    report = cli.run(problem)
    results = report["results"]
    assert report.get("expected_match", True), report.get("expected_diffs")
    assert (results["n1"], results["n2"], results["n3"]) == (7, 7, 7)
    assert results["reg_bound_consistent"] is True
    assert results["n1"] <= 8
    _assert_report_consistency(results, "example_4_3")
    elapsed = time.monotonic() - t0
    assert elapsed < 1800, f"{elapsed:.0f}s exceeded the 30 minute budget"
    _report(f"criterion 7: PASS  n=(7,7,7), n1 <= reg=8, {elapsed:.0f}s")
