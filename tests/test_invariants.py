"""Tests for reduction numbers, Ratliff-Rush closures, s-index, and the
asymptotic indices."""

import collections
import functools
import json
import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fullness_lab import cli, corpus
from fullness_lab.fullness import GenericElementPolicy, is_full, is_m_full, is_weakly_m_full
from fullness_lab.groebner import normal_form
from fullness_lab.idealcalc import (
    QuotientRing,
    ideal_contains_local_ideal,
    ideal_equal_local,
    ideal_product,
    is_nonzerodivisor,
    times_m_power,
)
from fullness_lab.invariants import (
    ChainCapExceeded,
    DepthProbeError,
    NotAReductionError,
    dao_numbers,
    depth_witness,
    ratliff_rush_power,
    reduction_number,
    reg_G_upper,
    s_index,
    verify_statements,
)
from fullness_lab.polyring import QQ, PolyRing, PrimeField

P32 = PrimeField(32003)
POLICY = GenericElementPolicy(trials=8, seed=1234)


# One ring per presentation: the tests share its ring-level results (powers
# of m, Ratliff-Rush records, depth witness) as one served process does.
@functools.cache
def ring_4_1(a=2, b=2, c=2):
    amb = PolyRing(["x", "y", "z", "t"], P32)
    rels = [f"x*y - t^{a+b}", f"x*z - t^{a+c} + z*t^{a}", f"y*z - y*t^{c} + z*t^{b}"]
    return QuotientRing(amb, [amb.parse(s) for s in rels])


@functools.cache
def ring_4_2():
    amb = PolyRing(["x", "y", "z"], P32)
    rels = ["y^3 - x*z", "x^4 - y*z", "x^3*y^2 - z^2"]
    return QuotientRing(amb, [amb.parse(s) for s in rels])


REG2 = QuotientRing(PolyRing(["x", "y"], P32))
REG3 = QuotientRing(PolyRing(["x", "y", "z"], P32))


@functools.cache
def y_cubed(field=P32):
    """k[x, y]/(y^3): G(m) = P/(y^3), so r of (x) and of (x + y^2) is 2."""
    amb = PolyRing(["x", "y"], field)
    return QuotientRing(amb, [amb.parse("y^3")])


def y_cubed_f2():
    return y_cubed(PrimeField(2))


def y_cubed_qq():
    return y_cubed(QQ)


def x_squared():
    """k[x]/(x^2), of dimension 0: its zero ideal is a reduction of m, with
    0·m = m^2 = 0 while 0 ≠ m, so r = 1."""
    amb = PolyRing(["x"], P32)
    return QuotientRing(amb, [amb.parse("x^2")])


# -- reduction numbers -------------------------------------------------------

def test_reduction_number_rational_singularity():
    E = ring_4_1()
    cert = reduction_number(E.parse_ideal(["x + y + z", "t"]))
    assert cert.r == 1
    assert cert.checked_up_to == 2


def test_reduction_number_semigroup_ring():
    E = ring_4_2()
    assert reduction_number(E.parse_ideal(["x"])).r == 3
    assert reduction_number(E.parse_ideal(["x", "y"])).r == 1


def test_maximal_ideal_reduces_itself():
    assert reduction_number(REG2.maximal_ideal()).r == 0
    assert reduction_number(ring_4_2().maximal_ideal()).r == 0


def test_non_reduction_detected():
    # No bound on a search is needed: G(m)/L G(m) has infinite length.
    with pytest.raises(NotAReductionError):
        reduction_number(REG2.parse_ideal(["x"]))
    with pytest.raises(NotAReductionError):
        reduction_number(REG2.parse_ideal(["x + 1"]))  # not inside m
    for E in (REG2, ring_4_2()):
        with pytest.raises(NotAReductionError):
            reduction_number(E.parse_ideal(["x^2"]))
    with pytest.raises(NotAReductionError):
        reduction_number(REG3.parse_ideal(["x", "y"]))
    # In positive dimension the finite-length test refuses the zero ideal.
    for E in (REG2, y_cubed()):
        with pytest.raises(NotAReductionError):
            reduction_number(E.parse_ideal(["0"]))


def _least_k_with_local_equality(I):
    """The reduction number by its definition, with local equality tests on
    the untruncated ideals I m^k."""
    for k in range(10):
        if ideal_equal_local(times_m_power(I, k), I.ring.m_power(k + 1)):
            return k
    raise AssertionError("no reduction within k < 10")


@pytest.mark.parametrize(
    "ring, gens, r",
    [
        # (x + x^2, y) also vanishes at (-1, 0), away from the origin.
        (lambda: REG2, ["x + x^2", "y"], 0),
        (ring_4_2, ["x"], 3),
        (ring_4_2, ["x", "y"], 1),
        # Non-general: the x/y minor vanishes mod 32003, so the ideal holds z.
        (ring_4_2, ["11640*x + 30444*y + 1554*z", "14143*x + 30161*y + 15051*z"], 3),
        (ring_4_1, ["x + y + z", "t"], 1),
        (y_cubed, ["x"], 2),
        (y_cubed, ["x + y^2"], 2),
        (y_cubed_f2, ["x"], 2),
        (y_cubed_qq, ["x + y^2"], 2),
        (x_squared, ["x^2"], 1),
        (x_squared, ["0"], 1),
    ],
)
def test_reduction_number_matches_local_equality(ring, gens, r):
    I = ring().parse_ideal(gens)
    assert reduction_number(I).r == _least_k_with_local_equality(I) == r


def test_reduction_number_decides_on_ideals_that_contain_a_power_of_m(monkeypatch):
    # r is read off P/(J* + L), whose basis holds a pure power of every
    # variable, never off local equality tests on I m^k.
    from fullness_lab import invariants

    # invariants does not import ideal_contains_local_ideal; the guard is
    # set anyway, so that an import of it cannot go unnoticed here.
    for name in ("ideal_equal_local", "ideal_contains_local_ideal"):
        monkeypatch.setattr(
            invariants, name, lambda *a, _n=name: pytest.fail(f"{_n} called"), raising=False
        )
    assert reduction_number(ring_4_2().parse_ideal(["x"])).r == 3


@pytest.mark.parametrize("seed", range(4))
def test_reduction_number_matches_the_ladder_walk(seed):
    # Dense draws as the benchmark makes them (two linear forms, some with a
    # vanishing x/y minor), one form, three forms and a form plus a
    # quadric, over F_32003 and Q.  Too few forms in dimension two and
    # three are not reductions, and both methods must refuse them.  A
    # reduction on these rings has r <= 3, so the oracle's bound k <= 6 is
    # never what stops it.
    rng = random.Random(seed)
    for name in ("example_4_1", "example_4_2_I", "regular_3d_parameter"):
        for characteristic in (32003, 0):
            problem = corpus.load(name)
            problem["ring"]["characteristic"] = characteristic
            ring = cli.build_ring(problem)
            amb, last = ring.ambient, ring.ambient.gens()[-1]
            for shape in ("dense", "degenerate", "one", "three", "quadric"):
                forms = [oracles.random_polynomial(rng, amb) for _ in range(3 if shape == "three" else 2)]
                if shape == "degenerate":
                    forms[1] = forms[0] * amb.constant(rng.randint(1, 9)) + last
                elif shape == "one":
                    forms = forms[:1]
                elif shape == "quadric":
                    forms[1] = oracles.random_polynomial(rng, amb, (1, 2))
                I = ring.ideal(forms)
                try:
                    want = oracles.reduction_number_by_ladder(I)
                except AssertionError:
                    with pytest.raises(NotAReductionError):
                        reduction_number(I)
                    continue
                assert reduction_number(I).r == want, (name, characteristic, shape, forms)


# -- Ratliff-Rush closures ---------------------------------------------------

def test_rr_stable_value_semigroup_square():
    E = ring_4_2()
    record = ratliff_rush_power(E, 2)
    target = E.parse_ideal(["x^2", "x*y", "y^2", "z"])
    assert ideal_equal_local(record.stable_value, target)
    assert not ideal_equal_local(record.stable_value, E.m_power(2))
    # The certificate: the closure times m lies in m^3.
    assert record.j == 1
    closure_times_m = ideal_product(record.stable_value, E.maximal_ideal())
    assert ideal_contains_local_ideal(E.m_power(3), closure_times_m)
    assert record.chain == (record.stable_value,) and record.stabilized_at == 1


def test_rr_closed_in_regular_ring():
    for n in (1, 2, 4):
        record = ratliff_rush_power(REG2, n)
        assert ideal_equal_local(record.stable_value, REG2.m_power(n))


def test_rr_window_validation():
    with pytest.raises(Exception):
        ratliff_rush_power(REG2, 0)


def test_rr_chain_cap():
    # The closure of m^2 on example_4_3 is certified at j = 6: no cap on j
    # turns it into an error, also once the ring keeps the record.
    ring = cli.build_ring(corpus.load("example_4_3"))
    assert ratliff_rush_power(ring, 2).j == 6
    assert ratliff_rush_power(ring, 2).j == 6


def _fast_corpus_rings():
    specs = {}
    for entry in corpus.listing():
        problem = corpus.load(entry["name"])
        if not entry["slow"]:
            specs.setdefault(json.dumps(problem["ring"], sort_keys=True), entry["name"])
    return sorted(specs.values())


@pytest.mark.parametrize("characteristic", [32003, 0])
@pytest.mark.parametrize("name", _fast_corpus_rings())
def test_rr_closure_equals_the_colon_chain(name, characteristic):
    problem = corpus.load(name)
    problem["ring"]["characteristic"] = characteristic
    ring = cli.build_ring(problem)
    for n in range(1, reg_G_upper(ring) + 3):
        record = ratliff_rush_power(ring, n)
        chain = oracles.rr_chain(ring, n)
        assert ideal_equal_local(record.stable_value, chain[-1]), (name, characteristic, n)


def test_rr_a_witness_that_is_not_superficial_is_never_certified(monkeypatch):
    # z is regular on this domain, but its initial form kills m in G(m):
    # (m^4 : z^(4-n)) is larger than the closure, so no certificate holds.
    from fullness_lab import invariants

    amb = PolyRing(["x", "y", "z"], P32)
    E = QuotientRing(amb, [amb.parse(s) for s in ["y^3 - x*z", "x^4 - y*z", "x^3*y^2 - z^2"]])
    z = amb.parse("z")
    assert [invariants._certified_closure(E, n, z) for n in (1, 2, 3)] == [None] * 3
    # As the depth witness, z is followed by drawn forms, which certify ...
    E.memo(("depth-witness",), lambda: z)
    record = ratliff_rush_power(E, 2)
    assert (record.j, sorted(map(str, record.stable_value.gb.basis))) == (1, ["x*y", "x^2", "y^2", "z"])
    # ... unless every draw fails too: then no closure is returned.
    monkeypatch.setattr(invariants, "sample_linear_form", lambda ring, rng: z)
    with pytest.raises(ChainCapExceeded, match="not superficial"):
        ratliff_rush_power(E, 3)
    assert ("rr", 3) not in E._op_cache


def test_rr_draws_again_where_the_depth_witness_is_not_superficial():
    # Over F_2, x is regular on example_4_1_234, and (m^5 : x^3) is larger
    # than the closure of m^2; as the depth witness, x is followed by drawn
    # forms, which certify every closure.
    from fullness_lab import invariants

    spec = corpus.load("example_4_1_234")["ring"]
    amb = PolyRing(spec["variables"], PrimeField(2))
    E = QuotientRing(amb, [amb.parse(f) for f in spec["relations"]])
    x = amb.parse("x")
    E.memo(("depth-witness",), lambda: x)
    assert is_nonzerodivisor(x, E) and depth_witness(E) is x
    assert invariants._certified_closure(E, 2, x) is None
    for n in range(1, reg_G_upper(E) + 2):
        record = ratliff_rush_power(E, n)
        assert ideal_equal_local(record.stable_value, oracles.rr_chain(E, n)[-1]), n


@pytest.mark.skipif(os.environ.get("RUN_SLOW") != "1", reason="runs only with RUN_SLOW=1")
def test_rr_closures_of_the_stretch_case_exceed_the_window_chain():
    ring = cli.build_ring(corpus.load("example_4_3"))
    for n in (2, 3, 4):
        closure = ratliff_rush_power(ring, n).stable_value
        stopped = oracles.rr_chain(ring, n, window=3)[-1]
        assert ideal_contains_local_ideal(closure, stopped), n
        assert not ideal_equal_local(closure, stopped), n
    report = cli.run(corpus.load("example_4_3"), {"task": "verify"})
    checks = {c["name"]: c["status"] for c in report["results"]["checks"]}
    assert checks["rr_colon_descends"] == "HOLDS"


# -- s index -----------------------------------------------------------------

def test_s_index_values():
    assert s_index(ring_4_1(), 6).s == 1
    assert s_index(ring_4_2(), 6).s == 3
    assert s_index(REG2, 4).s == 1
    assert s_index(REG3, 4).s == 1


def test_s_index_reports_bound():
    res = s_index(ring_4_2(), 5)
    assert res.certified_up_to == 5
    assert len(res.records) == 5


def test_closure_contains_power_and_agrees_beyond_s():
    # The stable value always contains the power it closes; from s onward
    # the two coincide (within the scanned bound).
    E = ring_4_2()
    res = s_index(E, 5)
    for record in res.records:
        power = E.m_power(record.n)
        assert ideal_contains_local_ideal(record.stable_value, power)
        if record.n >= res.s:
            assert ideal_equal_local(record.stable_value, power)
    assert not ideal_equal_local(res.records[1].stable_value, E.m_power(2))


# -- dao numbers -------------------------------------------------------------

def test_dao_rational_singularity():
    E = ring_4_1()
    rep = dao_numbers(E.parse_ideal(["x + y + z", "t"]), POLICY)
    assert (rep.r, rep.s, rep.alpha) == (1, 1, 1)
    assert (rep.n1, rep.n2, rep.n3) == (1, 0, 1)
    assert rep.alpha_validated


def test_dao_parameterized_family_members_agree():
    E = ring_4_1(2, 3, 4)
    rep = dao_numbers(E.parse_ideal(["x + y + z", "t"]), POLICY)
    assert (rep.n1, rep.n2, rep.n3) == (1, 0, 1)


def test_dao_semigroup_minimal_reduction():
    E = ring_4_2()
    rep = dao_numbers(E.parse_ideal(["x"]), POLICY)
    assert (rep.r, rep.s) == (3, 3)
    assert (rep.n1, rep.n2, rep.n3) == (3, 3, 3)
    assert rep.alpha_validated


def test_table_ideals_are_truncated_by_a_checked_power_of_m():
    # I m^n + m^(n+r+1) is I m^n in the local ring; an r that is too small
    # or too large is caught rather than silently changing the ideals.
    from fullness_lab.invariants import InvariantError, _ladder, _table_rows

    E = ring_4_2()
    I = E.parse_ideal(["x"])  # r = 3
    for n in range(3):
        assert ideal_equal_local(_ladder(I, n, 4), times_m_power(I, n))
    for wrong in (0, 1, 2, 4, 5):
        with pytest.raises(InvariantError):
            _table_rows(I, wrong, POLICY, [1])
    _table_rows(I, 3, POLICY, [0])
    # At r = 0 the guard asks I + m^2, not rung 0 = I + m, about m.
    with pytest.raises(InvariantError):
        _table_rows(E.parse_ideal(["x", "y"]), 0, POLICY, [0])
    _table_rows(E.maximal_ideal(), 0, POLICY, [0])


def test_table_rungs_keep_the_basis_of_the_truncated_ideal():
    from fullness_lab.invariants import _ladder

    for E, gens, r in ((ring_4_2(), ["x"], 3), (ring_4_1(), ["x + y + z", "t"], 1)):
        I = E.parse_ideal(gens)
        for n in range(4):
            rung = _ladder(I, n, r + 1)
            direct = E.ideal(list(times_m_power(I, n).gens) + list(E.m_power(n + r + 1).gens))
            assert rung.gb.basis == direct.gb.basis, (gens, n)


@pytest.mark.parametrize(
    "ring, gens", [(ring_4_2, ["x", "y"]), (ring_4_1, ["x + y + z", "t"])]
)
def test_reduction_number_builds_no_rung(monkeypatch, ring, gens):
    # r comes from one Groebner basis of J* + L: no rung, no product and no
    # membership test of m-powers.  The table then builds its rungs, and the
    # product N = K m that m-fullness takes of a rung is the next rung: one
    # handle, one Groebner basis.
    from fullness_lab import invariants
    from fullness_lab.idealcalc import ideal_product

    E = ring()
    I = E.parse_ideal(gens)
    with monkeypatch.context() as patch:
        for name in ("_ladder", "ideal_contains_local_ideal", "ideal_product"):
            patch.setattr(invariants, name, lambda *a, _n=name: pytest.fail(f"{_n} called"))
        assert reduction_number(I).r == 1
    table = []

    def record_rung(K, policy, _original=invariants.is_m_full):
        table.append(K)  # rows are built in order n = 0, 1, ...
        return _original(K, policy)

    monkeypatch.setattr(invariants, "is_m_full", record_rung)
    report = dao_numbers(I, POLICY)
    assert report.r == 1 and len(table) == report.alpha + 2
    for n in range(len(table) - 1):
        assert ideal_product(table[n], E.maximal_ideal()) is table[n + 1], n


def test_dao_semigroup_non_minimal_reduction():
    E = ring_4_2()
    rep = dao_numbers(E.parse_ideal(["x", "y"]), POLICY)
    assert rep.r == 1 and rep.s == 3
    assert rep.n1 == rep.n3 == 2
    assert rep.n2 <= rep.n1


def test_dao_of_two_forms_whose_xy_minor_vanishes_is_that_of_z_and_one_form():
    # The x/y minor 11640*30161 - 30444*14143 is 0 mod 32003, so z lies in
    # the ideal and it equals (z, 11640*x + 30444*y): not the generic
    # answer (1, 3, 2, 0, 2) of two dense forms on this ring.
    E = ring_4_2()
    key = lambda rep: (rep.r, rep.s, rep.n1, rep.n2, rep.n3)
    degenerate = dao_numbers(
        E.parse_ideal(["11640*x + 30444*y + 1554*z", "14143*x + 30161*y + 15051*z"]), POLICY
    )
    assert key(degenerate) == (3, 3, 3, 3, 3)
    assert key(dao_numbers(E.parse_ideal(["z", "11640*x + 30444*y"]), POLICY)) == key(degenerate)


def test_dao_regular_rings_vanish():
    for ring in (REG2, REG3):
        rep = dao_numbers(ring.maximal_ideal(), POLICY)
        assert (rep.n1, rep.n2, rep.n3) == (0, 0, 0)
        assert rep.s == 1 and rep.r == 0


def test_dao_maximal_ideal_formula():
    # With I = m the reduction number is zero, so n1 = s - 1.
    E = ring_4_2()
    rep = dao_numbers(E.maximal_ideal(), POLICY)
    assert rep.r == 0
    assert rep.n1 == rep.s - 1 == 2


def test_dao_report_internal_consistency():
    E = ring_4_2()
    for gens in (["x"], ["x", "y"]):
        rep = dao_numbers(E.parse_ideal(gens), POLICY)
        assert rep.n2 <= rep.n3 == rep.n1 == rep.alpha
        table = {row.n: row for row in rep.predicate_table}
        top = table[rep.alpha]
        assert top.m_full.value and top.full.value and top.weakly_m_full.value
        if rep.alpha >= 1:
            assert not table[rep.alpha - 1].weakly_m_full.value
        # r = 0 iff the formula collapses to s - 1
        if rep.r == 0:
            assert (rep.n1 == 0) == (rep.s == 1)


def test_dao_reg_bound_consistency():
    E = ring_4_1()
    rep = dao_numbers(E.parse_ideal(["x + y + z", "t"]), POLICY, known_reg=3)
    assert rep.reg_bound == 3 and rep.reg_bound_consistent


def test_dao_rejects_non_reduction():
    with pytest.raises(NotAReductionError):
        dao_numbers(REG2.parse_ideal(["x"]), POLICY)


def test_depth_probe_failure():
    # In K[x,y]/(x^2, x*y) every linear form is a zerodivisor.
    amb = PolyRing(["x", "y"], P32)
    Q = QuotientRing(amb, [amb.parse("x^2"), amb.parse("x*y")])
    with pytest.raises(DepthProbeError):
        depth_witness(Q)
    with pytest.raises(DepthProbeError):
        dao_numbers(Q.parse_ideal(["x", "y"]), POLICY)


def test_two_dim_regular_indices_agree_observed():
    # In a regular 2-dimensional ring the three indices agree: scan the
    # predicates over a window and compare the observed thresholds.
    rng = random.Random(7331)
    policy = GenericElementPolicy(trials=8, seed=99)
    for _ in range(6):
        gens = oracles.random_monomial_ideal(rng, 2, 4, 3)
        I = REG2.ideal([REG2.ambient.monomial(m) for m in gens])
        if I.contains_unit_local():
            continue
        window = 7
        rows = []
        K = I
        for n in range(window):
            rows.append(
                (
                    is_m_full(K, policy.derive(f"scan:{n}:m")).value,
                    is_full(K, policy.derive(f"scan:{n}:f")).value,
                    is_weakly_m_full(K).value,
                )
            )
            K = times_m_power(K, 1)

        def observed(idx):
            threshold = 0
            for n in range(window - 1, -1, -1):
                if not rows[n][idx]:
                    threshold = n + 1
                    break
            return threshold

        assert observed(0) == observed(1) == observed(2), rows


def test_verify_statements_semigroup():
    E = ring_4_2()
    rep, checks = verify_statements(
        E, E.parse_ideal(["x"]), POLICY, assert_dim=1, assert_minimal=True
    )
    by_name = {c.name: c for c in checks}
    assert by_name["mfull_implies_weakly_mfull"].status == "HOLDS"
    assert by_name["full_next_and_weakly_iff_mfull"].status == "HOLDS"
    assert by_name["n2_le_n3_eq_n1"].status == "HOLDS"
    assert by_name["rr_colon_descends"].status == "HOLDS"
    assert by_name["dim1_reduction_formula"].status == "HOLDS"
    assert by_name["max_ideal_formula"].status == "SKIPPED"
    assert by_name["n3_equals_reduction_number_conjecture"].status == "SKIPPED"


def test_verify_statements_non_minimal_reduction():
    # Without a minimality assertion the dimension-one formula must not be
    # asserted; the index ordering still holds with n1 = 2.
    E = ring_4_2()
    rep, checks = verify_statements(E, E.parse_ideal(["x", "y"]), POLICY, assert_dim=1)
    by_name = {c.name: c for c in checks}
    assert rep.n1 == 2
    assert by_name["n2_le_n3_eq_n1"].status == "HOLDS"
    assert by_name["dim1_reduction_formula"].status == "SKIPPED"


def test_verify_statements_rational_singularity():
    E = ring_4_1()
    rep, checks = verify_statements(
        E,
        E.parse_ideal(["x + y + z", "t"]),
        POLICY,
        assert_dim=2,
        assert_minimal=True,
        known_reg=8,
    )
    by_name = {c.name: c for c in checks}
    assert by_name["n3_equals_reduction_number_conjecture"].status == "CONSISTENT"
    # reg G(m) <= reg_G_upper = 1 refutes the recorded regularity 8
    assert (by_name["rees_regularity_bound"].status, by_name["rees_regularity_bound"].detail) == (
        "VIOLATION",
        "known_reg=8 > reg_G_upper=1: the recorded regularity exceeds the certified bound",
    )
    assert by_name["dim1_reduction_formula"].status == "SKIPPED"
    assert by_name["n1_le_reg_G_upper"].status == "HOLDS"
    assert by_name["n1_le_reg_G_upper"].detail == (
        "n1=1 = reg_G_upper=1; known_reg=8 > reg_G_upper=1"
    )


def test_verify_compares_n1_and_known_reg_with_the_certified_bound():
    E = ring_4_2()
    rep, checks = verify_statements(E, E.parse_ideal(["x"]), POLICY, known_reg=3)
    assert rep.reg_G_upper == 3 and rep.flags["s_bound"] == rep.s_certified_up_to == 3
    check = {c.name: c for c in checks}["n1_le_reg_G_upper"]
    assert (check.status, check.detail) == (
        "HOLDS", "n1=3 = reg_G_upper=3; known_reg=3 = reg_G_upper=3"
    )
    check = {c.name: c for c in checks}["rees_regularity_bound"]
    assert (check.status, check.detail) == ("HOLDS", "n1=3 <= reg=3")  # at the bound
    # rr_colon_descends reads closures up to alpha + 2, past the s-scan
    assert {c.name: c for c in checks}["rr_colon_descends"].detail == (
        "checked consecutive closures up to power 5"
    )


def test_verify_evaluates_each_predicate_once_per_ideal(monkeypatch):
    # verify extends the index table of dao_numbers instead of sampling the
    # table ideals I m^n again.
    from fullness_lab import invariants

    calls = []
    for name in ("is_m_full", "is_full", "is_weakly_m_full"):
        def record(K, *args, _name=name, _predicate=getattr(invariants, name)):
            calls.append((_name, K.gb.basis))
            return _predicate(K, *args)

        monkeypatch.setattr(invariants, name, record)
    E = ring_4_2()
    rep, _ = verify_statements(E, E.parse_ideal(["x"]), POLICY)
    assert len(calls) == len(set(calls))
    # m-full and weak m-full at n = 0..alpha+2, fullness at n = 0..alpha+3
    assert collections.Counter(name for name, _ in calls) == {
        "is_m_full": rep.alpha + 3,
        "is_full": rep.alpha + 4,
        "is_weakly_m_full": rep.alpha + 3,
    }
