"""Tests for reduction numbers, Ratliff-Rush chains, s-index, and the
asymptotic indices."""

import collections
import functools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fullness_lab.fullness import GenericElementPolicy, is_full, is_m_full, is_weakly_m_full
from fullness_lab.idealcalc import (
    QuotientRing,
    ideal_equal_local,
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
    s_index,
    verify_statements,
)
from fullness_lab.polyring import PolyRing, PrimeField

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
    with pytest.raises(NotAReductionError):
        reduction_number(REG2.parse_ideal(["x"]), max_iter=6)
    with pytest.raises(NotAReductionError):
        reduction_number(REG2.parse_ideal(["x + 1"]))  # not inside m


# -- Ratliff-Rush chains -----------------------------------------------------

def test_rr_stable_value_semigroup_square():
    E = ring_4_2()
    record = ratliff_rush_power(E, 2, policy=POLICY)
    target = E.parse_ideal(["x^2", "x*y", "y^2", "z"])
    assert ideal_equal_local(record.stable_value, target)
    assert not ideal_equal_local(record.stable_value, E.m_power(2))
    assert record.certified is False
    assert record.window == 3
    for earlier, later in zip(record.chain, record.chain[1:]):
        for g in earlier.gb.basis:
            from fullness_lab.idealcalc import ideal_contains_local

            assert ideal_contains_local(later, g)


def test_rr_closed_in_regular_ring():
    for n in (1, 2, 4):
        record = ratliff_rush_power(REG2, n, policy=POLICY)
        assert ideal_equal_local(record.stable_value, REG2.m_power(n))


def test_rr_general_base_parameter_ideal():
    # Powers of (x^2, y^2) are integrally closed in K[x,y]; the colon chain
    # must sit constantly at the power itself.  The oracle recomputes each
    # chain term with closed-form monomial arithmetic.
    Q = ((2, 0), (0, 2))
    base = REG2.ideal([REG2.ambient.monomial(m) for m in Q])
    record = ratliff_rush_power(REG2, 2, window=3, policy=POLICY, base=base)
    q2 = oracles.mono_power(Q, 2)
    expected = REG2.ideal([REG2.ambient.monomial(m) for m in q2])
    assert ideal_equal_local(record.stable_value, expected)
    for j in range(1, 7):
        oracle_term = oracles.mono_colon(oracles.mono_power(Q, 2 + j), oracles.mono_power(Q, j))
        assert oracle_term == q2


def test_rr_window_validation():
    with pytest.raises(Exception):
        ratliff_rush_power(REG2, 0, policy=POLICY)
    with pytest.raises(Exception):
        ratliff_rush_power(REG2, 1, window=1, policy=POLICY)


def test_rr_chain_cap():
    with pytest.raises(ChainCapExceeded):
        ratliff_rush_power(REG2, 1, window=4, j_cap=3, policy=POLICY)


# -- s index -----------------------------------------------------------------

def test_s_index_values():
    assert s_index(ring_4_1(), 6, policy=POLICY).s == 1
    assert s_index(ring_4_2(), 6, policy=POLICY).s == 3
    assert s_index(REG2, 4, policy=POLICY).s == 1
    assert s_index(REG3, 4, policy=POLICY).s == 1


def test_s_index_reports_bound():
    res = s_index(ring_4_2(), 5, policy=POLICY)
    assert res.certified_up_to == 5
    assert len(res.records) == 5


def test_closure_contains_power_and_agrees_beyond_s():
    # The stable value always contains the power it closes; from s onward
    # the two coincide (within the scanned bound).
    from fullness_lab.idealcalc import ideal_contains_local_ideal

    E = ring_4_2()
    res = s_index(E, 5, policy=POLICY)
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
    # is caught rather than silently changing the ideals.
    from fullness_lab.invariants import InvariantError, _i_m_power

    E = ring_4_2()
    I = E.parse_ideal(["x"])  # r = 3
    for n in range(3):
        assert ideal_equal_local(_i_m_power(I, n, 3), times_m_power(I, n))
    with pytest.raises(InvariantError):
        _i_m_power(I, 1, 0)


def test_dao_semigroup_non_minimal_reduction():
    E = ring_4_2()
    rep = dao_numbers(E.parse_ideal(["x", "y"]), POLICY)
    assert rep.r == 1 and rep.s == 3
    assert rep.n1 == rep.n3 == 2
    assert rep.n2 <= rep.n1


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
        dao_numbers(REG2.parse_ideal(["x"]), POLICY, max_iter=5)


def test_depth_probe_failure():
    # In K[x,y]/(x^2, x*y) every linear form is a zerodivisor.
    amb = PolyRing(["x", "y"], P32)
    Q = QuotientRing(amb, [amb.parse("x^2"), amb.parse("x*y")])
    with pytest.raises(DepthProbeError):
        depth_witness(Q, POLICY)
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
    assert by_name["rees_regularity_bound"].status == "HOLDS"
    assert by_name["dim1_reduction_formula"].status == "SKIPPED"


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
