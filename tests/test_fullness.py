"""Tests for the m-full / full / weakly m-full predicates."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fullness_lab import cli, corpus, fullness
from fullness_lab.fullness import (
    FullnessError,
    GenericElementPolicy,
    is_full,
    is_m_full,
    is_weakly_m_full,
    replay_witness,
    sample_linear_form,
)
from fullness_lab.idealcalc import (
    QuotientRing,
    ideal_colon,
    ideal_equal_local,
    ideal_product,
    times_m_power,
)
from fullness_lab.polyring import PolyRing, PrimeField

P32 = PrimeField(32003)
REG2 = QuotientRing(PolyRing(["x", "y"], P32))
POLICY = GenericElementPolicy(trials=8, seed=4242)
FAST_CORPUS = [e["name"] for e in corpus.listing() if not e["slow"]]


def ring_4_1():
    amb = PolyRing(["x", "y", "z", "t"], P32)
    rels = ["x*y - t^4", "x*z - t^4 + z*t^2", "y*z - y*t^2 + z*t^2"]
    return QuotientRing(amb, [amb.parse(s) for s in rels])


def test_weakly_m_full_examples():
    E = ring_4_1()
    I = E.parse_ideal(["x + y + z", "t"])
    r0 = is_weakly_m_full(I)
    assert not r0.value and r0.certified
    r1 = is_weakly_m_full(times_m_power(I, 1))
    assert r1.value and r1.certified
    rm = is_weakly_m_full(REG2.maximal_ideal())
    assert rm.value and rm.certified


def test_m_full_maximal_ideal_regular():
    res = is_m_full(REG2.maximal_ideal(), POLICY)
    assert res.value and res.certified and res.witness is not None


def test_m_full_with_linear_algebra_oracle():
    # Engine verdict for (x^2, y), cross-checked by brute-force linear
    # algebra: the degree-bounded kernel of multiplication-by-witness into
    # I*m must coincide with I.
    I = REG2.parse_ideal(["x^2", "y"])
    res = is_m_full(I, POLICY)
    assert res.value and res.witness is not None
    Im = ((3, 0), (1, 1), (0, 2))
    Igens = ((2, 0), (0, 1))
    ell = {tuple(m): c for m, c in res.witness.terms}
    kernel = oracles.linear_colon_kernel(Im, ell, 2, 6, 32003)
    monos = oracles.monomials_up_to(2, 6)
    dim_I = sum(1 for m in monos if any(oracles.m_divides(g, m) for g in Igens))
    assert len(kernel) == dim_I
    assert all(oracles.poly_in_monomial_ideal(f, Igens) for f in kernel)


def test_m_full_false_at_power_zero():
    E = ring_4_1()
    I = E.parse_ideal(["x + y + z", "t"])
    res = is_m_full(I, POLICY)
    assert not res.value
    assert not res.certified  # existential false is probabilistic
    assert res.trials_used == POLICY.trials


def test_full_with_explicit_witness():
    E = ring_4_1()
    I = E.parse_ideal(["x + y + z", "t"])
    res = is_full(I, POLICY)
    assert res.value and res.certified
    # the element z is a known witness; replay it exactly
    assert replay_witness(I, "full", E.ambient.parse("z"))


def test_full_principal_nonzerodivisor():
    f = REG2.parse_ideal(["x + y^2"])
    res = is_full(f, POLICY)
    assert res.value


def test_full_cross_checked_by_equivalence():
    # (x^2, y) is m-full, hence full at the next power and weakly m-full.
    I = REG2.parse_ideal(["x^2", "y"])
    assert is_m_full(I, POLICY).value
    assert is_weakly_m_full(I).value
    assert is_full(times_m_power(I, 1), POLICY).value
    assert is_full(I, POLICY).value


def test_m_full_implies_weakly_m_full_randomized():
    rng = random.Random(55)
    found_m_full = 0
    for _ in range(40):
        gens = oracles.random_monomial_ideal(rng, 2, 5, 3)
        I = REG2.ideal([REG2.ambient.monomial(m) for m in gens])
        if I.contains_unit_local():
            continue
        if is_m_full(I, POLICY).value:
            found_m_full += 1
            assert is_weakly_m_full(I).value
    assert found_m_full > 0


def test_seed_determinism():
    I = REG2.parse_ideal(["x^2", "y"])
    a = is_m_full(I, GenericElementPolicy(trials=5, seed=99))
    b = is_m_full(I, GenericElementPolicy(trials=5, seed=99))
    assert a.witness == b.witness and a.trials_used == b.trials_used
    c = is_full(I, GenericElementPolicy(trials=5, seed=99))
    d = is_full(I, GenericElementPolicy(trials=5, seed=99))
    assert c.witness == d.witness


def test_witness_soundness_replay():
    cases = [
        (REG2.maximal_ideal(), "m-full"),
        (REG2.parse_ideal(["x^2", "y"]), "m-full"),
        (REG2.parse_ideal(["x^2", "y"]), "full"),
    ]
    for I, kind in cases:
        res = is_m_full(I, POLICY) if kind == "m-full" else is_full(I, POLICY)
        assert res.value
        assert replay_witness(I, kind, res.witness)


def test_sampled_elements_avoid_square_of_maximal_ideal():
    rng = GenericElementPolicy(seed=1).rng("sampling")
    from fullness_lab.groebner import normal_form

    m2 = REG2.m_power(2)
    for _ in range(25):
        ell = sample_linear_form(REG2, rng)
        assert not normal_form(ell, m2.gb).is_zero()
        assert ell.total_degree == 1


def test_degenerate_ideals_rejected():
    with pytest.raises(FullnessError):
        is_weakly_m_full(REG2.zero_ideal())
    with pytest.raises(FullnessError):
        is_m_full(REG2.m_power(0), POLICY)
    with pytest.raises(FullnessError):
        is_full(REG2.parse_ideal(["1 + x"]), POLICY)
    # an ideal whose generators all die in the quotient is the zero ideal
    amb = PolyRing(["x", "y"], P32)
    Q = QuotientRing(amb, [amb.parse("x*y")])
    with pytest.raises(FullnessError):
        is_weakly_m_full(Q.parse_ideal(["x*y"]))


@pytest.mark.parametrize("trials", [0, -3, True, 2.5, "5"])
def test_policy_rejects_trials_that_are_not_a_positive_integer(trials):
    # With no trial a scan reads every row as "not full": on regular_2d,
    # trials=0 used to give n2 = 1 > alpha = 0.
    with pytest.raises(FullnessError):
        GenericElementPolicy(trials=trials)


def _sampled_predicates(problem: dict) -> list:
    """(ideal, predicate, sampled x's) for every sampled predicate that a
    `dao` request on `problem` evaluates."""
    calls = []
    equation = fullness._equation

    def recording(I, predicate):
        holds, xs = equation(I, predicate), []
        calls.append((I, predicate, xs))

        def spy(x):
            xs.append(x)
            return holds(x)

        return spy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fullness, "_equation", recording)
        cli.run(problem, {"task": "dao"})
    return calls


def test_rank_verdict_matches_the_groebner_colon():
    cases = [(name, 32003) for name in FAST_CORPUS]
    cases += [(name, 0) for name in ("regular_2d", "example_4_2_I", "example_4_2_L")]
    verdicts = set()
    for name, characteristic in cases:
        problem = corpus.load(name)
        problem["ring"]["characteristic"] = characteristic
        for I, predicate, xs in _sampled_predicates(problem):
            ring, m = I.ring, I.ring.maximal_ideal()
            N, T = (ideal_product(I, m), I) if predicate == "m-full" else (I, ideal_colon(I, m))
            assert fullness._standard_monomials(N) is not None, (name, predicate)
            by_rank = fullness._equation(I, predicate)
            for x in xs + ring.ambient.gens():
                verdict = by_rank(x)
                assert verdict == ideal_equal_local(ideal_colon(N, ring.ideal([x])), T), (
                    name, characteristic, predicate, str(x),
                )
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_table_predicates_never_colon_by_one_element(name, monkeypatch):
    # Every table rung contains a power of m in P, the example_4_2 rungs
    # too although their relations are not homogeneous, so no sampled
    # trial falls back to the Groebner colon N : (x).
    divisors = []
    colon = fullness.ideal_colon

    def recording(A, B):
        divisors.append(len(B.gens))
        return colon(A, B)

    monkeypatch.setattr(fullness, "ideal_colon", recording)
    cli.run(corpus.load(name), {"task": "dao"})
    assert divisors and 1 not in divisors


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_premise_is_built_once_per_basis_in_a_request(name, monkeypatch):
    # The m-full test of a table rung and the full test of the next rung
    # ask about the same N; the ring's memo answers the second time.
    bases = []
    build = fullness._standard_monomials

    def recording(N):
        bases.append(N.gb.basis)
        return build(N)

    monkeypatch.setattr(fullness, "_standard_monomials", recording)
    cli.run(corpus.load(name), {"task": "dao"})
    assert bases and len(bases) == len(set(bases))


def test_replay_checks_that_a_power_of_m_lies_in_the_ideal():
    # (x^2 - x, y) is (x, y) in the local ring, but P/(x^2 - x, y) also has
    # the point (1, 0), where x is not nilpotent; a rank on P/N would count
    # it and call y no witness.
    I = REG2.parse_ideal(["x^2 - x", "y"])
    assert fullness._standard_monomials(ideal_product(I, REG2.maximal_ideal())) is None
    assert fullness._standard_monomials(I) is None
    assert fullness._standard_monomials(REG2.parse_ideal(["x + y^2"])) is None
    y = REG2.ambient.parse("y")
    assert replay_witness(I, "m-full", y)
    assert replay_witness(I, "full", y)
