"""Tests for the m-full / full / weakly m-full predicates."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fullness_lab import cli, corpus, fullness, idealcalc
from fullness_lab.fullness import (
    FullnessError,
    GenericElementPolicy,
    PredicateResult,
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
    quotient_view,
    times_m_power,
)
from fullness_lab.invariants import _ladder, reduction_number
from fullness_lab.polyring import QQ, PolyRing, PrimeField

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
    """(ideal, predicate, tested forms) for every test that a `dao` request
    on `problem` evaluates: a sampled x alone, or all of m for weak
    m-fullness."""
    calls = []
    equation = fullness._equation

    def recording(I, predicate):
        holds, tested = equation(I, predicate), []
        calls.append((I, predicate, tested))

        def spy(*forms):
            tested.append(forms)
            return holds(*forms)

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
        for I, predicate, tested in _sampled_predicates(problem):
            ring, m = I.ring, I.ring.maximal_ideal()
            N, T = (ideal_product(I, m), I) if predicate == "m-full" else (I, ideal_colon(I, m))
            assert quotient_view(N) is not None, (name, predicate)
            by_rank = fullness._equation(I, predicate)
            variables = tuple(ring.ambient.gens())
            for forms in tested + [(x,) for x in variables] + [variables]:
                verdict = by_rank(*forms)
                assert verdict == ideal_equal_local(oracles.groebner_colon(N, ring.ideal(forms)), T), (
                    name, characteristic, predicate, [str(x) for x in forms],
                )
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _weak_by_groebner(I) -> bool:
    m = I.ring.maximal_ideal()
    return ideal_equal_local(oracles.groebner_colon(ideal_product(I, m), m), I)


@pytest.mark.parametrize("characteristic", [32003, 0])
def test_weak_verdict_matches_the_groebner_colon(characteristic):
    # Im : m = I is decided by the rank of the stacked map v -> (x_1 v, ...)
    # on P/Im.  On every rung I m^n + m^(n+r+1) of the fast corpus, n up to
    # alpha + 2, and on seeded m-primary ideals in two and three variables
    # and their products with m, it must agree with the Groebner colon.
    field = PrimeField(characteristic) if characteristic else QQ
    rungs = []
    for name in FAST_CORPUS:
        problem = corpus.load(name)
        problem["ring"]["characteristic"] = characteristic
        ring = cli.build_ring(problem)
        I = cli._resolve_ideal(problem["options"]["ideal"], ring, {}, problem)
        results = cli.run(problem, {"task": "dao"})["results"]
        rungs += [_ladder(I, n, results["r"] + 1) for n in range(results["alpha"] + 3)]
    seeded, rng = [], random.Random(31)
    for variables in (["x", "y"], ["x", "y", "z"]):
        ring = QuotientRing(PolyRing(variables, field))
        amb = ring.ambient
        for _ in range(5):  # a monomial ideal and a dense form, truncated
            gens = [amb.monomial(u) for u in oracles.random_monomial_ideal(rng, amb.nvars, 3, 2)]
            gens.append(oracles.random_polynomial(rng, amb, (rng.randint(2, 3),)))
            K = _ladder(ring.ideal(gens), 0, rng.randint(3, 5))
            seeded += [K, times_m_power(K, 1)]
    for ideals in (rungs, seeded):
        verdicts = set()
        for K in ideals:
            assert quotient_view(ideal_product(K, K.ring.maximal_ideal())) is not None, str(K)
            verdict = is_weakly_m_full(K)
            assert verdict == PredicateResult(verdict.value, None, True, 0)
            assert verdict.value == _weak_by_groebner(K), (characteristic, str(K))
            verdicts.add(verdict.value)
        assert verdicts == {True, False}


def test_weak_m_fullness_with_no_view_keeps_the_colon(monkeypatch):
    # (x^2 - x, y) is m in the local ring, so it is weakly m-full, but
    # P/(I m) is not finite-dimensional: the test is the Groebner colon.
    I = REG2.parse_ideal(["x^2 - x", "y"])
    assert quotient_view(ideal_product(I, REG2.maximal_ideal())) is None
    divisors = []
    colon = fullness.ideal_colon

    def recording(A, B):
        divisors.append(len(B.gens))
        return colon(A, B)

    monkeypatch.setattr(fullness, "ideal_colon", recording)
    assert is_weakly_m_full(I).value and _weak_by_groebner(I)
    assert divisors == [2]


def test_weak_m_fullness_with_no_view_divides_by_the_rings_m(monkeypatch):
    # With I, m and I m built, the colon I m : m takes one syzygy run per
    # variable and no basis of m beside the ring's own.
    ring = QuotientRing(PolyRing(["x", "y"], P32))
    I = ring.parse_ideal(["x^2 - x", "y"])
    for handle in (I, ring.maximal_ideal(), ideal_product(I, ring.maximal_ideal())):
        handle.gb
    runs = []
    buchberger = idealcalc.buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(idealcalc, "buchberger", counted)
    assert is_weakly_m_full(I).value
    assert len(runs) == 2


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_weak_m_fullness_of_a_table_rung_takes_no_colon(name, monkeypatch):
    # I m of a rung contains a power of m, so Im : m = I is one rank on
    # P/Im: no Groebner colon and none of its intersections.
    problem = corpus.load(name)
    ring = cli.build_ring(problem)
    I = cli._resolve_ideal(problem["options"]["ideal"], ring, {}, problem)
    r = reduction_number(I).r
    monkeypatch.setattr(fullness, "ideal_colon", lambda *a: pytest.fail("ideal_colon called"))
    for n in range(3):
        is_weakly_m_full(_ladder(I, n, r + 1))


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
    build = idealcalc._quotient_view

    def recording(N):
        bases.append(N.gb.basis)
        return build(N)

    monkeypatch.setattr(idealcalc, "_quotient_view", recording)
    cli.run(corpus.load(name), {"task": "dao"})
    assert bases and len(bases) == len(set(bases))


def test_replay_checks_that_a_power_of_m_lies_in_the_ideal():
    # (x^2 - x, y) is (x, y) in the local ring, but P/(x^2 - x, y) also has
    # the point (1, 0), where x is not nilpotent; a rank on P/N would count
    # it and call y no witness.
    I = REG2.parse_ideal(["x^2 - x", "y"])
    assert quotient_view(ideal_product(I, REG2.maximal_ideal())) is None
    assert quotient_view(I) is None
    assert quotient_view(REG2.parse_ideal(["x + y^2"])) is None
    y = REG2.ambient.parse("y")
    assert replay_witness(I, "m-full", y)
    assert replay_witness(I, "full", y)
