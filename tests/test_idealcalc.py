"""Tests for quotient-ring presentations and local ideal arithmetic."""

import json
import random
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fullness_lab import cli, corpus
from fullness_lab.fullness import DEFAULT_TRIALS, GenericElementPolicy, sample_linear_form
from fullness_lab.groebner import buchberger, normal_form
from fullness_lab.idealcalc import (
    IdealcalcError,
    QuotientRing,
    _echelon,
    _kernel,
    _rank,
    ideal_colon,
    ideal_contains_local,
    ideal_contains_local_ideal,
    ideal_equal_local,
    ideal_intersection,
    ideal_product,
    is_nonzerodivisor,
    quotient_view,
    times_m_power,
)
from fullness_lab.invariants import _ladder, ratliff_rush_power, reg_G_upper
from fullness_lab.polyring import QQ, MonomialOrder, PolyRing, PrimeField, monomials_of_degree

P32 = PrimeField(32003)
REG2 = QuotientRing(PolyRing(["x", "y"], P32))


def ring_4_1():
    amb = PolyRing(["x", "y", "z", "t"], P32)
    rels = ["x*y - t^4", "x*z - t^4 + z*t^2", "y*z - y*t^2 + z*t^2"]
    return QuotientRing(amb, [amb.parse(s) for s in rels])


def ring_4_2():
    amb = PolyRing(["x", "y", "z"], P32)
    rels = ["y^3 - x*z", "x^4 - y*z", "x^3*y^2 - z^2"]
    return QuotientRing(amb, [amb.parse(s) for s in rels])


def test_quotient_ring_rejects_constant_terms():
    amb = PolyRing(["x", "y"], P32)
    with pytest.raises(IdealcalcError):
        QuotientRing(amb, [amb.parse("x*y - 1")])


@pytest.mark.parametrize("order", [MonomialOrder.elimination(1), MonomialOrder.elimination(2)])
def test_quotient_ring_rejects_an_order_that_is_not_degrevlex(order):
    # The intersections homogenize with a last variable h and set h = 1 in
    # a degrevlex basis, which is a basis of the ambient ring's ideal only
    # when that ring is ordered by degrevlex too.
    amb = PolyRing(["x", "y", "z"], P32, order)
    with pytest.raises(IdealcalcError):
        QuotientRing(amb)
    with pytest.raises(IdealcalcError):
        QuotientRing(amb, [amb.parse("x*y")])


def test_zero_ideal_is_the_one_handle_on_the_relations():
    E = ring_4_2()
    zero = E.zero_ideal()
    assert zero is E.zero_ideal()
    assert E.gbJ is zero.gb
    assert zero.gb.basis == buchberger(list(E.relations)).basis
    assert REG2.zero_ideal().gb.basis == ()


def test_m_power_generators():
    m2 = REG2.m_power(2)
    assert sorted(str(g) for g in m2.gens) == ["x*y", "x^2", "y^2"]
    assert REG2.m_power(0).contains_unit_local()


def test_product_square_of_maximal_ideal():
    m = REG2.maximal_ideal()
    sq = ideal_product(m, m)
    assert ideal_equal_local(sq, REG2.m_power(2))
    assert [str(g) for g in sq.gb.basis] == ["y^2", "x*y", "x^2"]


def test_product_reduction_equality_in_rational_singularity():
    E = ring_4_1()
    I = E.parse_ideal(["x + y + z", "t"])
    assert ideal_equal_local(times_m_power(I, 1), E.m_power(2))


def test_product_principal_times_square():
    E = ring_4_2()
    xm2 = times_m_power(E.parse_ideal(["x"]), 2)
    assert ideal_equal_local(xm2, E.parse_ideal(["x^3", "x^2*y", "x*y^2"]))


def test_square_contained_in_reduction():
    # With I = (x+y+z, t) joined to the relations, every quadratic monomial
    # is a local member of I.
    E = ring_4_1()
    I = E.parse_ideal(["x + y + z", "t"])
    for mono in ["x^2", "y^2", "z^2", "t^2", "x*t", "y*t", "z*t", "x*y", "x*z", "y*z"]:
        assert ideal_contains_local(I, E.ambient.parse(mono)), mono


def test_power_bootstrapping():
    I = REG2.parse_ideal(["x", "y"])
    assert ideal_equal_local(ideal_product(ideal_product(I, I), I), REG2.m_power(3))


def test_parameter_ideal_power_colons_match_oracle():
    # Powers of Q = (x^2, y^2) are integrally closed in K[x,y], so
    # Q^(2+j) : Q^j = Q^2; each colon is checked against closed-form
    # monomial arithmetic.
    Q = ((2, 0), (0, 2))
    powers = [REG2.m_power(0), REG2.ideal([REG2.ambient.monomial(m) for m in Q])]
    while len(powers) < 9:
        powers.append(ideal_product(powers[-1], powers[1]))
    for j in range(1, 7):
        want = oracles.mono_colon(oracles.mono_power(Q, 2 + j), oracles.mono_power(Q, j))
        assert want == oracles.mono_power(Q, 2)
        expected = REG2.ideal([REG2.ambient.monomial(m) for m in want])
        assert ideal_colon(powers[2 + j], powers[j]).gb.basis == expected.gb.basis, j


@pytest.mark.parametrize(
    "a_gens, b_gens, expected",
    [
        ((["x"]), ["y"], ["x*y"]),
        ((["x^2", "y"]), ["x"], ["x^2", "x*y"]),
    ],
)
def test_intersection_examples(a_gens, b_gens, expected):
    got = ideal_intersection(REG2.parse_ideal(a_gens), REG2.parse_ideal(b_gens))
    assert ideal_equal_local(got, REG2.parse_ideal(expected))


def test_intersection_idempotent():
    A = REG2.parse_ideal(["x^2 + y", "y^3"])
    assert ideal_intersection(A, A).gb.basis == A.gb.basis


def test_colon_monomial_example():
    A = REG2.parse_ideal(["x^4", "x^2*y", "x*y^2", "y^3"])
    got = ideal_colon(A, REG2.parse_ideal(["x"]))
    assert ideal_equal_local(got, REG2.parse_ideal(["x^3", "x*y", "y^2"]))


def test_colon_by_unit_is_identity():
    A = REG2.parse_ideal(["x^2", "y"])
    assert ideal_colon(A, REG2.parse_ideal(["1"])).gb.basis == A.gb.basis


def test_colon_in_rational_singularity():
    E = ring_4_1()
    I = E.parse_ideal(["x + y + z", "t"])
    m = E.maximal_ideal()
    assert ideal_equal_local(ideal_colon(I, E.parse_ideal(["z"])), m)
    assert ideal_equal_local(ideal_colon(I, m), m)


def test_colon_by_zero_ideal_rejected():
    E = ring_4_2()
    A = E.parse_ideal(["x"])
    with pytest.raises(IdealcalcError):
        ideal_colon(A, E.zero_ideal())
    # generators that vanish in the quotient count as zero
    with pytest.raises(IdealcalcError):
        ideal_colon(A, E.parse_ideal(["y^3 - x*z"]))


def test_local_equality_unit_multiple():
    assert ideal_equal_local(REG2.parse_ideal(["x"]), REG2.parse_ideal(["x*(1 + y)"]))
    assert ideal_equal_local(REG2.parse_ideal(["x + x*y"]), REG2.parse_ideal(["x"]))


def test_local_equality_distinguishes_powers():
    R1 = QuotientRing(PolyRing(["x"], P32))
    assert not ideal_equal_local(R1.parse_ideal(["x"]), R1.parse_ideal(["x^2"]))


def test_local_inequality_from_semigroup_ring():
    E = ring_4_2()
    xm2 = times_m_power(E.parse_ideal(["x"]), 2)
    assert not ideal_equal_local(xm2, E.m_power(3))
    assert ideal_equal_local(times_m_power(E.parse_ideal(["x"]), 3), E.m_power(4))


def test_local_equality_unit_multiple_in_quotient():
    # 1 + y is invertible only after localizing, so the lifted bases differ
    # while the local ideals agree; the colon-unit fallback must decide it.
    E = ring_4_2()
    A = E.parse_ideal(["x"])
    B = E.parse_ideal(["x*(1 + y)"])
    assert A.gb.basis != B.gb.basis
    assert ideal_equal_local(A, B)
    assert not ideal_equal_local(A, E.parse_ideal(["x*y"]))


def test_local_equality_is_equivalence():
    A = REG2.parse_ideal(["x", "y^2"])
    B = REG2.parse_ideal(["x*(1 + x)", "y^2"])
    C = REG2.parse_ideal(["y^2", "x + y^2"])
    assert ideal_equal_local(A, A)
    assert ideal_equal_local(A, B) == ideal_equal_local(B, A)
    assert ideal_equal_local(A, B) and ideal_equal_local(B, C) and ideal_equal_local(A, C)


def test_nonzerodivisor_cases():
    amb = PolyRing(["x", "y"], P32)
    Q = QuotientRing(amb, [amb.parse("x*y")])
    assert not is_nonzerodivisor(amb.parse("x"), Q)
    R1 = QuotientRing(PolyRing(["x"], P32))
    assert is_nonzerodivisor(R1.ambient.parse("x"), R1)
    E = ring_4_2()
    assert is_nonzerodivisor(E.ambient.parse("x + 2*y + 7*z"), E)
    with pytest.raises(IdealcalcError):
        is_nonzerodivisor(amb.parse("x*y"), Q)


def test_colon_containment_invariants():
    rng = random.Random(3)
    for _ in range(30):
        A = REG2.parse_ideal([str(REG2.ambient.monomial(oracles.random_monomial(rng, 2, 4)))
                              for _ in range(rng.randint(1, 3))])
        b = REG2.ambient.monomial(oracles.random_monomial(rng, 2, 3))
        B = REG2.ideal([b])
        C = ideal_colon(A, B)
        assert ideal_contains_local_ideal(C, A)
        for g in C.gb.basis:
            assert ideal_contains_local(A, g * b)


def test_iterated_colon_law():
    rng = random.Random(8)
    for _ in range(20):
        A = REG2.parse_ideal(
            [str(REG2.ambient.monomial(oracles.random_monomial(rng, 2, 5))) for _ in range(2)]
        )
        b = REG2.ambient.monomial(oracles.random_monomial(rng, 2, 2))
        c = REG2.ambient.monomial(oracles.random_monomial(rng, 2, 2))
        lhs = ideal_colon(ideal_colon(A, REG2.ideal([b])), REG2.ideal([c]))
        rhs = ideal_colon(A, REG2.ideal([b * c]))
        assert ideal_equal_local(lhs, rhs)


def test_product_monotonicity():
    rng = random.Random(12)
    m = REG2.maximal_ideal()
    for _ in range(20):
        gens = [REG2.ambient.monomial(oracles.random_monomial(rng, 2, 4)) for _ in range(2)]
        A = REG2.ideal(gens[:1])
        A2 = REG2.ideal(gens)  # A2 contains A
        prodA = ideal_product(A, m)
        prodA2 = ideal_product(A2, m)
        assert ideal_contains_local_ideal(prodA2, prodA)


def test_monomial_oracle_consistency_small():
    # A slice of the larger acceptance run: engine vs closed-form oracle.
    rng = random.Random(2024)
    REG3 = QuotientRing(PolyRing(["x", "y", "z"], P32))
    rings = {2: REG2, 3: REG3}
    for case in range(120):
        nvars = 2 if case % 2 == 0 else 3
        ring = rings[nvars]
        A = oracles.random_monomial_ideal(rng, nvars, 6, 4)
        B = oracles.random_monomial_ideal(rng, nvars, 4, 3)
        hA = ring.ideal([ring.ambient.monomial(m) for m in A])
        hB = ring.ideal([ring.ambient.monomial(m) for m in B])

        def basis_exps(handle):
            return tuple(sorted(tuple(g.lead_monomial) for g in handle.gb.basis))

        assert basis_exps(ideal_product(hA, hB)) == oracles.mono_product(A, B)
        assert basis_exps(ideal_intersection(hA, hB)) == oracles.mono_intersection(A, B)
        assert basis_exps(ideal_colon(hA, hB)) == oracles.mono_colon(A, B)


def test_colon_and_intersection_bases_match_a_fresh_completion():
    # Colons and intersections keep the reduced basis their elimination
    # produced; it must be the one a fresh Groebner run of the generators
    # and the relations gives.
    rng = random.Random(5)
    for ring in (ring_4_2(), ring_4_1(), REG2):
        amb = ring.ambient
        for _ in range(3):
            forms = [
                sum((amb.gen(v).scale(rng.randrange(1, 32003)) for v in amb.variables), amb.zero())
                for _ in range(2)
            ]
            A = times_m_power(ring.ideal(forms), 1)
            B = ring.ideal([forms[0] * forms[0], amb.gen(amb.variables[-1])])
            for result in (ideal_colon(A, ring.maximal_ideal()), ideal_intersection(A, B),
                           ideal_colon(A, ring.ideal([forms[1]]))):
                fresh = buchberger(list(result.gens) + list(ring.relations))
                assert result.gb.basis == fresh.basis


FAST_CORPUS = [e["name"] for e in corpus.listing() if not e["slow"]]


@pytest.mark.parametrize("characteristic", [32003, 0])
@pytest.mark.parametrize("name", FAST_CORPUS)
def test_kernel_colons_match_the_groebner_colon(name, characteristic):
    # The colons of numerators that contain a power of m, taken as kernels
    # on P/N, against one tag-variable colon per generator and the
    # intersections: ladder rungs I m^n + m^(n+c) by m and by a linear form,
    # the closures K : m, and the chain terms m^(n+j) : m^j.  Membership in
    # such a numerator is its normal form; the widened test must agree.
    problem = corpus.load(name)
    problem["ring"]["characteristic"] = characteristic
    ring = cli.build_ring(problem)
    I = cli._resolve_ideal(problem["options"]["ideal"], ring, {}, problem)
    m, amb = ring.maximal_ideal(), ring.ambient
    ell = ring.ideal([sum((amb.gen(v).scale(k + 2) for k, v in enumerate(amb.variables)), amb.zero())])
    cases = [(_ladder(I, n, c), B) for n in range(3) for c in (1, 2) for B in (m, ell)]
    rho = reg_G_upper(ring)
    cases += [(ratliff_rush_power(ring, n).stable_value, m) for n in range(1, rho + 2)]
    cases += [(ring.m_power(n + j), ring.m_power(j)) for n in range(1, 3) for j in range(1, 3)]
    for A, B in cases:
        assert quotient_view(A) is not None
        expected = oracles.groebner_colon(A, B)
        assert ideal_colon(A, B).gb.basis == expected.gb.basis, (str(A), str(B))
        for f in [*expected.gb.basis, *m.gens]:
            widened = buchberger([*A.gb.basis, *(x * f for x in amb.gens())])
            assert ideal_contains_local(A, f) == normal_form(f, widened).is_zero(), (str(A), str(f))


def test_an_ideal_with_a_second_point_takes_the_groebner_colon():
    # (x^2 - x, y) has finitely many standard monomials, but P/N also has the
    # point (1, 0), where x is not nilpotent: no quotient view, and its
    # colons and memberships stay those of the Groebner path.
    A = REG2.parse_ideal(["x^2 - x", "y"])
    assert quotient_view(A) is None
    for B in (REG2.maximal_ideal(), REG2.parse_ideal(["y"]), REG2.parse_ideal(["x - 1"])):
        assert ideal_colon(A, B).gb.basis == oracles.groebner_colon(A, B).gb.basis
    x = REG2.ambient.parse("x")
    assert ideal_contains_local(A, x)  # x (x - 1) lies in A, and x - 1 is a unit of R
    assert not ideal_contains_local(A, x - REG2.ambient.one())


QQ_REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "qq_reference.json").read_text()
)


def _random_inhomogeneous(rng: random.Random, amb: PolyRing):
    """Up to two terms of degree at most 3 and one of degree 1 or 0, with
    small integer coefficients: mostly not homogeneous."""
    n, k = amb.nvars, rng.randrange(amb.nvars + 1)
    top = {tuple(rng.choice([0, 1, 2]) for _ in range(n)) for _ in range(2)}
    low = {tuple(int(i == k) for i in range(n))}
    return amb.from_dict({m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in top | low if sum(m) <= 3})


@pytest.mark.parametrize("characteristic", [32003, 0])
def test_intersections_and_colons_match_the_plain_elimination(characteristic):
    # `idealcalc` homogenizes both generator lists before it eliminates the
    # tag variable, and takes colons without a view from syzygies; the plain
    # tag-variable intersections and colons of `oracles` must give the same
    # reduced bases.  Cases: the reference colons of the qq-kernels
    # benchmark (and A : x*y, by (x, y, z) and by (x + y, z^2)), J : l for
    # the draws of `depth_witness`, seeded by the presentation, on every fast
    # corpus ring, numerators of example_4_2's ring by one to three
    # elements, and seeded pairs of inhomogeneous ideals.
    field = PrimeField(characteristic) if characteristic else QQ
    ring = QuotientRing(PolyRing(QQ_REFERENCE["ring"]["variables"], field))
    cases = []
    for entry in QQ_REFERENCE["bases"].values():
        A = ring.parse_ideal(entry["generators"])
        for ref in entry["colon"].values():
            B = ring.parse_ideal(ref["divisor"])
            cases.append((A, B))
            if not characteristic:
                want = {ring.ambient.parse(g) for g in ref["basis"]}
                assert set(ideal_colon(A, B).gb.basis) == want, ref["divisor"]
        cases += [(A, ring.parse_ideal(B)) for B in (["x*y"], ["x", "y", "z"], ["x + y", "z^2"])]
    for name in FAST_CORPUS:
        problem = corpus.load(name)
        problem["ring"]["characteristic"] = characteristic
        corpus_ring = cli.build_ring(problem)
        draws = GenericElementPolicy().rng(f"depth-probe:{corpus_ring!r}")
        for _ in range(DEFAULT_TRIALS):
            ell = sample_linear_form(corpus_ring, draws)
            cases.append((corpus_ring.zero_ideal(), corpus_ring.ideal([ell])))
        if name == "example_4_2_I":
            cases += [
                (corpus_ring.parse_ideal(A), corpus_ring.parse_ideal(B))
                for A in ([], ["y - z"], ["z - x^2*y"])
                for B in (["x"], ["y", "z"], ["x", "y", "z"], ["x + y", "z^2"])
            ]
    rng = random.Random(18)
    for amb in (PolyRing(["x", "y"], field), PolyRing(["x", "y", "z"], field)):
        small = QuotientRing(amb)
        for _ in range(6):
            A, B = (small.ideal([_random_inhomogeneous(rng, amb) for _ in range(2)]) for _ in range(2))
            cases.append((A, B))
    for A, B in cases:
        amb = A.ring.ambient
        got = ideal_intersection(A, B).gb.basis
        assert got == oracles.tag_intersection(amb, A.gb.basis, B.gb.basis).basis, (A, B)
        assert ideal_colon(A, B).gb.basis == oracles.groebner_colon(A, B).gb.basis, (A, B)


@pytest.mark.parametrize("characteristic", [32003, 0])
def test_syzygy_colons_set_their_remainders_aside(characteristic):
    plain = QuotientRing(PolyRing(["x", "y", "z"], PrimeField(characteristic) if characteristic else QQ))

    def colon(A, B):
        A, B = plain.parse_ideal(A), plain.parse_ideal(B)
        assert quotient_view(A) is None
        got = ideal_colon(A, B).gb.basis
        assert got == oracles.groebner_colon(A, B).gb.basis
        return got

    assert colon(["x^2", "y*z"], ["x^2"]) == (plain.ambient.one(),)  # b in N
    assert colon([], ["x"]) == ()  # 0 : b = 0 in a domain
    # Set-aside remainders that joined the basis would give the saturation
    # (1); N and they must be completed together.
    assert colon(["x^2"], ["x"]) == plain.parse_ideal(["x"]).gb.basis
    assert colon(["x^2", "y"], ["x"]) == plain.parse_ideal(["x", "y"]).gb.basis
    assert colon(["y^3 - y", "x*y - y"], ["y^2"]) == plain.parse_ideal(["x - 1", "y^2 - 1"]).gb.basis


@pytest.mark.parametrize("characteristic", [32003, 0])
def test_integral_view_maps_keep_the_ranks_and_kernels_of_the_field_arithmetic(characteristic):
    # Over Q a view keeps D·M_{x_i} on integers, D the lcm of the
    # denominators of the M_{x_i}, and `images(b)` is the matrix of b·
    # times one nonzero factor; `oracles.view_maps` keeps M_{x_i} in the
    # field's own arithmetic, and over F_p both are one.
    # Numerators: ladder rungs of the fast corpus rings, the closures of
    # m-powers there, the closures of qq_reference.json and truncations of
    # its bases.  Multipliers: the variables, a linear form, and a form with
    # denominators in three degrees.  Same standard monomials, the same D
    # and the maps exactly D times the reference's, images one multiple of
    # the reference's, equal ranks and kernel dimensions, and
    # `view.colon(b)` the Groebner colon.
    field = PrimeField(characteristic) if characteristic else QQ
    numerators = []
    for name in ("example_4_1", "example_4_2_I", "regular_2d"):
        problem = corpus.load(name)
        problem["ring"]["characteristic"] = characteristic
        ring = cli.build_ring(problem)
        I = cli._resolve_ideal(problem["options"]["ideal"], ring, {}, problem)
        numerators += [_ladder(I, n, c) for n, c in ((0, 2), (1, 1), (2, 2))]
        numerators += [ratliff_rush_power(ring, n).stable_value for n in (1, 2)]
    spec = QQ_REFERENCE["rr_ring"]
    amb = PolyRing(spec["variables"], field)
    rr_ring = QuotientRing(amb, [amb.parse(f) for f in spec["relations"]])
    numerators += [rr_ring.parse_ideal(ref["stable_value"]) for ref in QQ_REFERENCE["rr"].values()]
    base_ring = QuotientRing(PolyRing(QQ_REFERENCE["ring"]["variables"], field))
    for entry in QQ_REFERENCE["bases"].values():
        A = base_ring.parse_ideal(entry["generators"])
        numerators += [_ladder(A, n, c) for n, c in ((0, 4), (0, 5), (1, 3))]
    rng, amb = random.Random(20), base_ring.ambient
    for _ in range(4):  # two quadrics with denominators, truncated at m^4
        quadrics = [amb.from_dict({m: field.from_fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                   for m in monomials_of_degree(3, 2)}) for _ in range(2)]
        numerators.append(_ladder(base_ring.ideal(quadrics), 0, 4))
    for N in numerators:
        view, amb = quotient_view(N), N.ring.ambient
        std, maps = oracles.view_maps(N)
        assert view.std == std, str(N)
        d = lcm(*(c.denominator for matrix in maps for col in matrix for c in col.values()))
        assert view.denominator == d, str(N)
        assert view.maps == [[{k: d * c for k, c in col.items()} for col in matrix] for matrix in maps]
        assert all(type(c) is int for matrix in view.maps for col in matrix for c in col.values())
        x = amb.variables
        forms = [*amb.gens(), amb.parse(" + ".join(f"{k + 2}*{v}" for k, v in enumerate(x))),
                 amb.parse(f"1/2*{x[0]}^2 - 2/3*{x[-1]} + 5/7*{x[0]}*{x[-1]}^2")]
        for b in forms:
            got = view.images(b)
            want = [oracles.view_times(maps, b, {k: field.one}) for k in range(len(std))]
            if characteristic:
                assert got == want, (str(N), str(b))
            else:
                factor = next((Fraction(row[k]) / want_row[k] for row, want_row in zip(got, want) for k in row), 1)
                assert all(row == {k: factor * c for k, c in want_row.items()} for row, want_row in zip(got, want))
            assert _rank(view.images(b), field) == len(oracles.echelon([dict(r) for r in want], field))
            assert len(_kernel(got, field)) == len(oracles.kernel(want, field)), (str(N), str(b))
        for b in forms[-2:]:
            assert view.colon(b).gb.basis == oracles.groebner_colon(N, N.ring.ideal([b])).gb.basis


@pytest.mark.parametrize("field", [QQ, P32], ids=["Q", "F_p"])
def test_equal_polynomials_hash_equal_and_equal_bases_share_memo_entries(field):
    # A polynomial keeps its hash after the first use; equal polynomials
    # built by parsing, from a dict and by arithmetic hash equal, so a memo
    # key naming a basis built separately finds the entry, and a key naming
    # another basis does not.
    amb = PolyRing(["x", "y", "z"], field)
    ring = QuotientRing(amb)
    x, y, z = amb.gens()
    half, minus_three_fifths = field.from_fraction(1, 2), field.from_fraction(-3, 5)
    built = [
        amb.parse("1/2*x^2*y - 3/5*y*z + 7"),
        amb.from_dict({(2, 1, 0): half, (0, 1, 1): minus_three_fifths, (0, 0, 0): field.from_fraction(7)}),
        (x * x * y).scale(half) + (y * z).scale(minus_three_fifths) + amb.constant(7),
        amb.parse("(x^2*y - 6/5*y*z + 14) * 1/2 + x - x"),
    ]
    hashes = [hash(f) for f in built]
    assert all(f == built[0] for f in built) and len(set(hashes)) == 1
    assert [hash(f) for f in built] == hashes
    others = [built[0] + x, built[0] * y, x * y, amb.parse("x^2*y")]
    assert len({hash(f) for f in others} | set(hashes)) == len(others) + 1
    A = ring.ideal([built[0], x * z - y ** 2, x ** 3])
    B = ring.ideal([built[2].scale(field.from_fraction(-4)), amb.parse("y^2 - x*z"), amb.parse("x^3")])
    assert A.gb.basis == B.gb.basis and all(f is not g for f, g in zip(A.gb.basis, B.gb.basis))
    builds = []
    assert ring.memo(("probe", A.gb.basis), lambda: builds.append("A") or "A") == "A"
    assert ring.memo(("probe", B.gb.basis), lambda: builds.append("B") or "B") == "A"
    C = ring.ideal([built[1], x * z - y ** 2])
    assert ring.memo(("probe", C.gb.basis), lambda: builds.append("C") or "C") == "C"
    assert builds == ["A", "C"]


def _seeded_rows(rng: random.Random, field, nrows: int, ncols: int) -> list[dict]:
    """Sparse rows with zero rows, repeated rows, combinations of earlier
    rows and, over Q, large numerators over mixed denominators."""

    def coefficient():
        if field.characteristic:
            return rng.randrange(1, field.characteristic)
        num = rng.choice([rng.randint(1, 9), rng.randint(1, 10**30)]) * rng.choice([-1, 1])
        return Fraction(num, rng.choice([1, 1, 2, 3, 12, 10**12 + 39]))

    rows: list[dict] = []
    for _ in range(nrows):
        kind = rng.randrange(6)
        if kind == 0:
            rows.append({})
        elif kind == 1 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind == 2 and len(rows) > 1:
            (a, u), (b, v) = ((coefficient(), rng.choice(rows)) for _ in range(2))
            row = {k: field.add(field.mul(a, u.get(k, field.zero)), field.mul(b, v.get(k, field.zero)))
                   for k in {*u, *v}}
            rows.append({k: c for k, c in row.items() if c})
        else:
            rows.append({k: coefficient() for k in rng.sample(range(ncols), rng.randint(1, ncols))})
    return rows


@pytest.mark.parametrize("characteristic", [32003, 0])
def test_echelon_ranks_and_kernels_match_the_reference(characteristic):
    # `_echelon` is fraction-free over Q; `oracles.echelon` eliminates with
    # monic pivots in the field's own arithmetic.  Ranks agree, every kernel
    # vector is a vanishing combination inside the reference kernel, and the
    # kernels have one dimension.  Over Q each pivot is integral, primitive,
    # with a positive lead, and a multiple of the reference's monic pivot;
    # over F_p the echelon form and the kernel are the reference's own.
    field = PrimeField(characteristic) if characteristic else QQ
    rng = random.Random(19)
    for _ in range(40):
        rows = _seeded_rows(rng, field, rng.randint(1, 12), rng.randint(1, 9))

        def copies():  # the rows are consumed
            return [dict(row) for row in rows]

        got, want = _echelon(copies(), field), oracles.echelon(copies(), field)
        assert _rank(copies(), field) == len(got) == len(want)
        kernel, reference = _kernel(copies(), field), oracles.kernel(copies(), field)
        assert len(kernel) == len(reference)
        for vector in kernel:
            combination = {}
            for i, c in vector.items():
                for k, a in rows[i].items():
                    combination[k] = field.add(combination.get(k, field.zero), field.mul(c, a))
            assert not any(combination.values()), rows
            assert len(oracles.echelon([dict(v) for v in (*reference, vector)], field)) == len(reference)
        if characteristic:
            assert got == want and kernel == reference
            continue
        assert got.keys() == want.keys()
        for col, pivot in got.items():
            assert all(type(c) is int for c in pivot.values()) and pivot[col] > 0
            assert gcd(*pivot.values()) == 1
            assert {k: Fraction(c, pivot[col]) for k, c in pivot.items()} == want[col]
