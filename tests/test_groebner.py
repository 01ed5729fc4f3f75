"""Tests for division, Buchberger completion, and elimination."""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fullness_lab import cli, corpus, groebner
from fullness_lab.groebner import (
    DegreeCapExceeded,
    buchberger,
    eliminate,
    normal_form,
    s_polynomial,
)
from fullness_lab.polyring import QQ, MonomialOrder, PolyRing, PolyringError, Polynomial, PrimeField

R2 = PolyRing(["x", "y"], PrimeField(32003))
R3 = PolyRing(["x", "y", "z"], PrimeField(32003))


def P(src, ring=R2):
    return ring.parse(src)


def test_normal_form_relation_membership():
    # Each defining relation of the degree-(4,5,11) semigroup presentation
    # reduces to zero against the basis of the relations ideal.
    rels = [P("y^3 - x*z", R3), P("x^4 - y*z", R3), P("x^3*y^2 - z^2", R3)]
    gb = buchberger(rels)
    for f in rels:
        assert normal_form(f, gb).is_zero()


def test_normal_form_zero():
    gb = buchberger([P("x^2"), P("y^3")])
    assert normal_form(R2.zero(), gb).is_zero()


def test_normal_form_irreducible():
    # x*y^2 is divisible by neither x^2 nor y^3, and lies outside the ideal.
    gb = buchberger([P("x^2"), P("y^3")])
    f = P("x*y^2")
    assert normal_form(f, gb) == f


@pytest.mark.parametrize("content_bits", [0, groebner._CONTENT_BITS])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(7)], ids=str)
def test_remainders_by_any_divisors_match_the_reference_division(monkeypatch, field, content_bits):
    # The divisors are no Groebner basis, so the remainder depends on the
    # strategy, which the reference shares.  Over Q the division runs on
    # integers; with content_bits = 0 it divides out the content of the
    # work at every step that grows the scale.
    monkeypatch.setattr(groebner, "_CONTENT_BITS", content_bits)
    ring = PolyRing(["x", "y", "z"], field)
    rng = random.Random(f"divide:{field}")

    def coeff():
        if field is QQ:
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**4))
        return rng.randrange(1, field.p)

    def draw(nterms, degree):
        terms = {tuple(rng.randint(0, degree) for _ in range(3)): coeff() for _ in range(nterms)}
        return ring.from_dict(terms)

    for _ in range(150):
        divisors = [draw(rng.randint(1, 4), 2) for _ in range(rng.randint(1, 4))]
        f = draw(rng.randint(1, 8), 5)
        assert normal_form(f, divisors) == oracles.divide(f, divisors)


def test_buchberger_monomial_ideal_is_its_own_basis():
    gb = buchberger([P("x^2"), P("x*y"), P("y^3")])
    assert [str(g) for g in gb.basis] == ["x*y", "x^2", "y^3"]


def test_buchberger_lex_pair():
    # On two variables the block order with split 1 is lex.
    ring = PolyRing(["x", "y"], PrimeField(32003), MonomialOrder.elimination(1))
    f, g = ring.parse("x^2 + y"), ring.parse("y^2")
    gb = buchberger([f, g])
    assert set(str(h) for h in gb.basis) == {"x^2 + y", "y^2"}
    # the lone S-polynomial reduces to zero through y^2
    assert normal_form(s_polynomial(f, g), [g]).is_zero()


def test_buchberger_criterion_post_check():
    rng = random.Random(77)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(2, 4)):
            d = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * 3
                for _ in range(rng.randint(0, 5)):
                    exps[rng.randrange(3)] += 1
                d[tuple(exps)] = rng.randrange(1, 32003)
            gens.append(R3.from_dict(d))
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = buchberger(gens)
        for i in range(len(gb.basis)):
            for j in range(i):
                assert normal_form(s_polynomial(gb.basis[i], gb.basis[j]), gb).is_zero()


def test_reduced_basis_is_reduced_and_monic():
    gb = buchberger([P("2*x^2 + y"), P("3*y^2 + x*y")])
    for g in gb.basis:
        assert g.lead_coeff == 1
        for other in gb.basis:
            if other is g:
                continue
            assert not any(other.lead_monomial.divides(m) for m, _ in g.terms)


def test_reduced_basis_unique_under_row_operations():
    rng = random.Random(13)
    for _ in range(40):
        f = P("x^3 + x*y"), P("y^2 - x")
        gens = list(f)
        base = buchberger(gens)
        # invertible row operations plus adding multiples keep the ideal
        mixed = [
            gens[0] + gens[1] * P("x + 3"),
            gens[1].scale(rng.randrange(1, 32003)),
            gens[0] + gens[1].scale(rng.randrange(32003)),
        ]
        assert buchberger(mixed).basis == base.basis


def test_membership_consistency():
    rng = random.Random(41)
    gens = [P("x^2 + y"), P("x*y^2")]
    gb = buchberger(gens)
    for _ in range(50):
        f = R2.zero()
        for g in gens:
            d = {}
            for _ in range(rng.randint(0, 3)):
                exps = [rng.randrange(3), rng.randrange(3)]
                d[tuple(exps)] = rng.randrange(32003)
            f = f + g * R2.from_dict(d)
        assert normal_form(f, gb).is_zero()


def test_buchberger_idempotent():
    gb = buchberger([P("x^2 + y"), P("y^3 - x")])
    again = buchberger(list(gb.basis))
    assert again.basis == gb.basis


T3 = PolyRing(["t", "x", "y"], PrimeField(32003), MonomialOrder.elimination(1))


def test_eliminate_two_principal_ideals():
    out = eliminate([T3.parse("t*x"), T3.parse("(1 - t)*y")])
    assert [str(g) for g in out] == ["x*y"]


def test_eliminate_parametrized_curve():
    out = eliminate([T3.parse("x - t^2"), T3.parse("y - t^3")])
    assert len(out) == 1
    kernel = out[0].monic()
    assert kernel == T3.parse("x^3 - y^2").monic()
    # independent check: the generator vanishes under the parametrization
    pulled = oracles.substitute(kernel, {"x": T3.parse("t^2"), "y": T3.parse("t^3")})
    assert pulled.is_zero()


def test_eliminate_nothing_returns_same_ideal():
    # t does not occur, so eliminating it keeps the reduced basis.
    out = eliminate([T3.parse("x^2 + y"), T3.parse("y^2")])
    gb = buchberger([P("x^2 + y"), P("y^2")])
    assert [str(g) for g in out] == [str(g) for g in gb.basis]


def test_eliminate_refuses_a_ring_without_a_block_order():
    # The first block of the ring's order is what it drops.
    with pytest.raises(PolyringError):
        eliminate([P("x^2 + y")])
    assert eliminate([]) == []


def test_degree_cap_aborts():
    with pytest.raises(DegreeCapExceeded):
        eliminate([T3.parse("x - t^2"), T3.parse("y - t^3")], degree_cap=2)


def _tag_free_part(gens):
    """The elements of the full reduced basis whose lead is free of the
    first block: what `eliminate` returns, without skipping the rest."""
    split = gens[0].ring.order.split
    return [g for g in buchberger(gens).basis if not any(g.lead_monomial[:split])]


@pytest.mark.parametrize("characteristic", [32003, 0])
def test_eliminate_reduces_only_what_the_full_basis_keeps(characteristic):
    # Under a block order the tag-free elements of the reduced basis are
    # the reduced basis of the elimination ideal, so reducing only the
    # tag-free elements of the completed basis gives the same list.  Cases:
    # the homogenized intersections of `idealcalc` on seeded pairs of
    # ideals, and the saturation behind the tangent cone of example_4_3's
    # relations, both in rings built tag-first.
    field = PrimeField(characteristic) if characteristic else QQ
    amb = PolyRing(["x", "y", "z"], field)
    ext = PolyRing(["w", "x", "y", "z", "h"], field, MonomialOrder.elimination(1))
    rng = random.Random(f"eliminate:{characteristic}")

    def draw():
        return amb.from_dict({tuple(rng.randrange(3) for _ in range(3)): rng.randint(-5, 5)
                              for _ in range(3)})

    def tagged(g, e):  # w^e times the homogenization of g by h
        d = g.total_degree
        return ext.from_dict({(e, *m, d - sum(m)): c for m, c in g.terms})

    for _ in range(6):
        gens_a, gens_b = buchberger([draw(), draw()]).basis, buchberger([draw(), draw()]).basis
        mixed = [tagged(g, 1) for g in gens_a] + [tagged(g, 0) - tagged(g, 1) for g in gens_b]
        assert eliminate(mixed) == _tag_free_part(mixed)

    problem = corpus.load("example_4_3")
    problem["ring"]["characteristic"] = characteristic
    ring = cli.build_ring(problem)
    cone = PolyRing(["w", "t", *ring.ambient.variables], field, MonomialOrder.elimination(1))
    w, t = cone.gen("w"), cone.gen("t")
    # f(t x) = t^deg f(x) for each relation f, and 1 - t w saturates by t.
    gens = [cone.from_dict({(0, sum(m), *m): c for m, c in f.terms}) for f in ring.relations]
    gens.append(cone.one() - t * w)
    out = eliminate(gens)
    assert out == _tag_free_part(gens) and len(out) > 1


def test_basis_object_semantics():
    gb = buchberger([P("x")])
    assert len(gb) == 1 and list(gb) == [P("x")]
    assert not gb.is_unit_ideal()
    assert buchberger([P("x + 1"), P("x")]).is_unit_ideal()


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["F_p", "Q"])
def test_s_polynomials_match_the_generic_formula(field):
    # The generic S-polynomial is (L / LT(f))·f - (L / LT(g))·g with L the
    # lcm of the leads.  Over F_p, and for monic leads over Q, s_polynomial
    # gives exactly that; over Q it gives a nonzero multiple, and for
    # integral input with positive leads a and b, the form `buchberger`
    # keeps, lcm(a, b) times it with integer coefficients.  Pairs: monic and
    # non-monic leads, one, a constant; the zero polynomial is refused.
    rng = random.Random(19)
    ring = PolyRing(["x", "y", "z"], field)

    def draw(monic):
        f = ring.zero()
        while f.is_zero():
            terms = {tuple(rng.randrange(3) for _ in range(3)): field.from_fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 4))}
            f = ring.from_dict(terms)
        return f.monic() if monic else f

    def generic(f, g):
        lcm, terms = f.lead_monomial.lcm(g.lead_monomial), {}
        for h, sign in ((f, field.one), (g, field.neg(field.one))):
            q, shift = field.div(sign, h.lead_coeff), lcm.div(h.lead_monomial)
            for m, c in h.terms:
                t = m.mul(shift)
                terms[t] = field.add(terms.get(t, field.zero), field.mul(q, c))
        return ring.from_dict(terms)

    def integral(f):  # f cleared of denominators, with a positive lead
        d = math.lcm(*(c.denominator for _, c in f.terms)) * (1 if f.lead_coeff > 0 else -1)
        return Polynomial(ring, tuple((m, int(c * d)) for m, c in f.terms))

    cases = [(draw(case % 2 == 0), draw(case % 3 == 0)) for case in range(200)]
    constant = ring.constant(field.from_fraction(-2, 3))
    cases += [(ring.one(), draw(True)), (draw(False), constant), (constant, ring.one())]
    for f, g in cases:
        got, want = s_polynomial(f, g), generic(f, g)
        if field.characteristic or f.lead_coeff == g.lead_coeff == 1:
            assert got == want, (f, g)
        elif want:
            assert got == want.scale(got.lead_coeff / want.lead_coeff), (f, g)
        else:
            assert not got, (f, g)
        if field.characteristic:
            continue
        f, g = integral(f), integral(g)
        got = s_polynomial(f, g)
        assert all(type(c) is int for _, c in got.terms), (f, g)
        assert got == generic(f, g).scale(math.lcm(f.lead_coeff, g.lead_coeff)), (f, g)
    with pytest.raises(PolyringError):
        s_polynomial(draw(True), ring.zero())


def test_completion_loop_calls_module_level_kernels(monkeypatch):
    # Outside tools wrap these module bindings to count the work of a run.
    from fullness_lab import groebner

    calls = {"s_polynomial": 0, "normal_form": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(groebner, name, counted)
    gb = buchberger([P("x^2 + y"), P("x*y + 1")])
    assert calls["s_polynomial"] >= 1 and calls["normal_form"] >= 1
    assert gb.reducers is gb.reducers  # built once per basis


def test_rational_multiples_of_the_generators_change_neither_basis_nor_pairs(monkeypatch):
    # Over Q each generator is made integral and primitive, with a positive
    # lead, before the seeds are reduced, so scaling the generators by
    # nonzero rationals (negative ones, large numerators and denominators)
    # gives the same reduced basis, with Fraction coefficients, from the
    # same S-polynomials.  Generator sets: seeded quadrics and cubics with
    # denominators, one with a generator that is a multiple of another.
    ring = PolyRing(["x", "y", "z"], QQ)
    rng = random.Random(24)
    calls = []
    original = groebner.s_polynomial
    monkeypatch.setattr(groebner, "s_polynomial", lambda f, g: calls.append(1) or original(f, g))

    def run(gens):
        del calls[:]
        basis = buchberger(gens).basis
        assert all(type(c) is Fraction for g in basis for _, c in g.terms)
        return basis, len(calls)

    def draw(degree):
        return ring.from_dict({tuple(rng.randrange(degree + 1) for _ in range(3)):
                               Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12))
                               for _ in range(4)})

    factors = [Fraction(-1), Fraction(3, 7), Fraction(-(10**20 + 1), 12), Fraction(1, 10**15 + 37)]
    cases = [[draw(2), draw(2), draw(3)] for _ in range(4)]
    cases.append([cases[0][0], cases[0][1], cases[0][0].scale(Fraction(-5, 2))])
    for gens in cases:
        want = run(gens)
        assert want[1] >= 1
        for k in (0, 2):
            scaled = [g.scale(factors[(k + i) % len(factors)]) for i, g in enumerate(gens)]
            assert run(scaled) == want, [str(g) for g in gens]


def test_division_rejects_exponents_beyond_its_packing():
    huge = R2.monomial((1 << 31, 0))
    with pytest.raises(PolyringError):
        normal_form(huge, [P("y")])
    with pytest.raises(PolyringError):
        normal_form(R2.monomial((1 << 40, 0)), [P("y")])
    # just below the bound division still works
    big = R2.monomial(((1 << 31) - 1, 1))
    assert normal_form(big, [P("y")]).is_zero()
    assert normal_form(big, [P("x^2")]).is_zero()
