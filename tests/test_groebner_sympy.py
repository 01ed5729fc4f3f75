"""Differential tests of the Groebner kernel against SymPy.

On seeded random small ideals (3-4 variables, 2-4 sparse generators of
degree at most 3) the reduced degrevlex basis, a tag-variable elimination
in a ring ordered tag-first, ideal membership and the remainder on
division by the reduced basis are recomputed with SymPy, over F_32003,
over Q with small coefficients, and over Q with numerators up to 10^6 and
denominators up to 10^4.  Reduced bases and remainders by them are
unique, so the comparison is exact.
Skipped when SymPy is not installed.
"""
import random
from fractions import Fraction

import pytest

from fullness_lab.groebner import buchberger, eliminate, normal_form
from fullness_lab.polyring import QQ, MonomialOrder, PolyRing, PrimeField

sympy = pytest.importorskip("sympy")

P = 32003
FIELDS = {"gf": PrimeField(P), "qq": QQ, "qq-big": QQ}
COEFFS = {
    "gf": lambda rng: rng.randrange(1, P),
    "qq": lambda rng: rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2)]),
    "qq-big": lambda rng: Fraction(
        rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**4)
    ),
}
SEEDS = range(8)


def _sympy_options(field):
    return {"modulus": P} if field is not QQ else {"domain": "QQ"}


def _random_poly(ring, rng, coeff, max_terms=3, max_degree=3):
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        d[tuple(exps)] = coeff(rng)
    return ring.from_dict(d)


def _random_ideal(ring, rng, coeff):
    while True:
        gens = [_random_poly(ring, rng, coeff) for _ in range(rng.randint(2, 4))]
        gens = [g for g in gens if g]
        if gens:
            return gens


def _to_sympy(f, syms):
    expr = sympy.Integer(0)
    for m, c in f.terms:
        coeff = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
        term = sympy.Integer(1)
        for s, e in zip(syms, m):
            term *= s**e
        expr += coeff * term
    return expr


def _canonical(terms, field):
    # Scale by the coefficient of the lex-largest exponent vector, which
    # does not depend on the monomial order either side sorts by.
    lead = max(terms)[1]
    return frozenset((m, field.div(c, lead)) for m, c in terms)


def _normalize_ours(polys):
    return {_canonical([(tuple(m), c) for m, c in g.terms], g.ring.field) for g in polys}


def _sympy_terms(expr, syms, field):
    terms = []
    for m, c in sympy.Poly(expr, *syms, **_sympy_options(field)).terms():
        c = Fraction(int(c.p), int(c.q)) if field is QQ else int(c) % P
        if c:
            terms.append((tuple(m), c))
    return terms


def _normalize_sympy(exprs, syms, field):
    return {_canonical(_sympy_terms(g, syms, field), field) for g in exprs}


def _case(field_name, seed, nvars=None):
    rng = random.Random(f"{field_name}:{seed}")
    nvars = nvars or rng.randint(3, 4)
    names = ["x", "y", "z", "t"][:nvars]
    ring = PolyRing(names, FIELDS[field_name])
    return ring, rng, tuple(sympy.symbols(names)), COEFFS[field_name]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_reduced_basis_matches_sympy(field_name, seed):
    ring, rng, syms, coeff = _case(field_name, seed)
    gens = _random_ideal(ring, rng, coeff)
    ours = buchberger(gens)
    theirs = sympy.groebner(
        [_to_sympy(g, syms) for g in gens], *syms, order="grevlex", **_sympy_options(ring.field)
    )
    assert _normalize_ours(ours.basis) == _normalize_sympy(theirs.exprs, syms, ring.field)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_elimination_matches_sympy_lex(field_name, seed):
    # Intersection of two ideals through the tag variable w:
    # (A ∩ B) = (w·A + (1-w)·B) ∩ k[x, ...], eliminated in (w | x, ...),
    # where `eliminate` reduces only the tag-free elements of the basis.
    # SymPy's lex basis, filtered, is the independent reference; both
    # sides are compared as ideals, by their reduced degrevlex bases.
    ring, rng, syms, coeff = _case(field_name, seed, nvars=3)
    tagged = PolyRing(("w",) + ring.variables, ring.field, MonomialOrder.elimination(1))

    def times_w(g, e):  # w^e·g
        return tagged.from_dict({(e, *m): c for m, c in g.terms})

    a = _random_ideal(ring, rng, coeff)[:2]
    b = _random_ideal(ring, rng, coeff)[:2]
    mixed = [times_w(g, 1) for g in a] + [times_w(g, 0) - times_w(g, 1) for g in b]
    ours = buchberger([ring.from_dict({m[1:]: c for m, c in g.terms}) for g in eliminate(mixed)])

    tag = sympy.Symbol("w")
    options = _sympy_options(ring.field)
    lex = sympy.groebner(
        [_to_sympy(g, (tag,) + syms) for g in mixed], tag, *syms, order="lex", **options
    )
    kept = [g for g in lex.exprs if not g.has(tag)]
    theirs = sympy.groebner(kept, *syms, order="grevlex", **options)
    assert _normalize_ours(ours.basis) == _normalize_sympy(theirs.exprs, syms, ring.field)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_membership_matches_sympy_contains(field_name, seed):
    ring, rng, syms, coeff = _case(field_name, seed)
    gens = _random_ideal(ring, rng, coeff)
    gb = buchberger(gens)
    theirs = sympy.groebner(
        [_to_sympy(g, syms) for g in gens], *syms, order="grevlex", **_sympy_options(ring.field)
    )
    candidates = [_random_poly(ring, rng, coeff, max_terms=4) for _ in range(4)]
    # combinations of the generators are members; perturbed ones mostly not
    for _ in range(4):
        f = ring.zero()
        for g in gens:
            f = f + g * _random_poly(ring, rng, coeff, max_terms=2, max_degree=2)
        candidates += [f, f + _random_poly(ring, rng, coeff, max_terms=1)]
    for f in candidates:
        assert normal_form(f, gb).is_zero() == bool(theirs.contains(_to_sympy(f, syms)))


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_normal_form_matches_sympy_reduce(field_name, seed):
    # The remainder by a Groebner basis depends only on the ideal and the
    # order, so it is compared term by term, coefficients unscaled.
    ring, rng, syms, coeff = _case(field_name, seed)
    gens = _random_ideal(ring, rng, coeff)
    gb = buchberger(gens)
    options = _sympy_options(ring.field)
    divisors = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="grevlex", **options)
    for _ in range(4):
        f = _random_poly(ring, rng, coeff, max_terms=6, max_degree=5)
        _, theirs = sympy.reduced(
            _to_sympy(f, syms), divisors.exprs, *syms, order="grevlex", **options
        )
        ours = [(tuple(m), c) for m, c in normal_form(f, gb).terms]
        assert sorted(ours) == sorted(_sympy_terms(theirs, syms, ring.field))
