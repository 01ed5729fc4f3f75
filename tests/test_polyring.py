"""Tests for coefficient fields, monomial orders, arithmetic, and the parser."""

import random
from fractions import Fraction

import pytest

from fullness_lab.polyring import (
    EQ,
    GT,
    LT,
    Monomial,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    PolyringError,
    PrimeField,
    QQ,
    parse_polynomial,
)

R4 = PolyRing(["x", "y", "z", "t"], PrimeField(32003))
R2 = PolyRing(["x", "y"], PrimeField(32003))
RQ = PolyRing(["x", "y"], QQ)


def test_prime_field_validation():
    with pytest.raises(PolyringError):
        PrimeField(32004)
    f = PrimeField(7)
    assert f.inv(3) == 5
    assert f.from_fraction(1, 2) == 4


def test_parse_relation_two_terms():
    f = parse_polynomial("x*y - t^4", R4)
    assert len(f.terms) == 2
    # degrevlex is degree-first, so the quartic term leads; under lex the
    # quadratic x*y leads instead.
    assert f.lead_monomial == Monomial((0, 0, 0, 4))
    flex = parse_polynomial("x*y - t^4", PolyRing(R4.variables, R4.field, MonomialOrder.lex()))
    assert flex.lead_monomial == Monomial((1, 1, 0, 0))


def test_parse_zero():
    assert parse_polynomial("0", R4).is_zero()
    assert parse_polynomial("0", R4).terms == ()


def test_parse_relation_lead_degrevlex():
    R3 = PolyRing(["x", "y", "z"], PrimeField(32003))
    f = parse_polynomial("y^3 - x*z", R3)
    assert f.lead_monomial == Monomial((0, 3, 0))


@pytest.mark.parametrize(
    "src, pos_fragment",
    [
        ("x +", "position 3"),
        ("x*", "position 2"),
        ("(x + y", "position 6"),
        ("x ^ y", "position 4"),
        ("2 @ x", "position 2"),
    ],
)
def test_parse_syntax_errors_carry_position(src, pos_fragment):
    with pytest.raises(ParseError) as e:
        parse_polynomial(src, R4)
    assert pos_fragment in str(e.value)


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as e:
        parse_polynomial("x*q + 1", R4)
    assert "q" in str(e.value)


def test_parse_characteristic_mismatch():
    # A rational literal whose denominator vanishes mod p cannot be coerced.
    with pytest.raises(ParseError) as e:
        parse_polynomial("1/32003*x", R4)
    assert "characteristic" in str(e.value)
    assert parse_polynomial("1/2*x", RQ).lead_coeff == Fraction(1, 2)


def test_parse_caps_parenthesis_nesting():
    # Deep nesting is a syntax error with a position, not a RecursionError.
    assert parse_polynomial("(" * 100 + "x" + ")" * 100, R4) == parse_polynomial("x", R4)
    with pytest.raises(ParseError) as e:
        parse_polynomial("(" * 250 + "x" + ")" * 250, R4)
    assert "position 100" in str(e.value)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x y", R4)


@pytest.mark.parametrize(
    "a, b, order, expected",
    [
        ((2, 0), (1, 1), MonomialOrder.degrevlex(), GT),
        ((1, 1), (1, 1), MonomialOrder.degrevlex(), EQ),
        ((0, 5), (1, 0), MonomialOrder.lex(), LT),
        ((3, 0), (0, 2), MonomialOrder.degrevlex(), GT),
    ],
)
def test_monomial_compare(a, b, order, expected):
    assert order.compare(Monomial(a), Monomial(b)) == expected


def test_monomial_compare_length_mismatch():
    with pytest.raises(PolyringError):
        MonomialOrder.degrevlex().compare(Monomial((1, 0)), Monomial((1, 0, 0)))


def test_block_order_eliminates():
    # Any monomial containing the first-block variable beats any without.
    order = MonomialOrder.elimination(1)
    assert order.compare(Monomial((1, 0, 0)), Monomial((0, 9, 9))) == GT


def test_multiply_difference_of_squares():
    f = parse_polynomial("x + y", RQ)
    g = parse_polynomial("x - y", RQ)
    assert str(f * g) == "x^2 - y^2"


def test_multiply_by_zero():
    f = parse_polynomial("x^3 + 2*y", R2)
    assert (f * R2.zero()).is_zero()


def test_square_in_characteristic_two():
    # Schoolbook expansion with reduction mod 2 drops the cross term.
    F2 = PolyRing(["x", "y"], PrimeField(2))
    f = parse_polynomial("x + y", F2)
    expanded = {}
    for m1, c1 in f.terms:
        for m2, c2 in f.terms:
            m = tuple(a + b for a, b in zip(m1, m2))
            expanded[m] = (expanded.get(m, 0) + c1 * c2) % 2
    expected = F2.from_dict(expanded)
    assert f * f == expected
    assert str(expected) == "x^2 + y^2"


def _random_poly(rng, ring, max_deg=6, max_terms=5):
    d = {}
    p = ring.characteristic
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ring.nvars)] += 1
        d[tuple(exps)] = rng.randrange(p) if p else Fraction(rng.randint(-9, 9))
    return ring.from_dict(d)


def test_ring_axioms_randomized():
    # Associativity, commutativity, distributivity on >= 1000 random triples.
    rng = random.Random(991)
    rings = [R2, PolyRing(["x", "y", "z"], PrimeField(32003)), RQ]
    for case in range(1000):
        ring = rings[case % len(rings)]
        f, g, h = (_random_poly(rng, ring) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f


def _schoolbook(f, g):
    field, d = f.ring.field, {}
    for m1, c1 in f.terms:
        for m2, c2 in g.terms:
            m = tuple(a + b for a, b in zip(m1, m2))
            d[m] = field.add(d.get(m, field.zero), field.mul(c1, c2))
    return f.ring.from_dict(d)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["F_p", "Q"])
def test_products_by_a_term_match_the_schoolbook_product(field):
    # A one-term factor goes to `mul_term`, which builds the product already
    # sorted (from_dict sorts the reference) and skips the coefficient
    # products by one.  Terms: one, other constants, monic and non-monic
    # monomials; factors of every order, zero included.
    rng = random.Random(19)
    orders = [MonomialOrder.degrevlex(), MonomialOrder.lex(), MonomialOrder.elimination(1)]
    for case in range(300):
        ring = PolyRing(["x", "y", "z"], field, orders[case % 3])
        f = _random_poly(rng, ring)
        m = Monomial(rng.choice([(0, 0, 0), tuple(rng.randrange(4) for _ in range(3))]))
        c = field.one if case % 4 < 2 else field.from_fraction(rng.choice([-7, -1, 2, 5]), rng.choice([1, 3]))
        term = ring.from_dict({m: c})
        want = _schoolbook(f, term)
        assert f * term == term * f == f.mul_term(m, c) == want
    for ring in (R2, RQ):
        f, one, zero = ring.parse("3*x^2*y - y + 2"), ring.one(), ring.zero()
        assert f * one == one * f == f.mul_term(one.lead_monomial, ring.field.one) == f
        assert (f * zero).is_zero() and (zero * f).is_zero() and (zero * one).is_zero()
        assert zero.mul_term(f.lead_monomial, ring.field.one).is_zero()
        assert f.mul_term(f.lead_monomial, ring.field.zero).is_zero()


def test_degree_additivity_over_field():
    rng = random.Random(17)
    for _ in range(200):
        f, g = _random_poly(rng, R2), _random_poly(rng, R2)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).total_degree == f.total_degree + g.total_degree


def test_order_compatible_with_multiplication():
    rng = random.Random(23)
    orders = [MonomialOrder.degrevlex(), MonomialOrder.lex(), MonomialOrder.elimination(1)]
    for _ in range(1000):
        order = rng.choice(orders)
        a = Monomial(tuple(rng.randrange(5) for _ in range(3)))
        b = Monomial(tuple(rng.randrange(5) for _ in range(3)))
        c = Monomial(tuple(rng.randrange(5) for _ in range(3)))
        cmp_ab = order.compare(a, b)
        assert order.compare(a.mul(c), b.mul(c)) == cmp_ab
        assert order.compare(Monomial((0, 0, 0)), a) in (LT, EQ)


def test_normalization_idempotent():
    rng = random.Random(5)
    for _ in range(300):
        f = _random_poly(rng, R4)
        assert R4.from_dict(f.as_dict()) == f
        assert all(c != 0 for _, c in f.terms)
        keys = [R4.order.key(m) for m, _ in f.terms]
        assert keys == sorted(keys, reverse=True)


def test_print_parse_round_trip():
    rng = random.Random(31)
    for ring in (R4, RQ):
        for _ in range(250):
            f = _random_poly(rng, ring)
            text = str(f)
            assert str(parse_polynomial(text, ring)) == text


def test_integer_coefficients_print_as_their_rational_equals():
    # Inside Buchberger's loop and the quotient view, polynomials over Q may
    # carry int coefficients; the sign of a term comes from the field, so
    # they print as the equal parsed polynomial does.  Over F_p every
    # coefficient is a nonnegative residue.
    x, y = RQ.gen("x").lead_monomial, RQ.gen("y").lead_monomial
    integral = Polynomial(RQ, ((x, 1), (y, -3)))
    assert integral == parse_polynomial("x - 3*y", RQ)
    assert str(integral) == str(parse_polynomial("x - 3*y", RQ)) == "x - 3*y"
    assert str(Polynomial(RQ, ((x, -2), (y, 5)))) == "-2*x + 5*y"
    assert str(parse_polynomial("x - 3*y", R2)) == "x + 32000*y"


def test_prime_field_constants_belong_to_the_class():
    assert (PrimeField.zero, PrimeField.one) == (0, 1)
    assert PrimeField(7).characteristic == 7 and PrimeField().characteristic == 32003


def test_monic_and_power():
    f = parse_polynomial("2*x^2 + 4*y", RQ)
    assert f.monic() == parse_polynomial("x^2 + 2*y", RQ)
    g = parse_polynomial("x + 1", RQ)
    assert g ** 3 == parse_polynomial("x^3 + 3*x^2 + 3*x + 1", RQ)
    assert g ** 0 == RQ.one()


def test_ring_validation():
    with pytest.raises(PolyringError):
        PolyRing([])
    with pytest.raises(PolyringError):
        PolyRing(["x", "x"])
    with pytest.raises(PolyringError):
        PolyRing(["3x"])


def test_rings_are_interned_and_weakly_held():
    import copy
    import gc
    import pickle

    from fullness_lab import polyring

    assert PolyRing(["x", "y"], PrimeField(32003)) is R2
    assert PolyRing(("x", "y")) is R2
    lex = PolyRing(["x", "y"], PrimeField(32003), MonomialOrder.lex())
    assert lex is not R2 and lex is PolyRing(("x", "y"), R2.field, MonomialOrder.lex())
    assert PolyRing(lex.variables, lex.field, MonomialOrder.degrevlex()) is R2
    assert PolyRing(["x", "y"], QQ) is RQ and RQ is not R2
    assert copy.deepcopy(R2) is R2 and pickle.loads(pickle.dumps(R2)) is R2
    # equal polynomials built through separately constructed rings are equal
    assert parse_polynomial("x*y", PolyRing(["x", "y"])) == parse_polynomial("x*y", R2)

    ident = (("u_interned", "v_interned"), PrimeField(101), MonomialOrder.degrevlex())
    ring = PolyRing(*ident)
    assert polyring._RINGS.get(ident) is ring
    del ring
    gc.collect()
    assert polyring._RINGS.get(ident) is None


def test_order_weights_agree_with_keys():
    # The integer keys the division kernel sorts by must order monomials as
    # MonomialOrder.key does, also near the exponent bound it assumes.
    rng = random.Random(61)
    bound = 1 << 31
    for order in (MonomialOrder.degrevlex(), MonomialOrder.lex(),
                  MonomialOrder.elimination(1), MonomialOrder.elimination(2)):
        weights = order.weights(4, bound)
        monos = [tuple(rng.randrange(6) for _ in range(4)) for _ in range(300)]
        monos += [tuple(rng.choice((0, 1, bound - 1)) for _ in range(4)) for _ in range(100)]
        by_key = sorted(set(monos), key=order.key)
        by_weight = sorted(set(monos), key=lambda m: sum(e * w for e, w in zip(m, weights)))
        assert by_key == by_weight
