"""Randomized structural properties, moderate scale (the acceptance gate
re-runs these suites at their full pinned counts)."""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import suites

from fullness_lab.polyring import (
    Monomial,
    MonomialOrder,
    PolyRing,
    PrimeField,
    parse_polynomial,
)

R3 = PolyRing(["x", "y", "z"], PrimeField(32003))


def test_predicate_equivalence_suite_small():
    stats = suites.run_predicate_equivalence_suite(n_ideals=40, seed=101, trials=8)
    assert stats.cases == 120
    assert stats.certified_violations == []
    assert stats.implication_violations == []
    # probabilistic misses should be essentially absent at p = 32003
    assert len(stats.uncertified_discrepancies) <= max(1, stats.cases // 50)


def test_monomial_oracle_suite_small():
    stats = suites.run_monomial_oracle_suite(n_cases=150, seed=707)
    assert stats.mismatches == []


def test_rr_chain_suite_small():
    rings = {
        "regular_2d": suites.regular_ring(2),
        "semigroup": suites.semigroup_ring(),
    }
    stats = suites.run_rr_chain_suite(rings, top_power=3, seed=11)
    assert stats.ascent_violations == []
    assert stats.claim_violations == []
    assert stats.closure_mismatches == []
    assert stats.pairs_checked > 0


# -- hypothesis properties ---------------------------------------------------

coeffs = st.integers(min_value=0, max_value=32002)
exponents = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)


@st.composite
def polynomials(draw):
    terms = draw(st.dictionaries(exponents, coeffs, min_size=0, max_size=6))
    return R3.from_dict(terms)


@given(polynomials())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f), R3) == f


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=100, deadline=None)
def test_arithmetic_laws(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f


@given(exponents, exponents, exponents)
@settings(max_examples=200, deadline=None)
def test_orders_respect_multiplication(a, b, c):
    for order in (MonomialOrder.degrevlex(), MonomialOrder.lex(), MonomialOrder.elimination(1)):
        ma, mb, mc = Monomial(a), Monomial(b), Monomial(c)
        assert order.compare(ma.mul(mc), mb.mul(mc)) == order.compare(ma, mb)
