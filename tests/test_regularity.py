"""The certified bound rho >= reg G(m) of `invariants.reg_G_upper`, checked
against figures computed without it: the Hilbert function of R, the
regularities the corpus records, degenerate linear forms, and the s-scan
with the old fixed bound of 8."""

import itertools

import pytest

from fullness_lab import cli, corpus
from fullness_lab.fullness import GenericElementPolicy
from fullness_lab.groebner import DegreeCapExceeded
from fullness_lab.idealcalc import QuotientRing, quotient_view
from fullness_lab.invariants import dao_numbers, reg_G_upper, regularity_bound, s_index, tangent_cone
from fullness_lab.polyring import PolyRing, PrimeField, monomials_of_degree

# rho per corpus ring.  example_4_2 is exact: y^4 is a minimal generator of
# J*, so reg G(m) >= 3; example_4_3 equals its recorded regularity 8.
RHO = {
    "regular_2d": 0,
    "regular_3d_parameter": 0,
    "example_4_1": 1,
    "example_4_1_234": 1,
    "example_4_2_I": 3,
    "example_4_3": 8,
}
CHARACTERISTICS = (32003, 0)


def _ring(name: str, characteristic: int):
    problem = corpus.load(name)
    problem["ring"]["characteristic"] = characteristic
    return cli.build_ring(problem)


@pytest.mark.parametrize("characteristic", CHARACTERISTICS)
@pytest.mark.parametrize("name", sorted(RHO))
def test_rho_of_each_corpus_ring(name, characteristic):
    assert reg_G_upper(_ring(name, characteristic)) == RHO[name]


@pytest.mark.parametrize("name", sorted(RHO))
def test_tangent_cone_has_the_hilbert_function_of_R(name):
    # H_{P/J*}(k) = length(R/m^(k+1)) - length(R/m^k), both lengths counted
    # as standard monomials of J + m^k, whose quotient is R/m^k.
    ring = _ring(name, 32003)
    leads = [g.lead_monomial for g in tangent_cone(ring).basis]
    length = [0] + [len(quotient_view(ring.m_power(k)).std) for k in range(1, RHO[name] + 4)]
    for k in range(RHO[name] + 3):
        cone = sum(
            1 for u in monomials_of_degree(ring.ambient.nvars, k)
            if not any(v.divides(u) for v in leads)
        )
        assert cone == length[k + 1] - length[k], k


@pytest.mark.parametrize("name", ["example_4_1", "example_4_2_I", "example_4_3"])
def test_degenerate_forms_never_bound_below_the_true_regularity(name):
    # A variable that is a zero-divisor on G(m), repeated or followed by the
    # variables in order, can only make the certificate fail or grow.
    ring = _ring(name, 32003)
    cone = tangent_cone(ring)
    variables = ring.ambient.gens()
    for v in variables:
        for forms in (itertools.repeat(v), itertools.cycle([v, *variables])):
            try:
                rho = regularity_bound(cone, forms, RHO[name] + 4)
            except DegreeCapExceeded:
                continue
            assert rho >= RHO[name], (str(v), rho)


# rho over small fields, where a form is often not injective and is drawn
# again rather than ending the degree; over F_32003 nothing changes.
SMALL_FIELDS = [
    ("example_4_1", 3, 1),
    ("example_4_1", 5, 2),
    ("example_4_1_234", 3, 1),
    ("example_4_1_234", 5, 1),
    ("example_4_2_I", 5, 3),
]


@pytest.mark.parametrize("name, characteristic, rho", SMALL_FIELDS)
def test_rho_over_small_fields_draws_again_after_a_failed_form(name, characteristic, rho):
    assert reg_G_upper(_ring(name, characteristic)) == rho


def test_forms_that_kill_everything_run_into_the_degree_cap():
    # z annihilates m in G(m) of example_4_2, so no degree is certified.
    ring = _ring("example_4_2_I", 32003)
    z = ring.ambient.gen("z")
    with pytest.raises(DegreeCapExceeded):
        regularity_bound(tangent_cone(ring), itertools.repeat(z), 10)


def test_tag_variables_avoid_the_ring_variables():
    # example_4_1 has a variable t, and this ring the first tag names tried.
    assert sorted(str(g) for g in tangent_cone(_ring("example_4_1", 32003)).basis) == [
        "x*y", "x*z", "y*z"
    ]
    amb = PolyRing(["h0", "h1", "h2"], PrimeField(32003))
    # initial forms h0*h1 and h2^2 are a regular sequence, so they generate J*
    ring = QuotientRing(amb, [amb.parse("h0*h1 - h2^3"), amb.parse("h2^2 - h0^3")])
    assert sorted(str(g) for g in tangent_cone(ring).basis) == ["h0*h1", "h2^2"]


@pytest.mark.parametrize("name", [n for n in sorted(RHO) if n != "example_4_3"])
def test_s_with_the_derived_bound_equals_s_with_the_old_floor(name):
    # example_4_3 is left out: its rho is the old floor, 8.
    ring = _ring(name, 32003)
    problem = corpus.load(name)
    gens = problem["ideals"].get(problem["options"]["ideal"])
    I = ring.parse_ideal(gens) if gens else ring.maximal_ideal()
    policy = GenericElementPolicy(seed=1)
    derived = dao_numbers(I, policy)
    assert derived.flags["s_bound"] == derived.s_certified_up_to == max(RHO[name], 1)
    assert derived.s == s_index(ring, 8).s
