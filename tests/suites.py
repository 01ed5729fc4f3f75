"""Reusable randomized suites shared by the property tests (small runs) and
the acceptance gate (full pinned counts)."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fullness_lab.fullness import GenericElementPolicy, is_full, is_m_full, is_weakly_m_full
from fullness_lab.idealcalc import (
    QuotientRing,
    ideal_colon,
    ideal_contains_local,
    ideal_equal_local,
    ideal_intersection,
    ideal_product,
    times_m_power,
)
from fullness_lab.invariants import ratliff_rush_power
from fullness_lab.polyring import PolyRing, PrimeField

P32 = PrimeField(32003)


def regular_ring(nvars: int) -> QuotientRing:
    return QuotientRing(PolyRing(["x", "y", "z"][:nvars], P32))


def rational_singularity_ring(a=2, b=2, c=2) -> QuotientRing:
    amb = PolyRing(["x", "y", "z", "t"], P32)
    rels = [f"x*y - t^{a+b}", f"x*z - t^{a+c} + z*t^{a}", f"y*z - y*t^{c} + z*t^{b}"]
    return QuotientRing(amb, [amb.parse(s) for s in rels])


def semigroup_ring() -> QuotientRing:
    amb = PolyRing(["x", "y", "z"], P32)
    rels = ["y^3 - x*z", "x^4 - y*z", "x^3*y^2 - z^2"]
    return QuotientRing(amb, [amb.parse(s) for s in rels])


def random_test_ideal(rng: random.Random, ring: QuotientRing, max_deg=6):
    """A random monomial or binomial ideal inside m (proper, nonzero)."""
    nvars = ring.ambient.nvars
    while True:
        gens = []
        for _ in range(rng.randint(1, 3)):
            m1 = ring.ambient.monomial(oracles.random_monomial(rng, nvars, max_deg))
            if rng.random() < 0.45:
                m2 = ring.ambient.monomial(oracles.random_monomial(rng, nvars, max_deg))
                c = rng.randrange(1, 32003)
                gens.append(m1 + m2.scale(c) if m1 != m2 else m1)
            else:
                gens.append(m1)
        handle = ring.ideal(gens)
        if not handle.contains_unit_local() and handle.effective_gens():
            return handle


@dataclass
class EquivalenceStats:
    cases: int = 0
    certified_violations: list = field(default_factory=list)
    uncertified_discrepancies: list = field(default_factory=list)
    implication_violations: list = field(default_factory=list)


def run_predicate_equivalence_suite(
    n_ideals: int, seed: int, trials: int = 8, powers=(0, 1, 2)
) -> EquivalenceStats:
    """For random ideals I and n in `powers`, check

        I m^n m-full  <=>  I m^{n+1} full  and  I m^n weakly m-full

    plus the one-way implication m-full => weakly m-full.  Mismatches that
    hinge on an uncertified (probabilistic) False are logged, not failed.
    """
    rng = random.Random(seed)
    policy = GenericElementPolicy(trials=trials, seed=seed)
    stats = EquivalenceStats()
    rings = [regular_ring(2), regular_ring(3)]
    for count in range(n_ideals):
        ring = rings[count % len(rings)]
        I = random_test_ideal(rng, ring)
        powers_of_i = {0: I}
        for n in sorted(powers):
            if n not in powers_of_i:
                powers_of_i[n] = times_m_power(powers_of_i[n - 1], 1)
            if n + 1 not in powers_of_i:
                powers_of_i[n + 1] = times_m_power(powers_of_i[n], 1)
            K, K1 = powers_of_i[n], powers_of_i[n + 1]
            lhs = is_m_full(K, policy.derive(f"{count}:m:{n}"))
            full_next = is_full(K1, policy.derive(f"{count}:f:{n}"))
            weakly = is_weakly_m_full(K)
            stats.cases += 1
            if lhs.value and not weakly.value:
                stats.implication_violations.append((count, n))
            if lhs.value != (full_next.value and weakly.value):
                uncertified = (not lhs.value and not lhs.certified) or (
                    not full_next.value and not full_next.certified
                )
                record = (count, n, str(I.gens))
                if uncertified:
                    stats.uncertified_discrepancies.append(record)
                else:
                    stats.certified_violations.append(record)
    return stats


@dataclass
class OracleStats:
    cases: int = 0
    mismatches: list = field(default_factory=list)


def run_monomial_oracle_suite(n_cases: int, seed: int) -> OracleStats:
    """Engine product/intersection/colon against closed-form monomial
    arithmetic on random monomial ideals."""
    rng = random.Random(seed)
    stats = OracleStats()
    rings = {2: regular_ring(2), 3: regular_ring(3)}
    for case in range(n_cases):
        nvars = 2 if case % 2 == 0 else 3
        ring = rings[nvars]
        A = oracles.random_monomial_ideal(rng, nvars, 8, 4)
        B = oracles.random_monomial_ideal(rng, nvars, 5, 3)
        hA = ring.ideal([ring.ambient.monomial(m) for m in A])
        hB = ring.ideal([ring.ambient.monomial(m) for m in B])

        def basis_exps(handle):
            return tuple(sorted(tuple(g.lead_monomial) for g in handle.gb.basis))

        got = {
            "product": basis_exps(ideal_product(hA, hB)),
            "intersection": basis_exps(ideal_intersection(hA, hB)),
            "colon": basis_exps(ideal_colon(hA, hB)),
        }
        want = {
            "product": oracles.mono_product(A, B),
            "intersection": oracles.mono_intersection(A, B),
            "colon": oracles.mono_colon(A, B),
        }
        stats.cases += 1
        for op in got:
            if got[op] != want[op]:
                stats.mismatches.append((case, op, A, B, got[op], want[op]))
    return stats


@dataclass
class ChainStats:
    pairs_checked: int = 0
    ascent_violations: list = field(default_factory=list)
    claim_violations: list = field(default_factory=list)
    closure_mismatches: list = field(default_factory=list)


def run_rr_chain_suite(rings: dict, top_power: int, seed: int) -> ChainStats:
    """Ratliff-Rush closures on fixed positive-depth rings, against the
    colon chain of `oracles.rr_chain`: every chain must ascend to the
    closure, and closing one power higher then coloning by m must descend
    to the closure below."""
    policy = GenericElementPolicy(trials=8, seed=seed)
    stats = ChainStats()
    for label, ring in rings.items():
        records = []
        for n in range(1, top_power + 1):
            record = ratliff_rush_power(ring, n, policy=policy)
            records.append(record)
            chain = oracles.rr_chain(ring, n)
            for earlier, later in zip(chain, chain[1:]):
                stats.pairs_checked += 1
                ok = all(ideal_contains_local(later, g) for g in earlier.gb.basis)
                if not ok:
                    stats.ascent_violations.append((label, n))
            if not ideal_equal_local(chain[-1], record.stable_value):
                stats.closure_mismatches.append((label, n))
        m = ring.maximal_ideal()
        for lower, upper in zip(records, records[1:]):
            stats.pairs_checked += 1
            lhs = ideal_colon(upper.stable_value, m)
            if not ideal_equal_local(lhs, lower.stable_value):
                stats.claim_violations.append((label, upper.n))
    return stats
