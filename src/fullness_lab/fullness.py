"""The three colon-theoretic fullness predicates for proper ideals.

An ideal I of the local ring (R, m) is

* m-full          if  Im : x = I        for some x in m \\ m^2,
* full            if  I : x = I : m     for some x in m \\ m^2,
* weakly m-full   if  Im : m = I.

The first two are existential over a *general* element, modeled over F_p
(the source has an infinite residue field) by sampling random linear forms.
Each test is N : (b_j) = T: the rank of v ↦ (b_1 v, …, b_k v) on R/N when N
contains a power of m, else the Groebner colon, with one sampled x as the
b_j or, for the third, all of m.  Positive answers are exact; negative ones
after finitely many trials are probabilistic, reported ``certified=False``.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import NamedTuple

from .groebner import normal_form
from .idealcalc import (
    IdealHandle,
    QuotientRing,
    _rank,
    ideal_colon,
    ideal_equal_local,
    ideal_product,
    quotient_view,
)
from .polyring import Polynomial, PolyringError

DEFAULT_TRIALS = 5
DEFAULT_SEED = 20260808
# Range for coefficients of sampled linear forms in characteristic zero.
_CHAR0_COEFF_RANGE = 1000


class FullnessError(PolyringError):
    pass


class _Policy(NamedTuple):
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED


class GenericElementPolicy(_Policy):
    """How to model "a general element of m \\ m^2"."""

    __slots__ = ()

    def __new__(cls, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED):
        if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
            raise FullnessError(f"trials must be an integer of at least 1, got {trials!r}")
        return super().__new__(cls, trials, seed)

    def rng(self, label: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def derive(self, label: str) -> "GenericElementPolicy":
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return GenericElementPolicy(self.trials, int.from_bytes(digest[8:16], "big"))


class PredicateResult(NamedTuple):
    value: bool
    witness: Polynomial | None
    certified: bool
    trials_used: int

    def __bool__(self):
        return self.value


def sample_linear_form(ring: QuotientRing, rng: random.Random) -> Polynomial:
    """A random linear form with coefficients uniform in the field, nonzero
    modulo m^2 (degenerate presentations may absorb linear forms into m^2)."""
    amb = ring.ambient
    p = amb.characteristic
    m2 = ring.m_power(2)
    for _ in range(64):
        if p:
            coeffs = [rng.randrange(p) for _ in amb.variables]
        else:
            coeffs = [
                Fraction(rng.randint(-_CHAR0_COEFF_RANGE, _CHAR0_COEFF_RANGE))
                for _ in amb.variables
            ]
        if all(c == 0 for c in coeffs):
            continue
        ell = amb.zero()
        for c, v in zip(coeffs, amb.variables):
            ell = ell + amb.gen(v).scale(c)
        # m^2 + J is m-primary, so plain normal-form membership is already
        # the local test.
        if not normal_form(ell, m2.gb).is_zero():
            return ell
    raise FullnessError("could not sample an element of m outside m^2")


def _validate_proper(I: IdealHandle):
    if not any(I.ring.reduce(g) for g in I.gens):
        raise FullnessError("fullness predicates are undefined for the zero ideal")
    if I.contains_unit_local():
        raise FullnessError("fullness predicates are undefined for the unit ideal")


def is_weakly_m_full(I: IdealHandle) -> PredicateResult:
    """Deterministic predicate: Im : m = I, the m-full test by all of m."""
    value = _equation(I, "m-full")(*I.ring.maximal_ideal().gens)
    return PredicateResult(value, None, certified=True, trials_used=0)


def _equation(I: IdealHandle, predicate: str):
    """The test N : (b_1, …, b_k) = T of forms b_j: one x in m \\ m^2 that
    witnesses `predicate` for I, or all of m.

    T lies in N : (b_j), so the test is one of length.  When N contains a
    power of m, R/N is finite-dimensional and length(R/(N : (b_j))) is the
    rank of v ↦ (b_1 v, …, b_k v) on R/N, read off N's quotient view, so
    the test is that rank against length(R/T); else the Groebner colon.
    """
    _validate_proper(I)
    m = I.ring.maximal_ideal()
    if predicate == "m-full":  # Im : x = I
        N, T = ideal_product(I, m), I
    elif predicate == "full":  # I : x = I : m
        N, T = I, ideal_colon(I, m)
    else:
        raise FullnessError(f"unknown predicate {predicate!r}")
    view = quotient_view(N)
    if view is None:  # all of m is the ring's handle, whose basis is built
        return lambda *forms: ideal_equal_local(
            ideal_colon(N, m if forms == m.gens else I.ring.ideal(forms)), T
        )
    # N lies in T, so T's standard monomials are those of N no lead of T divides.
    leads = [g.lead_monomial for g in T.gb.basis]
    length = sum(1 for u in view.std if not any(t.divides(u) for t in leads))
    field = I.ring.ambient.field
    return lambda *forms: _rank(view.images(*forms), field) == length


def _sample_witness(
    I: IdealHandle, predicate: str, policy: GenericElementPolicy | None
) -> PredicateResult:
    """The first sampled x from the predicate's rng stream that passes the
    test is the witness."""
    holds = _equation(I, predicate)
    policy = policy or GenericElementPolicy()
    rng = policy.rng(predicate)
    for trial in range(1, policy.trials + 1):
        x = sample_linear_form(I.ring, rng)
        if holds(x):
            return PredicateResult(True, x, certified=True, trials_used=trial)
    return PredicateResult(False, None, certified=False, trials_used=policy.trials)


def is_m_full(I: IdealHandle, policy: GenericElementPolicy | None = None) -> PredicateResult:
    """Existential predicate: Im : x = I for a sampled x in m \\ m^2."""
    return _sample_witness(I, "m-full", policy)


def is_full(I: IdealHandle, policy: GenericElementPolicy | None = None) -> PredicateResult:
    """Existential predicate: I : x = I : m for a sampled x in m \\ m^2."""
    return _sample_witness(I, "full", policy)


def replay_witness(I: IdealHandle, predicate: str, witness: Polynomial) -> bool:
    """Re-verify a recorded witness exactly (no sampling)."""
    return _equation(I, predicate)(witness)
