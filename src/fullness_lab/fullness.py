"""The three colon-theoretic fullness predicates for proper ideals.

An ideal I of the local ring (R, m) is

* m-full          if  Im : x = I        for some x in m \\ m^2,
* full            if  I : x = I : m     for some x in m \\ m^2,
* weakly m-full   if  Im : m = I.

The first two are existential over a *general* element; the infinite
residue field of the source setting is modeled over F_p by sampling random
linear forms.  Positive answers are exact: the witness is re-verified by the
rank of multiplication by it on R/N when N contains a power of m, and by
the colon computation itself otherwise.  Negative answers after a finite
number of trials are probabilistic and reported with ``certified=False``.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from .groebner import normal_form
from .idealcalc import (
    IdealHandle,
    QuotientRing,
    ideal_colon,
    ideal_equal_local,
    ideal_product,
)
from .polyring import Monomial, Polynomial, PolyringError

DEFAULT_TRIALS = 5
DEFAULT_SEED = 20260808
# Range for coefficients of sampled linear forms in characteristic zero.
_CHAR0_COEFF_RANGE = 1000


class FullnessError(PolyringError):
    pass


@dataclass(frozen=True)
class GenericElementPolicy:
    """How to model "a general element of m \\ m^2"."""

    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) or self.trials < 1:
            raise FullnessError(f"trials must be an integer of at least 1, got {self.trials!r}")

    def rng(self, label: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def derive(self, label: str) -> "GenericElementPolicy":
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return GenericElementPolicy(self.trials, int.from_bytes(digest[8:16], "big"))


@dataclass(frozen=True)
class PredicateResult:
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
    """Deterministic predicate: Im : m = I."""
    _validate_proper(I)
    m = I.ring.maximal_ideal()
    value = ideal_equal_local(ideal_colon(ideal_product(I, m), m), I)
    return PredicateResult(value, None, certified=True, trials_used=0)


def _standard_monomials(N: IdealHandle) -> dict[Monomial, int] | None:
    """The standard monomials of N.gb, numbered, or None unless P/N = R/N.

    That holds exactly when N.gb has finitely many standard monomials (a
    pure power of each variable is a lead) and every variable is nilpotent
    on P/N, so that N contains a power of m.  The normal forms of x_i * u
    for standard u list them all.
    """
    amb = N.ring.ambient
    leads = [g.lead_monomial for g in N.gb.basis]
    if len({m.index(max(m)) for m in leads if max(m) == sum(m) > 0}) < amb.nvars:
        return None
    std = [amb.one().lead_monomial]
    index = {std[0]: 0}
    for u in std:  # std grows while it is read, until closed under the x_i
        for x in amb.gens():
            for v, _ in normal_form(x * amb.monomial(u), N.gb).terms:
                if v not in index:
                    index[v] = len(std)
                    std.append(v)
    # x is nilpotent on P/N iff x^λ lies in N, λ = len(std).
    for x in amb.gens():
        power = amb.one()
        for _ in std:
            power = normal_form(x * power, N.gb)
            if not power:
                break
        else:
            return None
    return index


def _standard_monomials_of(N: IdealHandle) -> dict[Monomial, int] | None:
    """`_standard_monomials(N)`, kept by the ring's memo for the request:
    the m-full test of a table rung and the full test of the next share N,
    and Ratliff-Rush closures read the powers of m."""
    return N.ring.memo(("standard-monomials", N.gb.basis), lambda: _standard_monomials(N))


def _echelon(rows: list[dict], field) -> dict:
    """Echelon form of sparse rows, keyed by each row's largest column, by
    elimination on that column.  The rows are consumed."""
    p, pivots = field.characteristic, {}
    for row in rows:
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = field.inv(row[col])
                pivots[col] = {k: field.mul(c, inv) for k, c in row.items()}
                break
            c = row[col]
            for k, b in pivot.items():
                s = row.get(k, 0) - c * b
                if p:
                    s %= p
                if s:
                    row[k] = s
                else:
                    del row[k]
    return pivots


def _rank(rows: list[dict], field) -> int:
    """Rank of sparse rows."""
    return len(_echelon(rows, field))


def _kernel(rows: list[dict], field) -> list[dict]:
    """A basis of the combinations {i: c} of the rows that vanish.

    Row i carries the tag column -1 - i, below every column of the rows, so
    a row that eliminates to its tags becomes a pivot on a tag column: the
    tags of those pivots are the kernel, and the other pivots the rank.
    """
    tagged = [{**row, -1 - i: field.one} for i, row in enumerate(rows)]
    return [
        {-1 - k: c for k, c in pivot.items()}
        for col, pivot in _echelon(tagged, field).items() if col < 0
    ]


def _equation(I: IdealHandle, predicate: str):
    """The test of one x in m \\ m^2 that witnesses `predicate` for I.

    T lies in N : x, so the test is N : x = T.  When N contains a power of
    m, R/N is finite-dimensional and length(R/(N : x)) is the rank of x on
    R/N, so the test is that rank against length(R/T); otherwise it is the
    Groebner colon.
    """
    _validate_proper(I)
    m = I.ring.maximal_ideal()
    if predicate == "m-full":  # Im : x = I
        N, T = ideal_product(I, m), I
    elif predicate == "full":  # I : x = I : m
        N, T = I, ideal_colon(I, m)
    else:
        raise FullnessError(f"unknown predicate {predicate!r}")
    index = _standard_monomials_of(N)
    if index is None:
        return lambda x: ideal_equal_local(ideal_colon(N, I.ring.ideal([x])), T)
    amb = I.ring.ambient
    # N lies in T, so T's standard monomials are those of N no lead of T divides.
    leads = [g.lead_monomial for g in T.gb.basis]
    length = sum(1 for u in index if not any(t.divides(u) for t in leads))

    def holds(x: Polynomial) -> bool:
        images = (normal_form(x * amb.monomial(u), N.gb).terms for u in index)
        return _rank([{index[v]: c for v, c in f} for f in images], amb.field) == length

    return holds


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
