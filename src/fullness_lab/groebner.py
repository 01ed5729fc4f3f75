"""Multivariate division, Buchberger's algorithm, and variable elimination.

The completion loop uses the normal selection strategy (smallest lcm degree
first) and prunes critical pairs with the Gebauer-Moeller criteria.  Output
bases are reduced and monic, hence unique per ideal and order, which is what
the ideal-equality machinery upstream relies on.

Division and the pair bookkeeping work on packed monomials (Bachmann and
Schoenemann): an exponent vector becomes one integer with _BITS bits per
exponent, and its place in the monomial order an integer key from
MonomialOrder.weights.  Both are additive under multiplication, and m
divides t iff t - m sets none of the guard bits (the top bit of each
exponent field), which stay clear while every exponent is below _BOUND.
Over F_p the loop keeps its basis monic.  Over Q it keeps it integral and
primitive with a positive lead from the seeds on: each generator is made so
before it is reduced, and each S-polynomial of two such elements is
integral, so every division (see _Reducers.reduce) and every remainder is
integral.  Only the reduced basis is made monic, with Fractions.  The
degree cap bounds what the loop adds: an S-pair remainder above it raises
DegreeCapExceeded, while the generators and their seed reductions are
never refused.

Elimination needs no ring of its own: a tag ring is built with its tag
variables first, under the block order that makes them dominate, and
`eliminate` drops that first block, reducing only the elements of the
completed basis whose leads are free of it.
"""
from __future__ import annotations

import sys
from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Collection, Iterable, Sequence

from .polyring import (
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PolyringError,
    RingMismatchError,
)

DEFAULT_DEGREE_CAP = 60
_BITS = 32
_BOUND = 1 << (_BITS - 1)
_FIELD = (1 << _BITS) - 1
_CONTENT_BITS = 1024  # over Q, divide out the content after this much growth


class DegreeCapExceeded(PolyringError):
    """A basis element exceeded the configured total-degree cap."""

    def __init__(self, degree: int, cap: int):
        super().__init__(f"basis element of degree {degree} exceeds cap {cap}")
        self.degree = degree
        self.cap = cap


class _Reducers:
    """Division data of some polynomials: one (lead key, packed lead, lead
    coefficient, packed tail) entry per nonzero polynomial, smallest lead
    first so cheap reducers are tried before big ones.  Over F_p an entry
    is monic; over Q it is integral and primitive with a positive lead.
    `add` takes a polynomial already in that form (see `_normalized`)."""

    __slots__ = ("ring", "entries", "weights", "places", "guard")

    def __init__(self, ring: PolyRing, polys: Iterable[Polynomial] = ()):
        self.ring = ring
        n = ring.nvars
        self.weights = ring.order.weights(n, _BOUND)
        self.places = tuple(1 << (_BITS * i) for i in range(n))
        self.guard = sum(_BOUND << (_BITS * i) for i in range(n))
        self.entries: list = []
        for g in polys:
            self.add(g)

    def pack(self, m: Sequence[int]) -> tuple[int, int]:
        """(order key, packed exponents) of an exponent vector."""
        if max(m) >= _BOUND:
            raise PolyringError(f"division needs exponents below {_BOUND}")
        return sum(map(mul, m, self.weights)), sum(map(mul, m, self.places))

    def lcm(self, a: int, b: int) -> int:
        """Packed lcm of two packed monomials: each field of a - b borrows
        from its guard bit unless a's exponent is at least b's."""
        take_a = ((((a | self.guard) - b) & self.guard) >> (_BITS - 1)) * _FIELD
        return (a & take_a) | (b & ~take_a)

    def unpack(self, packed: int) -> Monomial:
        raw = packed.to_bytes(_BITS // 8 * self.ring.nvars, sys.byteorder)
        return Monomial(memoryview(raw).cast("I"))

    def add(self, g: Polynomial):
        if g.ring is not self.ring:
            raise RingMismatchError("normal_form: ring or order mismatch")
        (lead, a), *rest = g.terms
        tail = tuple([(*self.pack(m), c) for m, c in rest])
        insort(self.entries, (*self.pack(lead), a, tail), key=itemgetter(0))

    def discard_multiples(self, m: Monomial):
        """Drop the entries whose lead monomial m divides."""
        packed, guard = self.pack(m)[1], self.guard
        self.entries = [e for e in self.entries if (e[1] - packed) & guard]

    def reduce(self, terms: Iterable[tuple]) -> tuple[int, list]:
        """(scale, r) with r the remainder of the terms (monomial,
        coefficient) on full division by the entries, largest term first:
        exact for rational terms, and scale times it for integral ones.

        The next term to reduce is popped from a heap of negated keys.  A
        cancelled term leaves its heap entry behind; the entry is skipped
        when popped.  Every term a step adds is smaller than the one it
        removes, so a popped monomial never comes back.

        Over Q the work holds `scale` times the true coefficients, all
        integers (fraction-free, as in Bareiss's elimination): rational
        terms are first cleared of denominators, and a step by a lead a > 1
        multiplies the work, the remainder so far and the scale by
        a / gcd(a, c).  Over F_p the scale is 1.
        """
        p = self.ring.field.characteristic
        guard, entries = self.guard, self.entries
        work, packed, c = {}, {}, 0
        for m, c in terms:
            key, e = self.pack(m)
            work[key], packed[key] = c, e
        scale, limit = 1, _CONTENT_BITS
        rational = type(c) is Fraction
        if rational:
            scale, ints = _integral(work.values())
            work = dict(zip(work, ints))
        heap = [-key for key in work]
        heapify(heap)
        remainder = []
        while heap:
            key = -heappop(heap)
            c = work.pop(key, None)
            if c is None:
                continue
            e = packed[key]
            for lead_key, lead, a, tail in entries:
                if not (e - lead) & guard:
                    break
            else:
                remainder.append((self.unpack(e), c))
                continue
            if a != 1:
                g = gcd(a, c)
                a, c = a // g, c // g
                if a != 1:
                    scale *= a
                    for t in work:
                        work[t] *= a
                    remainder = [(m, r * a) for m, r in remainder]
                    if scale.bit_length() > limit:
                        g = gcd(scale, c, *work.values(), *(r for _, r in remainder))
                        scale, c = scale // g, c // g
                        for t in work:
                            work[t] //= g
                        remainder = [(m, r // g) for m, r in remainder]
                        limit = scale.bit_length() + _CONTENT_BITS
            shift_key, shift = key - lead_key, e - lead
            for tail_key, tail_e, cc in tail:
                t = tail_key + shift_key
                old = work.get(t)
                if old is None:
                    old = 0
                    packed[t] = tail_e = tail_e + shift
                    if tail_e & guard:
                        raise PolyringError(f"division needs exponents below {_BOUND}")
                    heappush(heap, -t)
                s = old - cc * c
                if p:
                    s %= p
                if s:
                    work[t] = s
                else:
                    del work[t]
        return scale, [(m, Fraction(c, scale)) for m, c in remainder] if rational else remainder


def _integral(coeffs: Collection[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * c]) for the least common denominator d of the rationals."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _normalized(g: Polynomial) -> Polynomial:
    """The nonzero g in the form the completion loop keeps: monic over F_p;
    over Q integral and primitive, with a positive lead."""
    if type(g.terms[0][1]) is int and g.terms[0][1] == 1:
        return g
    if g.ring.characteristic:
        return g.monic()
    ints = [c for _, c in g.terms]
    if type(ints[0]) is Fraction:
        ints = _integral(ints)[1]
    content = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
    if content == 1 and type(g.lead_coeff) is int:
        return g
    return Polynomial(g.ring, tuple([(m, c // content) for (m, _), c in zip(g.terms, ints)]))


class GroebnerBasis:
    __slots__ = ("ring", "order", "basis", "_reducers")

    def __init__(self, ring: PolyRing, basis: Sequence[Polynomial]):
        self.ring = ring
        self.order = ring.order
        self.basis = tuple(basis)
        self._reducers: _Reducers | None = None

    @property
    def reducers(self) -> _Reducers:
        """Division data of the basis, built on first use."""
        if self._reducers is None:
            self._reducers = _Reducers(self.ring, map(_normalized, self.basis))
        return self._reducers

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and other.ring is self.ring
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.ring, self.basis))

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_monomial() and \
            self.basis[0].lead_monomial.total_degree == 0

    def __repr__(self):
        return f"GroebnerBasis({len(self.basis)} elements, {self.order.kind})"


def normal_form(f: Polynomial, G: "GroebnerBasis | Sequence[Polynomial]") -> Polynomial:
    """Remainder of f on division by G; zero iff f lies in the ideal when G
    is a Groebner basis.  Over Q an f with integer coefficients, as only
    `buchberger` makes them, gives a positive integral multiple of it."""
    if isinstance(G, GroebnerBasis):
        G = G.reducers
    elif not isinstance(G, _Reducers):
        G = _Reducers(f.ring, [_normalized(g) for g in G if g])
    if G.ring is not f.ring:
        raise RingMismatchError("normal_form: ring or order mismatch")
    if f.is_zero():
        return f
    return Polynomial(f.ring, tuple(G.reduce(f.terms)[1]))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(L / LT(f))·f - (L / LT(g))·g, L the lcm of the leads, over F_p; over
    Q the nonzero multiple (b/d)·(L / LM(f))·f - (a/d)·(L / LM(g))·g, with a
    and b the lead coefficients and d = gcd(a, b), which keeps integral input
    integral.  The two agree for monic leads."""
    if f.ring is not g.ring:
        raise RingMismatchError("s_polynomial: polynomials from different rings")
    field = f.ring.field
    lcm, a, b = f.lead_monomial.lcm(g.lead_monomial), f.lead_coeff, g.lead_coeff
    if field.characteristic:
        kf, kg = a if a == 1 else field.inv(a), b if b == 1 else field.inv(b)
    else:
        kf, kg = Fraction(b, a).as_integer_ratio()

    def tail(h, k):  # the tail of h times k·lcm / LM(h)
        shift = lcm.div(h.lead_monomial)
        if k == 1:  # a monic lead over F_p, or a lead dividing the other: no products
            return [(m.mul(shift), c) for m, c in h.terms[1:]]
        return [(m.mul(shift), field.mul(c, k)) for m, c in h.terms[1:]]

    # The scaled lead terms cancel; only the tails are combined.
    d, fsub = dict(tail(f, kf)), field.sub
    for t, c in tail(g, kg):
        d[t] = fsub(d.get(t, 0), c)
    return f.ring._sorted(d.items())


def reduce_basis(ring: PolyRing, basis: Sequence[Polynomial]) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal generated by `basis`, which
    must already be a Groebner basis of it in `ring`'s order."""
    desc_key = ring.order.desc_key
    basis = sorted((g for g in basis if g), key=lambda g: desc_key(g.lead_monomial), reverse=True)
    # Minimalize: drop elements whose lead is divisible by another lead.
    minimal: list[Polynomial] = []
    for g in basis:
        if not any(h.lead_monomial.divides(g.lead_monomial) for h in minimal):
            minimal.append(_normalized(g))
    # Tail-reduce against the whole minimal basis: a lead never divides a
    # monomial below it, so no element's own lead touches its tail.  Over
    # Q the tail of g = a·lead + tail leaves as r / (a·scale), made monic.
    reducers, reduced, rational = _Reducers(ring, minimal), [], not ring.characteristic
    for g in minimal:
        (lead, a), (scale, rest) = g.terms[0], reducers.reduce(g.terms[1:])
        if rational:
            rest = [(m, Fraction(c, a * scale)) for m, c in rest]
        reduced.append(Polynomial(ring, ((lead, ring.field.one), *rest)))
    return GroebnerBasis(ring, reduced)


def _update_pairs(
    pairs: list, leads: list, packed_leads: list, active: list[int], k: int, reducers: _Reducers
) -> list[int]:
    """Gebauer-Moeller update of the critical-pair heap `pairs` for the new
    element k; returns the new active list (elements whose lead k's lead
    divides drop out).  Heap entries are (lcm degree, lcm key, i, j, packed
    lcm): the normal selection strategy, with each key computed once."""
    pk, guard, lcm_of = packed_leads[k], reducers.guard, reducers.lcm
    new = [(lcm_of(packed_leads[i], pk), i) for i in active]
    # Keep (i, k) only if no other new pair's lcm divides its lcm; of pairs
    # with equal lcm keep one, and drop the whole group if one of them has
    # coprime leads (lcm = product; its S-polynomial reduces to zero).
    kept = []
    for n, (lcm, i) in enumerate(new):
        if lcm == packed_leads[i] + pk or all(
            (lcm - other) & guard for other, _ in chain(new[n + 1 :], kept)
        ):
            kept.append((lcm, i))
    # Old pairs (i, j) whose lcm k's lead divides are covered by (i, k) and
    # (j, k) unless one of those has the same lcm.
    old = [
        e for e in pairs
        if (e[4] - pk) & guard
        or lcm_of(packed_leads[e[2]], pk) == e[4]
        or lcm_of(packed_leads[e[3]], pk) == e[4]
    ]
    if len(old) < len(pairs):
        pairs[:] = old
        heapify(pairs)
    weights = reducers.weights
    for lcm, i in kept:
        if lcm != packed_leads[i] + pk:
            m = leads[i].lcm(leads[k])
            heappush(pairs, (sum(m), sum(map(mul, m, weights)), i, k, lcm))
    return [i for i in active if (packed_leads[i] - pk) & guard] + [k]


def buchberger(
    generators: Sequence[Polynomial], degree_cap: int = DEFAULT_DEGREE_CAP
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal of `generators` in their ring's order."""
    gens = list(generators)
    if not gens:
        raise PolyringError("buchberger: empty generator list")
    return reduce_basis(gens[0].ring, _complete(gens, degree_cap))


def _complete(gens: list[Polynomial], degree_cap: int, aside: list | None = None) -> list:
    """A Groebner basis of the ideal of the nonempty `gens`, not reduced,
    kept `_normalized`, so over Q every reduction in the loop is integral.
    With a list `aside`, the seeds free of the ring's first variable w, a
    tag that the block order eliminates, must be a Groebner basis, and any
    other remainder free of w goes to `aside` instead of the basis."""
    ring = gens[0].ring
    if any(g.ring is not ring for g in gens):
        raise RingMismatchError("buchberger: generators from different rings")

    # Seed the working basis by sequential reduction; unlike lead-term
    # minimalization this never changes the generated ideal.  Each seed is
    # normalized before it is reduced, so over Q its reduction is integral.
    basis: list[Polynomial] = []
    reducers = _Reducers(ring)
    desc_key = ring.order.desc_key
    for g in sorted((g for g in gens if g), key=lambda g: desc_key(g.lead_monomial), reverse=True):
        h = _normalized(g)
        if basis:
            r = normal_form(h, reducers)
            if not r:
                continue
            if aside is not None and g.lead_monomial[0] and not r.lead_monomial[0]:
                aside.append(r)
                continue
            h = _normalized(r)
        basis.append(h)
        reducers.add(h)

    # Reduction runs against the active elements only; an element whose
    # lead a later lead divides drops out of both the pairs and the reducers.
    leads = [g.lead_monomial for g in basis]
    packed_leads = [reducers.pack(m)[1] for m in leads]
    pairs: list = []
    active: list[int] = []
    for k in sorted(range(len(basis)), key=lambda k: desc_key(leads[k]), reverse=True):
        active = _update_pairs(pairs, leads, packed_leads, active, k, reducers)
    if len(active) < len(basis):
        reducers = _Reducers(ring, (basis[k] for k in active))

    while pairs:
        _, _, i, j, _ = heappop(pairs)
        fi, fj = basis[i], basis[j]
        if fi.is_monomial() and fj.is_monomial():
            continue  # S-polynomial of two monomials is 0
        r = normal_form(s_polynomial(fi, fj), reducers)
        if r.is_zero():
            continue
        if r.total_degree > degree_cap:
            raise DegreeCapExceeded(r.total_degree, degree_cap)
        if aside is not None and not r.lead_monomial[0]:
            aside.append(r)
            continue
        h = _normalized(r)
        basis.append(h)
        leads.append(h.lead_monomial)
        packed_leads.append(reducers.pack(h.lead_monomial)[1])
        reducers.discard_multiples(h.lead_monomial)
        reducers.add(h)
        active = _update_pairs(pairs, leads, packed_leads, active, len(basis) - 1, reducers)

    return [basis[k] for k in active]


def eliminate(
    generators: Sequence[Polynomial], degree_cap: int = DEFAULT_DEGREE_CAP
) -> list[Polynomial]:
    """The reduced basis of <generators> intersected with the subring on
    the variables after the first block of their ring's block order.

    Under that order an element whose lead is free of the first block has
    no term that involves it, and those elements of any Groebner basis are
    one of the elimination ideal, so only they are reduced.  They stay in
    the generators' ring, where the dropped variables do not occur.
    """
    gens = list(generators)
    if not gens:
        return []
    ring = gens[0].ring
    if ring.order.kind != MonomialOrder.BLOCK:
        raise PolyringError("eliminate needs a ring under a block order")
    split = ring.order.split
    survivors = [g for g in _complete(gens, degree_cap) if not any(g.lead_monomial[:split])]
    return list(reduce_basis(ring, survivors).basis)
