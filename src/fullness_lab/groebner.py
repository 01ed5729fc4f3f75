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
"""
from __future__ import annotations

import sys
from bisect import insort
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import itemgetter, mul
from typing import Iterable, Sequence

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


class DegreeCapExceeded(PolyringError):
    """A basis element exceeded the configured total-degree cap."""

    def __init__(self, degree: int, cap: int):
        super().__init__(f"basis element of degree {degree} exceeds cap {cap}")
        self.degree = degree
        self.cap = cap


class _Reducers:
    """Division data of some polynomials: one (lead key, packed lead,
    inverse lead coefficient, packed tail) entry per nonzero polynomial,
    smallest lead first so cheap reducers are tried before big ones."""

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
        if g:
            tail = tuple([(*self.pack(m), c) for m, c in g.terms[1:]])
            entry = (*self.pack(g.lead_monomial), self.ring.field.inv(g.lead_coeff), tail)
            insort(self.entries, entry, key=itemgetter(0))

    def discard_multiples(self, m: Monomial):
        """Drop the entries whose lead monomial m divides."""
        packed, guard = self.pack(m)[1], self.guard
        self.entries = [e for e in self.entries if (e[1] - packed) & guard]

    def reduce(self, terms: Iterable[tuple]) -> list:
        """Remainder of the terms (monomial, coefficient) on full division
        by the entries, largest term first.

        The next term to reduce is popped from a heap of negated keys.  A
        cancelled term leaves its heap entry behind; the entry is skipped
        when popped.  Every term a reduction step adds is smaller than the
        one it removes, so a popped monomial never comes back.
        """
        p = self.ring.field.characteristic
        guard, entries = self.guard, self.entries
        work, packed = {}, {}
        for m, c in terms:
            key, e = self.pack(m)
            work[key], packed[key] = c, e
        heap = [-key for key in work]
        heapify(heap)
        remainder = []
        while heap:
            key = -heappop(heap)
            c = work.pop(key, None)
            if c is None:
                continue
            e = packed[key]
            for lead_key, lead, inv, tail in entries:
                if not (e - lead) & guard:
                    break
            else:
                remainder.append((self.unpack(e), c))
                continue
            q = c * inv
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
                s = old - cc * q
                if p:
                    s %= p
                if s:
                    work[t] = s
                else:
                    del work[t]
        return remainder


class GroebnerBasis:
    __slots__ = ("ring", "order", "basis", "reduced", "_reducers")

    def __init__(self, ring: PolyRing, basis: Sequence[Polynomial], reduced: bool = True):
        self.ring = ring
        self.order = ring.order
        self.basis = tuple(basis)
        self.reduced = reduced
        self._reducers: _Reducers | None = None

    @property
    def reducers(self) -> _Reducers:
        """Division data of the basis, built on first use."""
        if self._reducers is None:
            self._reducers = _Reducers(self.ring, self.basis)
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
    is a Groebner basis."""
    if isinstance(G, GroebnerBasis):
        G = G.reducers
    elif not isinstance(G, _Reducers):
        G = _Reducers(f.ring, G)
    if G.ring is not f.ring:
        raise RingMismatchError("normal_form: ring or order mismatch")
    if f.is_zero():
        return f
    return Polynomial(f.ring, tuple(G.reduce(f.terms)))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.ring is not g.ring:
        raise RingMismatchError("s_polynomial: polynomials from different rings")
    field = f.ring.field
    fmul, fsub, zero = field.mul, field.sub, field.zero
    lf, lg = f.lead_monomial, g.lead_monomial
    lcm = lf.lcm(lg)
    # The scaled lead terms cancel; only the tails are combined.
    shift, c = lcm.div(lf), field.inv(f.lead_coeff)
    d = {m.mul(shift): fmul(k, c) for m, k in f.terms[1:]}
    shift, c = lcm.div(lg), field.inv(g.lead_coeff)
    for m, k in g.terms[1:]:
        t = m.mul(shift)
        d[t] = fsub(d.get(t, zero), fmul(k, c))
    return f.ring._sorted(d.items())


def reduce_basis(ring: PolyRing, basis: Sequence[Polynomial]) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal generated by `basis`, which
    must already be a Groebner basis of it in `ring`'s order."""
    basis = sorted((g for g in basis if g), key=lambda g: ring.order.key(g.lead_monomial))
    # Minimalize: drop elements whose lead is divisible by another lead.
    minimal: list[Polynomial] = []
    for g in basis:
        if not any(h.lead_monomial.divides(g.lead_monomial) for h in minimal):
            minimal.append(g.monic())
    # Tail-reduce against the whole minimal basis: a lead never divides a
    # monomial below it, so no element's own lead touches its tail.
    reducers = _Reducers(ring, minimal)
    reduced = [
        Polynomial(ring, (g.terms[0],) + tuple(reducers.reduce(g.terms[1:])))
        for g in minimal
    ]
    return GroebnerBasis(ring, reduced, reduced=True)


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
    generators: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `generators`.

    If `order` differs from the generators' ring order, computation happens
    in a re-ordered copy of the ring.
    """
    gens = [g for g in generators]
    if not gens:
        raise PolyringError("buchberger: empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise RingMismatchError("buchberger: generators from different rings")
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        gens = [ring.from_dict(g.as_dict()) for g in gens]

    # Seed the working basis by sequential reduction; unlike lead-term
    # minimalization this never changes the generated ideal.
    basis: list[Polynomial] = []
    reducers = _Reducers(ring)
    for g in sorted((g for g in gens if g), key=lambda g: ring.order.key(g.lead_monomial)):
        r = normal_form(g, reducers) if basis else g
        if r:
            basis.append(r.monic())
            reducers.add(basis[-1])
    if not basis:
        return GroebnerBasis(ring, (), reduced=True)

    # Reduction runs against the active elements only; an element whose
    # lead a later lead divides drops out of both the pairs and the reducers.
    leads = [g.lead_monomial for g in basis]
    packed_leads = [reducers.pack(m)[1] for m in leads]
    pairs: list = []
    active: list[int] = []
    for k in sorted(range(len(basis)), key=lambda k: ring.order.key(leads[k])):
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
        h = r.monic()
        basis.append(h)
        leads.append(h.lead_monomial)
        packed_leads.append(reducers.pack(h.lead_monomial)[1])
        reducers.discard_multiples(h.lead_monomial)
        reducers.add(h)
        active = _update_pairs(pairs, leads, packed_leads, active, len(basis) - 1, reducers)

    return reduce_basis(ring, [basis[k] for k in active])


def eliminate(
    generators: Sequence[Polynomial],
    drop: Iterable[str],
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> list[Polynomial]:
    """Generators of <generators> intersected with the subring on the
    variables outside `drop`, via a block elimination order.

    The result is returned in the original ring (dropped variables simply do
    not occur).
    """
    gens = list(generators)
    if not gens:
        return []
    ring = gens[0].ring
    drop = list(dict.fromkeys(drop))
    for v in drop:
        if v not in ring.variables:
            raise PolyringError(f"cannot eliminate {v!r}: not a ring variable")
    if len(drop) == len(ring.variables):
        raise PolyringError("cannot eliminate every variable")
    if not drop:
        return list(buchberger(gens, degree_cap=degree_cap).basis)

    keep = [v for v in ring.variables if v not in drop]
    block_ring = PolyRing(
        tuple(drop) + tuple(keep), ring.field, MonomialOrder.elimination(len(drop))
    )
    moved = [block_ring.convert(g) for g in gens]
    gb = buchberger(moved, degree_cap=degree_cap)
    ndrop = len(drop)
    # Under the block order a lead free of the dropped variables has no term
    # that involves them.
    survivors = [g for g in gb.basis if not any(g.lead_monomial[:ndrop])]
    return [ring.convert(g) for g in survivors]
