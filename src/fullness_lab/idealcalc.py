"""Ideal arithmetic in R = (P/J) localized at the ideal of variables.

Ideals of R are handled through lifted generators in the ambient polynomial
ring P; every handle caches the reduced Groebner basis of (generators + J),
so handle comparison is exact.  Equality and membership are decided in the
LOCAL sense: a ∈ B_m iff the colon (B : a) is not contained in m, i.e. it
contains a unit.  Since m is the ideal of the variables, "contains a unit"
is simply "some reduced-basis element has a nonzero constant term".

An ideal N of P that contains a power of m is m-primary: P/N = R/N is
finite-dimensional, and local and global questions about N agree.  Its
`QuotientView` numbers the standard monomials of N and keeps the maps
M_{x_i} of multiplication by each variable on them, so that a colon N : b
is N plus the lifts of the kernel of b· on P/N (one Buchberger run, no
elimination), and membership in N is a normal form.  Every other colon is
the tag-variable elimination of `_colon_single`, and so is every
intersection.  That elimination homogenizes both degrevlex bases by a fresh
last variable h first (`_intersect_lifts`), which keeps its coefficients
small; this is why the ambient order must be degrevlex.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .groebner import (
    DEFAULT_DEGREE_CAP,
    GroebnerBasis,
    buchberger,
    eliminate,
    normal_form,
    reduce_basis,
)
from .polyring import (
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PolyringError,
    RingMismatchError,
    monomials_of_degree,
)


class IdealcalcError(PolyringError):
    pass


_MISSING = object()


def _fresh_name(name: str, taken: Sequence[str]) -> str:
    while name in taken:
        name += name[0]
    return name


class QuotientRing:
    """Presentation of the local ring (P/J) localized at m = (variables).

    The ring keeps the zero ideal, whose basis is that of J, and one memo
    that every layer reads and writes through `memo`.  A memo key names
    what its result depends on: an ideal by its reduced basis, an element
    by itself.  `start_request` keeps the entries whose key names neither,
    which depend on the presentation alone: the powers of m, the depth
    witness, the Ratliff-Rush records of m-powers and the regularity bound
    of G(m).  Every Groebner run on its ideals honours its degree cap.  The
    ambient order must be degrevlex, which the intersections need: they
    homogenize with a last variable h and set h = 1 in a degrevlex basis.
    """

    def __init__(
        self,
        ambient: PolyRing,
        relations: Sequence[Polynomial] = (),
        degree_cap: int = DEFAULT_DEGREE_CAP,
    ):
        if ambient.order.kind != MonomialOrder.DEGREVLEX:
            raise IdealcalcError("the ambient ring must be ordered by degrevlex")
        self.ambient = ambient
        self.degree_cap = degree_cap
        rels = []
        for f in relations:
            if f.ring is not ambient:
                raise RingMismatchError("relation from a different ring")
            if f.is_zero():
                continue
            if f.constant_term != ambient.field.zero:
                raise IdealcalcError(
                    f"relation {f} has a nonzero constant term; "
                    "the ideal of variables would not survive the quotient"
                )
            rels.append(f)
        self.relations = tuple(rels)
        self._zero = IdealHandle(self, ())
        # The memo; the benchmark's tracer reads it under this name.
        self._op_cache: dict = {}
        if self.relations:
            gb = self.gbJ
            if gb.is_unit_ideal():
                raise IdealcalcError("relations generate the unit ideal")

    @property
    def gbJ(self) -> GroebnerBasis:
        return self._zero.gb

    def ideal(self, gens: Sequence[Polynomial]) -> "IdealHandle":
        return IdealHandle(self, gens)

    def parse_ideal(self, gens: Sequence[str]) -> "IdealHandle":
        return IdealHandle(self, [self.ambient.parse(s) for s in gens])

    def zero_ideal(self) -> "IdealHandle":
        return self._zero

    def maximal_ideal(self) -> "IdealHandle":
        return self.m_power(1)

    def memo(self, key: tuple, build):
        """The result stored under key; a miss stores what build() returns."""
        result = self._op_cache.get(key, _MISSING)
        if result is _MISSING:
            result = self._op_cache[key] = build()
        return result

    def start_request(self):
        """Drop the memo entries whose key names an ideal or an element:
        keys of strings and integers alone stay."""
        self._op_cache = {
            key: value for key, value in self._op_cache.items()
            if all(isinstance(part, (str, int)) for part in key)
        }

    def m_power(self, k: int) -> "IdealHandle":
        """The k-th power of the maximal ideal, generated by the degree-k
        monomials (k = 0 gives the unit ideal, for internal bootstrapping)."""
        if k < 0:
            raise IdealcalcError("negative power of the maximal ideal")
        return self.memo(("m-power", k), lambda: self.ideal(
            [self.ambient.monomial(m) for m in monomials_of_degree(self.ambient.nvars, k)]
        ))

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of a lift modulo the relations."""
        return normal_form(f, self.gbJ) if self.relations else f

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.ambient is self.ambient
            and other.relations == self.relations
        )

    def __hash__(self):
        return hash((self.ambient, self.relations))

    def __repr__(self):
        rel = ", ".join(str(f) for f in self.relations) or "0"
        return f"QuotientRing({self.ambient!r} / ({rel}))"


class IdealHandle:
    """Ideal of R given by lifted generators, with cached reduced GB of
    (generators + relations)."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: QuotientRing, gens: Sequence[Polynomial]):
        self.ring = ring
        checked = []
        for g in gens:
            if g.ring is not ring.ambient:
                raise RingMismatchError("generator from a different ring")
            if g:
                checked.append(g)
        self.gens = tuple(checked)
        self._gb: GroebnerBasis | None = None

    @classmethod
    def _with_basis(cls, ring: QuotientRing, gb: GroebnerBasis) -> "IdealHandle":
        """Handle on an ideal that contains the relations and whose reduced
        basis is already known."""
        handle = cls(ring, gb.basis)
        handle._gb = gb
        return handle

    @property
    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            gens = list(self.gens) + list(self.ring.relations)
            if gens:
                self._gb = buchberger(gens, degree_cap=self.ring.degree_cap)
            else:
                self._gb = GroebnerBasis(self.ring.ambient, ())
        return self._gb

    def effective_gens(self) -> list[Polynomial]:
        """Basis elements that survive modulo the relations (nonzero in R)."""
        return [g for g in self.gb.basis if self.ring.reduce(g)]

    def contains_unit_local(self) -> bool:
        # C is the unit ideal locally iff C is not inside m, iff some reduced
        # basis element has a nonzero constant term.
        zero = self.ring.ambient.field.zero
        return any(g.constant_term != zero for g in self.gb.basis)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens) or "0"
        return f"IdealHandle({gens})"


def _check_same_ring(A: IdealHandle, B: IdealHandle):
    if A.ring != B.ring:
        raise RingMismatchError("ideals live in different rings")


class QuotientView(NamedTuple):
    """P/N for an ideal N of P that contains a power of m: the standard
    monomials of N.gb, numbered, and the maps M_{x_i} of multiplication by
    each variable, maps[i][k] the coordinates of x_i times standard
    monomial k.  A vector is a sparse dict {number: coefficient}."""

    ideal: IdealHandle
    std: list[Monomial]
    index: dict[Monomial, int]
    maps: list[list[dict]]

    def times(self, b: Polynomial, vector: dict) -> dict:
        """The coordinates of b·v, read off the maps with no normal form."""
        p, out = b.ring.characteristic, {}
        for m, c in b.terms:
            v = vector
            for i, e in enumerate(m):
                for _ in range(e):
                    v = _apply(self.maps[i], v, p)
            _add_into(out, v, c, p)
        return out

    def images(self, b: Polynomial) -> list[dict]:
        """The matrix of b· on P/N, one row per standard monomial."""
        one = b.ring.field.one
        return [self.times(b, {k: one}) for k in range(len(self.std))]

    def colon(self, b: Polynomial) -> IdealHandle:
        """N : b in P, N plus the lifts of the kernel of b· on P/N."""
        N, amb = self.ideal, self.ideal.ring.ambient
        kernel = _kernel(self.images(b), amb.field)
        if not kernel:
            return N
        lifts = [amb.from_dict({self.std[k]: c for k, c in v.items()}) for v in kernel]
        gb = buchberger([*N.gb.basis, *lifts], degree_cap=N.ring.degree_cap)
        return IdealHandle._with_basis(N.ring, gb)


def _apply(matrix: list[dict], vector: dict, p: int) -> dict:
    """matrix times vector, the matrix given by the images of the unit vectors."""
    out: dict = {}
    for k, a in vector.items():
        _add_into(out, matrix[k], a, p)
    return out


def _add_into(out: dict, vector: dict, c, p: int):
    """out += c·vector, dropping the coordinates that cancel."""
    for k, a in vector.items():
        s = out.get(k, 0) + c * a
        if p:
            s %= p
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def _quotient_view(N: IdealHandle) -> QuotientView | None:
    """The view of P/N, or None unless N contains a power of m.

    That holds exactly when N.gb has finitely many standard monomials (a
    pure power of each variable is a lead) and every variable is nilpotent
    on P/N.  The normal forms of x_i * u for standard u list them all, and
    are the columns of the maps.
    """
    amb = N.ring.ambient
    leads = [g.lead_monomial for g in N.gb.basis]
    if len({m.index(max(m)) for m in leads if max(m) == sum(m) > 0}) < amb.nvars:
        return None
    std = [amb.one().lead_monomial]
    index = {std[0]: 0}
    maps: list[list[dict]] = [[] for _ in range(amb.nvars)]
    for u in std:  # std grows while it is read, until closed under the x_i
        for x, matrix in zip(amb.gens(), maps):
            image = {}
            for v, c in normal_form(x * amb.monomial(u), N.gb).terms:
                if v not in index:
                    index[v] = len(std)
                    std.append(v)
                image[index[v]] = c
            matrix.append(image)
    # x is nilpotent on P/N iff x^λ lies in N, λ = len(std).
    p = amb.characteristic
    for matrix in maps:
        power = {0: amb.field.one}
        for _ in std:
            power = _apply(matrix, power, p)
            if not power:
                break
        else:
            return None
    return QuotientView(N, std, index, maps)


def quotient_view(N: IdealHandle) -> QuotientView | None:
    """`_quotient_view(N)`, kept by the ring's memo for the request: the
    colons, memberships and ranks of one N share it."""
    return N.ring.memo(("quotient-view", N.gb.basis), lambda: _quotient_view(N))


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
            _add_into(row, pivot, -row[col], p)
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


def ideal_product(A: IdealHandle, B: IdealHandle) -> IdealHandle:
    """Product ideal, generated by pairwise products of effective generators."""
    _check_same_ring(A, B)

    def build():
        gens_a = A.effective_gens() or list(A.gens)
        gens_b = B.effective_gens() or list(B.gens)
        return IdealHandle(A.ring, [a * b for a in gens_a for b in gens_b])

    return A.ring.memo(("product", frozenset((A.gb.basis, B.gb.basis))), build)


def times_m_power(A: IdealHandle, n: int) -> IdealHandle:
    """A * m^n, the ideals whose fullness the asymptotic indices track."""
    if n == 0:
        return A
    return ideal_product(A, A.ring.m_power(n))


def ideal_intersection(A: IdealHandle, B: IdealHandle) -> IdealHandle:
    """Intersection of the lifted ideals A + J and B + J, by the tag-variable
    elimination of `_intersect_lifts` on their reduced bases."""
    _check_same_ring(A, B)
    ring = A.ring
    gens_a = list(A.gb.basis)
    gens_b = list(B.gb.basis)
    if not gens_a or not gens_b:
        return ring.zero_ideal()

    def build():
        # Both lifts contain the relations, and the survivors are the
        # reduced basis of the intersection.
        inter = _intersect_lifts(ring.ambient, gens_a, gens_b, ring.degree_cap)
        return IdealHandle._with_basis(ring, GroebnerBasis(ring.ambient, inter))

    return ring.memo(("intersection", frozenset((A.gb.basis, B.gb.basis))), build)


def _intersect_lifts(
    ring: PolyRing,
    gens_a: Sequence[Polynomial],
    gens_b: Sequence[Polynomial],
    degree_cap: int,
) -> list[Polynomial]:
    """The reduced degrevlex basis of A ∩ B, A = (gens_a) and B = (gens_b).

    Each list must be a degrevlex Groebner basis of its ideal, or a single
    polynomial.  Then its homogenization by a fresh last variable h
    generates the homogenization of its ideal, and A^h ∩ B^h = (A ∩ B)^h,
    which is ( w·A^h + (1-w)·B^h ) ∩ P[h] for a fresh tag variable w.  The
    elimination runs on input homogeneous in (x, h), so its survivors are
    the reduced basis of (A ∩ B)^h.  No lead involves h, because that ideal
    is saturated by h, so at h = 1 they are the reduced basis of A ∩ B
    (Cox, Little & O'Shea, ch. 8 §4).
    """
    aux, h = _fresh_name("w", ring.variables), _fresh_name("h", ring.variables)
    ext = PolyRing((aux, *ring.variables, h), ring.field, MonomialOrder.elimination(1))
    w = ext.gen(aux)
    one_minus_w = ext.one() - w

    def homogenized(g):
        d = g.total_degree
        return ext.from_dict({(0, *m, d - sum(m)): c for m, c in g.terms})

    mixed = [w * homogenized(g) for g in gens_a]
    mixed += [one_minus_w * homogenized(g) for g in gens_b]
    survivors = eliminate(mixed, [aux], degree_cap)
    return [ring.from_dict({m[1:-1]: c for m, c in g.terms}) for g in survivors]


def _colon_single(
    numerator_basis: Sequence[Polynomial], b: Polynomial, degree_cap: int
) -> GroebnerBasis:
    """Reduced basis of (N : b) in P for a single nonzero b and a degrevlex
    Groebner basis of N, via (N ∩ (b)) · b^{-1}.  The quotients of a
    Groebner basis of N ∩ (b) by b form a Groebner basis of N : b, since
    lead monomials are multiplicative."""
    inter = _intersect_lifts(b.ring, numerator_basis, [b], degree_cap) if numerator_basis else []
    return reduce_basis(b.ring, [_exact_divide(g, b) for g in inter])


def _exact_divide(f: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient f/b when b divides f exactly (f is in (b))."""
    ring = f.ring
    field = ring.field
    q_terms: dict = {}
    rest = f
    lb, cb = b.lead_monomial, b.lead_coeff
    while rest:
        lm, lc = rest.lead_monomial, rest.lead_coeff
        if not lb.divides(lm):
            raise IdealcalcError("exact division failed; intersection was not a multiple")
        m = lm.div(lb)
        c = field.div(lc, cb)
        q_terms[m] = field.add(q_terms.get(m, field.zero), c)
        rest = rest - b.mul_term(m, c)
    return ring.from_dict(q_terms)


def ideal_colon(A: IdealHandle, B: IdealHandle) -> IdealHandle:
    """(A :_R B) = ∩_{b in gens(B)} ((A+J) :_P b), mapped back to R.  Each
    A : b is a kernel on P/A when A contains a power of m, and the
    tag-variable colon otherwise."""
    _check_same_ring(A, B)
    ring = A.ring
    gens_b = [g for g in B.gens if ring.reduce(g)]
    if not gens_b:
        raise IdealcalcError("colon by the zero ideal")

    def build():
        view = quotient_view(A)
        result: IdealHandle | None = None
        for b in gens_b:
            if view is None:
                cb = IdealHandle._with_basis(ring, _colon_single(A.gb.basis, b, ring.degree_cap))
            else:
                cb = view.colon(b)
            result = cb if result is None else ideal_intersection(result, cb)
        assert result is not None
        return result

    return ring.memo(("colon", A.gb.basis, B.gb.basis), build)


def ideal_contains_local(B: IdealHandle, f: Polynomial) -> bool:
    """Does f belong to B after localization at m?

    Global membership (zero normal form) is checked first; when B contains
    a power of m it is the answer.  Otherwise f ∈ B_m iff u·f ∈ B for some
    u with constant term 1; writing u = 1 - v with v ∈ m, that is iff
    f ∈ B + m·f, a global membership test.
    """
    if f.ring is not B.ring.ambient:
        raise RingMismatchError("element from a different ring")
    if normal_form(f, B.gb).is_zero():
        return True
    if quotient_view(B) is not None:
        return False

    def build():
        widened = list(B.gb.basis) + [x * f for x in f.ring.gens()]
        return normal_form(f, buchberger(widened, degree_cap=B.ring.degree_cap)).is_zero()

    return B.ring.memo(("contains", B.gb.basis, f), build)


def ideal_contains_local_ideal(B: IdealHandle, A: IdealHandle) -> bool:
    """A ⊆ B after localization at m."""
    _check_same_ring(A, B)
    return all(ideal_contains_local(B, g) for g in A.gb.basis)


def ideal_equal_local(A: IdealHandle, B: IdealHandle) -> bool:
    """Do A and B generate the same ideal of the localization at m?"""
    _check_same_ring(A, B)
    if A.gb.basis == B.gb.basis:
        return True
    return ideal_contains_local_ideal(B, A) and ideal_contains_local_ideal(A, B)


def is_nonzerodivisor(f: Polynomial, ring: QuotientRing) -> bool:
    """Is f a regular element of the local ring?

    Tested as (J :_P f) ⊆ J after localization; elements that become zero in
    R are rejected.  Units are trivially regular.
    """
    if f.ring is not ring.ambient:
        raise RingMismatchError("element from a different ring")
    fbar = ring.reduce(f)
    if fbar.is_zero():
        raise IdealcalcError("zero element: regularity is undefined for 0")
    if not ring.relations:
        return True
    annihilator = IdealHandle._with_basis(ring, _colon_single(list(ring.gbJ.basis), f, ring.degree_cap))
    return ideal_equal_local(annihilator, ring.zero_ideal())
