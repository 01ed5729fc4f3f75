"""Independent brute-force oracles for cross-checking the engine.

Everything here works on raw exponent tuples and plain integers, with no
Groebner machinery: monomial-ideal arithmetic has closed forms (sums for
products, componentwise max for intersections, saturation by gcd for
colons), and low-degree colon membership can be decided by linear algebra
over F_p.  These stay deliberately separate from the library code paths
they validate.

The last six sections are the exception.  Substitution of polynomials
for variables uses the library's polynomial arithmetic.  Division, the
maps of multiplication on P/N and elimination in the field's own
arithmetic (fractions over Q) are the references for the integral division
of `groebner.normal_form`, for the integral maps of `idealcalc.QuotientView`
and for the fraction-free echelon form behind `idealcalc._rank` and
`idealcalc._kernel`.
The plain tag-variable elimination, with no homogenization, is the
reference for the intersections of `idealcalc`, which homogenize before
they eliminate.  The Groebner colon, one such colon per generator and the
intersection of the results, is the reference for the colons of
`idealcalc.ideal_colon`, which are kernels on P/N when N contains a power
of m and come from syzygies otherwise; and the ascending Ratliff-Rush
colon chain m^(n+j) : m^j, built from Groebner colons, is the reference
for the closures of `invariants.ratliff_rush_power`.  The walk up the
ladder I m^k + m^(k+2), by products and normal forms, is the reference for
`invariants.reduction_number`, which reads r off the tangent cone instead.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product

from fullness_lab.groebner import DEFAULT_DEGREE_CAP, eliminate, normal_form, reduce_basis
from fullness_lab.idealcalc import IdealHandle, ideal_equal_local, ideal_product
from fullness_lab.polyring import monomials_of_degree


# -- monomial-ideal arithmetic on exponent tuples ---------------------------

def m_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimalize(monos) -> tuple:
    """Minimal generating set of a monomial ideal, sorted for comparison."""
    monos = sorted(set(monos))
    keep = []
    for m in monos:
        if not any(o != m and m_divides(o, m) for o in monos):
            keep.append(m)
    return tuple(sorted(keep))


def mono_product(A, B) -> tuple:
    return minimalize(tuple(x + y for x, y in zip(a, b)) for a in A for b in B)


def mono_power(A, n: int) -> tuple:
    if n == 0:
        return (tuple([0] * len(A[0])),)
    result = A
    for _ in range(n - 1):
        result = mono_product(result, A)
    return minimalize(result)


def mono_intersection(A, B) -> tuple:
    return minimalize(tuple(max(x, y) for x, y in zip(a, b)) for a in A for b in B)


def mono_colon_single(A, u: tuple) -> tuple:
    # (m_i) : u is generated by m_i / gcd(m_i, u).
    return minimalize(tuple(max(x - y, 0) for x, y in zip(a, u)) for a in A)


def mono_colon(A, B) -> tuple:
    result = None
    for b in B:
        c = mono_colon_single(A, b)
        result = c if result is None else mono_intersection(result, c)
    return result


def random_monomial(rng: random.Random, nvars: int, max_deg: int) -> tuple:
    deg = rng.randint(1, max_deg)
    exps = [0] * nvars
    for _ in range(deg):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_monomial_ideal(rng: random.Random, nvars: int, max_deg: int, max_gens: int) -> tuple:
    gens = {random_monomial(rng, nvars, max_deg) for _ in range(rng.randint(1, max_gens))}
    return minimalize(gens)


# -- linear-algebra colon membership over F_p -------------------------------

def monomials_up_to(nvars: int, max_deg: int) -> list[tuple]:
    out = []
    for exps in iter_product(range(max_deg + 1), repeat=nvars):
        if sum(exps) <= max_deg:
            out.append(tuple(exps))
    out.sort()
    return out


def _rref_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r] if any(v % p for v in row)]


def linear_colon_kernel(
    ideal_gens: tuple, ell: dict, nvars: int, max_deg: int, p: int
) -> list[dict]:
    """Basis of { f : deg f <= max_deg, ell * f in (ideal_gens) } over F_p.

    `ell` maps exponent tuples to coefficients (any polynomial works).
    Membership of a polynomial in a monomial ideal is monomial-wise, so the
    constraint is that every product monomial outside the ideal cancels.
    """
    unknowns = monomials_up_to(nvars, max_deg)
    col_of = {m: i for i, m in enumerate(unknowns)}
    constraint_rows: dict[tuple, list[int]] = {}
    for u in unknowns:
        for lm, lc in ell.items():
            target = tuple(a + b for a, b in zip(u, lm))
            if any(m_divides(g, target) for g in ideal_gens):
                continue
            row = constraint_rows.setdefault(target, [0] * len(unknowns))
            row[col_of[u]] = (row[col_of[u]] + lc) % p
    matrix = _rref_mod_p(list(constraint_rows.values()), p)
    # Kernel extraction: free columns parameterize solutions.
    pivot_cols = {}
    for row in matrix:
        lead = next(i for i, v in enumerate(row) if v % p)
        pivot_cols[lead] = row
    basis = []
    for free in range(len(unknowns)):
        if free in pivot_cols:
            continue
        vec = [0] * len(unknowns)
        vec[free] = 1
        for lead, row in pivot_cols.items():
            vec[lead] = (-row[free]) % p
        basis.append({unknowns[i]: v for i, v in enumerate(vec) if v % p})
    return basis


def poly_in_monomial_ideal(poly: dict, ideal_gens: tuple) -> bool:
    return all(any(m_divides(g, m) for g in ideal_gens) for m in poly)


# -- substitution ---------------------------------------------------------------

def substitute(f, values: dict):
    """f with the polynomials `values[name]` put for the variables they name,
    in their ring; the other variables are kept."""
    target = next(iter(values.values())).ring if values else f.ring
    result = target.zero()
    for m, c in f.terms:
        term = target.constant(c)
        for name, e in zip(f.ring.variables, m):
            if e:
                term = term * (values[name] if name in values else target.gen(name)) ** e
        result = result + term
    return result


# -- division in the field's own arithmetic -----------------------------------

def divide(f, divisors):
    """Remainder of f on full division by the divisors, with the strategy of
    `groebner.normal_form`: the largest term first, each by the first divisor
    of smallest lead whose lead divides it, the quotient c / lead taken in
    the field."""
    ring, field = f.ring, f.ring.field
    divisors = sorted(
        (g for g in divisors if g), key=lambda g: ring.order.desc_key(g.lead_monomial), reverse=True
    )
    work, remainder = dict(f.terms), {}
    while work:
        m = min(work, key=ring.order.desc_key)
        c = work.pop(m)
        g = next((g for g in divisors if g.lead_monomial.divides(m)), None)
        if g is None:
            remainder[m] = c
            continue
        q, shift = field.div(c, g.lead_coeff), m.div(g.lead_monomial)
        for u, cu in g.terms[1:]:
            t = u.mul(shift)
            s = field.sub(work.get(t, field.zero), field.mul(q, cu))
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return ring.from_dict(remainder)


# -- the quotient view in the field's own arithmetic --------------------------

def view_maps(N) -> tuple[list, list]:
    """(std, maps) of P/N for an ideal N that contains a power of m: the
    standard monomials, numbered as `idealcalc.quotient_view` numbers them,
    and the maps M_{x_i} in the field's own arithmetic, maps[i][k] the
    coordinates of the remainder (by `divide`) of x_i times monomial k."""
    amb = N.ring.ambient
    std = [amb.one().lead_monomial]
    index = {std[0]: 0}
    maps = [[] for _ in amb.variables]
    for u in std:
        for x, matrix in zip(amb.gens(), maps):
            image = {}
            for v, c in divide(x * amb.monomial(u), N.gb.basis).terms:
                if v not in index:
                    index[v] = len(std)
                    std.append(v)
                image[index[v]] = c
            matrix.append(image)
    return std, maps


def view_times(maps: list, b, vector: dict) -> dict:
    """The coordinates of b·v on the maps of `view_maps`, in the field's own
    arithmetic."""
    field, out = b.ring.field, {}

    def add_into(target, v, c):
        for k, a in v.items():
            s = field.add(target.get(k, field.zero), field.mul(c, a))
            if s:
                target[k] = s
            else:
                target.pop(k, None)

    for m, c in b.terms:
        v = vector
        for i, e in enumerate(m):
            for _ in range(e):
                image = {}
                for k, a in v.items():
                    add_into(image, maps[i][k], a)
                v = image
        add_into(out, v, c)
    return out


# -- elimination in the field's own arithmetic --------------------------------

def echelon(rows: list[dict], field) -> dict:
    """Echelon form of sparse rows {column: coefficient}, keyed by each
    row's largest column, with monic pivots: each row is reduced on its
    largest column by the pivot there, the multiple taken in the field,
    until it is zero or becomes the pivot of a new column.  The rows are
    consumed."""
    pivots = {}
    for row in rows:
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = field.inv(row[col])
                pivots[col] = {k: field.mul(c, inv) for k, c in row.items()}
                break
            q = row[col]
            for k, c in pivot.items():
                s = field.sub(row.get(k, field.zero), field.mul(q, c))
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    return pivots


def kernel(rows: list[dict], field) -> list[dict]:
    """A basis {i: c} of the combinations of the rows that vanish: row i
    carries the tag column -1 - i, and the pivots on tag columns are the
    kernel."""
    tagged = [{**row, -1 - i: field.one} for i, row in enumerate(rows)]
    return [
        {-1 - k: c for k, c in pivot.items()}
        for col, pivot in echelon(tagged, field).items() if col < 0
    ]


# -- Groebner colons and the Ratliff-Rush colon chain --------------------------

def tag_intersection(ring, gens_a, gens_b, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Reduced basis of (gens_a) ∩ (gens_b) in `ring`, as
    ( w·(gens_a) + (1-w)·(gens_b) ) ∩ ring with a fresh tag variable w
    first in (w | ring's variables), eliminated as it stands."""
    aux = "w"
    while aux in ring.variables:
        aux += "w"
    ext = ring.extend_front([aux])

    def tagged(g, e):  # w^e·g
        return ext.from_dict({(e, *m): c for m, c in g.terms})

    mixed = [tagged(g, 1) for g in gens_a]
    mixed += [tagged(g, 0) - tagged(g, 1) for g in gens_b]
    survivors = eliminate(mixed, degree_cap)
    return reduce_basis(ring, [ring.from_dict({m[1:]: c for m, c in g.terms}) for g in survivors])


def exact_quotient(f, b):
    """f / b when b divides f, by long division on lead terms."""
    ring, field = f.ring, f.ring.field
    quotient = {}
    while f:
        m, c = f.lead_monomial.div(b.lead_monomial), field.div(f.lead_coeff, b.lead_coeff)
        quotient[m] = c
        f = f - b.mul_term(m, c)
    return ring.from_dict(quotient)


def tag_colon(numerator_basis, b, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Reduced basis of N : b for one nonzero b, the quotients by b of the
    basis of N ∩ (b)."""
    inter = tag_intersection(b.ring, numerator_basis, [b], degree_cap)
    return reduce_basis(b.ring, [exact_quotient(g, b) for g in inter.basis])


def groebner_colon(A, B):
    """A : B as the intersection over the generators b of B of the
    tag-variable colons A : b, whatever A is; kept by the ring's memo."""
    ring = A.ring
    amb, cap = ring.ambient, ring.degree_cap

    def build():
        result = None
        for b in (g for g in B.gens if ring.reduce(g)):
            colon = tag_colon(A.gb.basis, b, cap)
            result = colon if result is None else tag_intersection(amb, result.basis, colon.basis, cap)
        return IdealHandle._with_basis(ring, result)

    return ring.memo(("groebner-colon", A.gb.basis, B.gb.basis), build)


def rr_chain(ring, n: int, window: int = 3, j_cap: int = 25) -> list:
    """The terms m^(n+j) : m^j for j = 1, 2, ... up to the first `window`
    equal consecutive ones, whose value is the chain's guess at the closure
    of m^n.  The chain ascends to the closure, but it can pause, so a short
    window can stop below it.  Each term is j Groebner colons by m, which
    the ring's memo shares between chains."""
    chain, matches = [], 1
    for j in range(1, j_cap + 1):
        term = ring.m_power(n + j)
        for _ in range(j):
            term = groebner_colon(term, ring.maximal_ideal())
        matches = matches + 1 if chain and ideal_equal_local(term, chain[-1]) else 1
        chain.append(term)
        if matches >= window:
            return chain
    raise AssertionError(f"no window of {window} equal terms for power {n} within j <= {j_cap}")


# -- the reduction number by the ladder walk --------------------------------

def random_polynomial(rng: random.Random, amb, degrees=(1,)):
    """A polynomial with every monomial of the given degrees; over F_p each
    coefficient is drawn from the whole field (a dense form), over Q it is
    a small fraction, zero about one time in four."""
    p = amb.field.characteristic
    f = amb.zero()
    for d in degrees:
        for u in monomials_of_degree(amb.nvars, d):
            if p:
                c = rng.randrange(p)
            else:
                c = Fraction(rng.randint(-9, 9) * (rng.random() < 0.75), rng.randint(1, 5))
            f = f + amb.constant(c) * amb.monomial(u)
    return f


def reduction_number_by_ladder(I, max_k: int = 6) -> int:
    """The least k with m^(k+1) inside the rung T_k = I m^k + m^(k+2) of P,
    T_k = T_(k-1) m, decided by normal forms: by Nakayama that is
    I m^k = m^(k+1) locally.  An AssertionError means no k <= max_k
    passed, which is how a non-reduction shows here."""
    ring = I.ring
    rung = IdealHandle(ring, [*I.gens, *ring.m_power(2).gens])
    for k in range(max_k + 1):
        if all(normal_form(g, rung.gb).is_zero() for g in ring.m_power(k + 1).gens):
            return k
        rung = ideal_product(rung, ring.maximal_ideal())
    raise AssertionError(f"no reduction equality for k <= {max_k}")
