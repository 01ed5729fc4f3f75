"""Reduction numbers, Ratliff-Rush closures, and the asymptotic fullness
indices n1, n2, n3.

For a reduction I of the maximal ideal m (meaning I m^r = m^{r+1} for some
r), the indices satisfy

    n2(I) <= n3(I) = n1(I) = alpha,   alpha = max(r_I(m), s(m) - 1),

where s(m) is the least power from which all m-powers are Ratliff-Rush
closed.  This equality is what lets a finite scan certify quantities that
are defined by "for all n >= t": the n2 scan only needs the window
[0, alpha] because m-fullness of I m^n forces fullness of I m^{n+1}.

r is read off G(m) = P/J*: it is the top degree of G(m)/L G(m), L the
linear parts of I's generators (Northcott and Rees 1954).  The s-scan
stops at a certified rho >= reg G(m): s - 1 <= n1 <= reg R(m) = reg G(m)
(Trung, Trans. AMS 1998), so every power that is not closed is at most
rho.  The same bound makes each Ratliff-Rush closure exact: m^(rho+1) is
closed, so the closure of m^n lies in m^(rho+1) : x^(rho+1-n) for any x in
m, which is one kernel on standard monomials, and a normal-form check that
it times m^j lies in m^(n+j) proves the reverse inclusion when x is
superficial (Rossi and Swanson, Contemp. Math. 331, 2003).  The exact
downstream cross-check (weak m-fullness must fail at alpha - 1)
revalidates alpha, and reports carry explicit certification flags.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache
from itertools import chain
from math import comb
from typing import NamedTuple

from .fullness import (
    DEFAULT_TRIALS,
    GenericElementPolicy,
    PredicateResult,
    is_full,
    is_m_full,
    is_weakly_m_full,
    sample_linear_form,
)
from .groebner import DegreeCapExceeded, GroebnerBasis, buchberger, eliminate, normal_form
from .idealcalc import (
    IdealHandle,
    QuotientRing,
    _fresh_name,
    _kernel,
    _rank,
    ideal_colon,
    ideal_equal_local,
    ideal_product,
    is_nonzerodivisor,
    quotient_view,
)
from .polyring import Monomial, MonomialOrder, PolyRing, Polynomial, PolyringError, monomials_of_degree


class InvariantError(PolyringError):
    """Base class for mathematical failures (CLI exit code 2)."""


class NotAReductionError(InvariantError):
    pass


class DepthProbeError(InvariantError):
    pass


class ChainCapExceeded(InvariantError):
    pass


def depth_witness(ring: QuotientRing) -> Polynomial:
    """A verified regular linear form in m, kept by the ring; it is drawn
    from an rng seeded by the presentation alone, not the request.  Raises
    DepthProbeError if the DEFAULT_TRIALS candidates all fail (depth 0, or
    bad luck)."""

    def probe() -> Polynomial:
        rng = GenericElementPolicy().rng(f"depth-probe:{ring!r}")
        for _ in range(DEFAULT_TRIALS):
            ell = sample_linear_form(ring, rng)
            if is_nonzerodivisor(ell, ring):
                return ell
        raise DepthProbeError(
            f"no regular linear form found in m after {DEFAULT_TRIALS} trials; "
            "the positive-depth hypothesis looks violated"
        )

    return ring.memo(("depth-witness",), probe)


def tangent_cone(ring: QuotientRing) -> GroebnerBasis:
    """Reduced basis of J*, the ideal of the lowest-degree forms of J, so
    that G(m) = P/J*: ((f(t x) : f in J) : t^inf) at t = 0, the saturation
    one elimination of w from (f(t x), 1 - t w) in (w | t, x…).  Kept by
    the ring."""
    amb = ring.ambient

    def build() -> GroebnerBasis:
        if not ring.relations:
            return GroebnerBasis(amb, ())
        w, t = _fresh_name("w", amb.variables), _fresh_name("t", amb.variables)
        ext = PolyRing((w, t, *amb.variables), amb.field, MonomialOrder.elimination(1))
        gens = [ext.from_dict({Monomial((0, sum(m), *m)): c for m, c in f.terms}) for f in ring.relations]
        saturated = eliminate(gens + [ext.one() - ext.gen(t) * ext.gen(w)], ring.degree_cap)
        at_zero = [amb.from_dict({Monomial(m[2:]): c for m, c in g.terms if not m[1]}) for g in saturated]
        return buchberger(at_zero, degree_cap=ring.degree_cap)

    return ring.memo(("tangent-cone",), build)


def regularity_bound(cone: GroebnerBasis, forms: Iterator[Polynomial], degree_cap: int) -> int:
    """A certified rho >= reg P/J* for the reduced basis `cone` of a
    homogeneous ideal J*, by Bayer and Stillman (Invent. Math. 1987, Thm
    1.10(b)).  Let d be at least the top degree of a minimal generator.  If
    forms h_1, h_2, ... are each injective from degree d to d + 1 of
    P/(J*, h_1..h_(i-1)) until that quotient is zero in degree d, then
    reg J* <= d and rho = d - 1.  Each test is a rank on standard monomials.
    Any forms are sound: one that fails is not used, and up to
    DEFAULT_TRIALS are drawn for each place of the sequence; unlucky draws
    only make rho larger."""
    amb, leads = cone.ring, [g.lead_monomial for g in cone.basis]
    if not leads:
        return 0

    @cache
    def std(e: int) -> list[Monomial]:  # ascending, the row order the ranks fill in least
        degree_e = monomials_of_degree(amb.nvars, e)
        return sorted(u for u in degree_e if not any(v.divides(u) for v in leads))

    def rank(rows: list[dict]) -> int:
        return _rank([dict(row) for row in rows], amb.field)

    def images(h: Polynomial, e: int) -> list[dict]:  # h * std(e - 1), on std(e)
        return [dict(normal_form(h * amb.monomial(u), cone).terms) for u in std(e - 1)]

    def generates(e: int) -> bool:  # is J*_e more than m J*_(e-1)?
        inside = [amb.monomial(u) for u in monomials_of_degree(amb.nvars, e - 1) if u not in std(e - 1)]
        rows = [dict((x * (u - normal_form(u, cone))).terms) for u in inside for x in amb.gens()]
        return rank(rows) < comb(e + amb.nvars - 1, e) - len(std(e))

    def certifies(d: int) -> bool:
        low, high, high_rank = [], [], 0  # the rows of (h_1..h_(i-1)) in degrees d, d + 1
        # left, the quotient's dimension in degree d, falls with each injective h;
        # a form that is not injective is dropped, and the next one drawn
        while left := len(std(d)) - rank(low):
            for _ in range(DEFAULT_TRIALS):
                h = next(forms)
                if rank(high + (h_high := images(h, d + 1))) - high_rank == left:
                    break
            else:
                return False
            low, high = low + images(h, d), high + h_high
            high_rank += left
        return True

    # Only the degrees of basis elements can hold a minimal generator.
    d = next(e for e in sorted({g.total_degree for g in cone.basis}, reverse=True) if generates(e))
    while not certifies(d):
        d += 1
        if d > degree_cap:
            raise DegreeCapExceeded(d, degree_cap)
    return d - 1


def reg_G_upper(ring: QuotientRing) -> int:
    """`regularity_bound` of the tangent cone, kept by the ring; its forms
    come from an rng seeded by the presentation alone, not the request."""

    def build() -> int:
        rng = GenericElementPolicy().rng(f"reg-G:{ring!r}")
        forms = iter(lambda: sample_linear_form(ring, rng), None)
        return regularity_bound(tangent_cone(ring), forms, ring.degree_cap)

    return ring.memo(("reg-G-upper",), build)


class ReductionCertificate(NamedTuple):
    """Witness that I m^r = m^{r+1} locally, with r minimal."""

    ideal: IdealHandle
    r: int
    checked_up_to: int


def _contains_m_power(K: IdealHandle, k: int) -> bool:
    """Does m^k lie in K in P?  Checked by normal forms of the degree-k
    monomials.

    Callers pass an ideal that contains a power of m, so it is m-primary
    and the answer is the same in the local ring.  By Nakayama, m^k lies in
    an ideal A locally iff it lies in A + m^(k+1), which is how a question
    about an arbitrary A becomes one about such an ideal.
    """
    return all(normal_form(g, K.gb).is_zero() for g in K.ring.m_power(k).gens)


def _ladder(I: IdealHandle, n: int, c: int) -> IdealHandle:
    """The rung I m^n + m^(n+c) of I's truncated ladder: rung 0 is I + m^c
    and rung n is rung n-1 times m, the product m-fullness takes of it.
    Rungs contain a power of m, so their bases stay small.  The ring's memo
    keeps them for the request: the table (c = r + 1) and `verify` share
    them."""
    ring = I.ring

    def build() -> IdealHandle:
        if n == 0:
            return IdealHandle(ring, list(I.gens) + list(ring.m_power(c).gens))
        return ideal_product(_ladder(I, n - 1, c), ring.maximal_ideal())

    return ring.memo(("ladder", I.gb.basis, n, c), build)


def reduction_number(I: IdealHandle) -> ReductionCertificate:
    """Least r with I m^r = m^{r+1} locally.

    Let L be the linear parts of I's generators.  In G(m) = P/J*, the image
    of I m^k + m^(k+2) in G_(k+1) is L G_k, so by Nakayama the equality at
    k says that P/(J* + L) is zero in degree k + 1.  That quotient is
    standard graded: I is a reduction iff it has finite length, that is,
    iff the leads of one Groebner basis of J* + L hold a pure power of
    every variable, and then r is the top degree of its standard monomials
    (Northcott and Rees 1954).  `_table_rows` checks r again on its rungs.
    """
    ring, amb = I.ring, I.ring.ambient
    for g in I.gens:
        if ring.reduce(g).constant_term != amb.field.zero:
            raise NotAReductionError("ideal is not contained in the maximal ideal")
    linear = [amb.from_dict({u: c for u, c in g.terms if sum(u) == 1}) for g in I.gens]
    gens = [*tangent_cone(ring).basis, *filter(None, linear)]
    leads = [g.lead_monomial for g in buchberger(gens, ring.degree_cap).basis] if gens else []
    if not all(any(u[i] == sum(u) > 0 for u in leads) for i in range(amb.nvars)):
        raise NotAReductionError(
            "not a reduction of m: G(m)/L G(m) has infinite length, L the linear parts of the generators"
        )
    r = 0
    while any(not any(v.divides(u) for v in leads) for u in monomials_of_degree(amb.nvars, r + 1)):
        r += 1
    return ReductionCertificate(I, r, checked_up_to=r + 1)


class RRChainRecord(NamedTuple):
    """The Ratliff-Rush closure of m^n with its certificate: the closure
    times m^j lies in m^(n+j), and j is the least such power, so j = 0
    exactly when m^n is closed.  It reads as a chain of one term that
    stabilizes at once: `chain` and `stabilized_at` remain only because the
    benchmark's tracer counts chain terms through them."""

    n: int
    stable_value: IdealHandle
    j: int
    stabilized_at = 1

    @property
    def chain(self) -> tuple[IdealHandle, ...]:
        return (self.stable_value,)


def _certified_closure(ring: QuotientRing, n: int, x: Polynomial) -> RRChainRecord | None:
    """The closure of m^n: m^n itself if n > rho, else K = (J + m^N) :
    x^(N-n) with N = rho + 1 once certified, or None if x fails.

    m^N is closed (s <= rho + 1), so for any x in m the closure of m^n
    times x^(N-n) lies in m^N: the closure lies in K.  K contains J + m^n,
    and K / (J + m^n) is the kernel of v -> x^(N-n) v from P/(J + m^n) to
    P/(J + m^N), a kernel on standard monomials whose images are read off
    the maps of the quotient view of J + m^N.  If K m^j lies in m^(n+j)
    for some j, K lies in the closure, so it is the closure.  The closure
    is m^N : m^(N-n), so j = N - n is the last to try: K passes there iff
    it is the closure, which a superficial x always gives (Heinzer, Lantz
    and Shah 1992).
    """
    N, amb, low = reg_G_upper(ring) + 1, ring.ambient, ring.m_power(n)
    if n >= N:
        return RRChainRecord(n, low, 0)
    high = ring.m_power(N)
    domain, target = quotient_view(low).std, quotient_view(high)
    images = [{target.index[u]: 1} for u in domain]
    for _ in range(N - n):
        images = target.times(x, images)
    kernel = _kernel(images, amb.field)
    lifts = [amb.from_dict({domain[i]: c for i, c in vector.items()}) for vector in kernel]
    closure = IdealHandle(ring, [*low.gb.basis, *lifts]) if lifts else low
    for j in range(N - n + 1):
        top = ring.m_power(n + j).gb
        if all(
            normal_form(g * amb.monomial(w), top).is_zero()
            for w in monomials_of_degree(amb.nvars, j) for g in lifts
        ):
            return RRChainRecord(n, closure, j)
    return None


def ratliff_rush_power(ring: QuotientRing, n: int) -> RRChainRecord:
    """The Ratliff-Rush closure of m^n, exact and certified.

    Powers above rho = `reg_G_upper` are closed; the others take one kernel
    on standard monomials (`_certified_closure`), with the depth witness as
    x and then up to DEFAULT_TRIALS forms drawn from a seed of the
    presentation, until one is certified; if none is, ChainCapExceeded is
    raised.  Records depend on the ring alone and are kept by it.
    """
    if n < 1:
        raise InvariantError("ratliff_rush_power needs a positive power")
    x = depth_witness(ring)

    def build() -> RRChainRecord:
        rng = GenericElementPolicy().rng(f"rr:{n}:{ring!r}")
        drawn = (sample_linear_form(ring, rng) for _ in range(DEFAULT_TRIALS))
        for w in chain([x], drawn):
            if record := _certified_closure(ring, n, w):
                return record
        raise ChainCapExceeded(
            f"no certificate for the closure of m^{n}: the depth witness and "
            f"{DEFAULT_TRIALS} drawn forms are not superficial"
        )

    return ring.memo(("rr", n), build)


class SIndexResult(NamedTuple):
    """Least power from which all computed m-powers are Ratliff-Rush closed."""

    s: int
    certified_up_to: int
    records: tuple[RRChainRecord, ...]


def s_index(ring: QuotientRing, bound: int) -> SIndexResult:
    """Scan i = 1..bound; s = 1 + the largest i whose power is not closed
    (or 1 if all are closed).  Values beyond the bound are unverified."""
    if bound < 1:
        raise InvariantError("s_index needs a positive bound")
    records = []
    s = 1
    for i in range(1, bound + 1):
        record = ratliff_rush_power(ring, i)
        records.append(record)
        if record.j:
            s = i + 1
    return SIndexResult(s=s, certified_up_to=bound, records=tuple(records))


class PredicateRow(NamedTuple):
    n: int
    m_full: PredicateResult
    full: PredicateResult
    weakly_m_full: PredicateResult


class DaoReport(NamedTuple):
    """Complete record of one asymptotic-fullness computation."""

    r: int
    s: int
    s_certified_up_to: int
    alpha: int
    n1: int
    n2: int
    n3: int
    n2_certified: bool
    predicate_table: tuple[PredicateRow, ...]
    flags: dict
    reg_G_upper: int
    reg_bound: int | None = None
    reg_bound_consistent: bool | None = None

    @property
    def alpha_validated(self) -> bool:
        return self.flags.get("alpha_validated", False)


def _table_full(I: IdealHandle, n: int, r: int, policy: GenericElementPolicy) -> PredicateResult:
    return is_full(_ladder(I, n, r + 1), policy.derive(f"table:full:{n}"))


def _table_rows(
    I: IdealHandle, r: int, policy: GenericElementPolicy, ns: Iterable[int]
) -> list[PredicateRow]:
    """Predicate rows of the ideals I m^n for n in ns; each sampled entry
    draws from its own `table:` seed, so a row is the same whichever call
    builds it.

    I m^n is read off the ladder as I m^n + m^(n+r+1), the same local ideal:
    m^(n+r+1) = m^n I m^r lies in I m^n.  That rests on r, so r is checked
    again first, by Nakayama on the table's own rungs: m^(r+1) must lie in
    rung r, and for r >= 1 m^r must not lie in rung r - 1.  At r = 0 rung 0
    is I + m, which holds m whatever I is, so I + m^2 is asked instead.  A
    wrong r raises.
    """
    if not _contains_m_power(_ladder(I, r, max(r + 1, 2)), r + 1) or (
        r and _contains_m_power(_ladder(I, r - 1, r + 1), r)
    ):
        raise InvariantError(
            f"r = {r} is not the least k with I m^k = m^(k+1) locally; "
            "this indicates an engine bug"
        )
    return [
        PredicateRow(
            n=n,
            m_full=is_m_full(_ladder(I, n, r + 1), policy.derive(f"table:m-full:{n}")),
            full=_table_full(I, n, r, policy),
            weakly_m_full=is_weakly_m_full(_ladder(I, n, r + 1)),
        )
        for n in ns
    ]


def dao_numbers(
    I: IdealHandle,
    policy: GenericElementPolicy | None = None,
    *,
    known_reg: int | None = None,
) -> DaoReport:
    """The indices n1, n2, n3 for a verified reduction I of m.

    n1 = n3 = alpha = max(r, s-1) exactly; n2 is found by scanning fullness
    of I m^n over n in [0, alpha], which suffices because beyond alpha the
    m-fullness of the previous power forces fullness.  The s-scan covers
    the powers 1..max(rho, 1), rho the ring's `reg_G_upper`, and its
    closures are exact, so s is.  The exact weak-m-full failure at alpha-1
    revalidates alpha.
    """
    ring = I.ring
    policy = policy or GenericElementPolicy()
    depth_witness(ring)
    r = reduction_number(I).r
    bound = max(reg_G_upper(ring), 1)
    s_result = s_index(ring, bound)
    s = s_result.s
    alpha = max(r, s - 1)
    n1 = n3 = alpha

    flags: dict = {
        "presentation": "algebraic-local",
        "seed": policy.seed,
        "trials": policy.trials,
        "s_bound": bound,
        "rr_certified": True,
    }
    table = _table_rows(I, r, policy, range(alpha + 2))

    failing = [row.n for row in table if row.n <= alpha and not row.full.value]
    n2 = (failing[-1] + 1) if failing else 0
    # A failing existential row is never certified, so any nonzero n2 is an
    # upper bound; only the all-true scan (n2 = 0) is exact.
    n2_certified = n2 == 0

    # Exact cross-checks of alpha (weak m-fullness is deterministic).
    alpha_ok = (alpha == 0 or not table[alpha - 1].weakly_m_full.value) and all(
        row.weakly_m_full.value for row in table[alpha:alpha + 2]
    )
    flags["alpha_validated"] = alpha_ok
    if not alpha_ok:
        flags["warning"] = "predicate table contradicts alpha; this indicates an engine bug"
    if n2 > alpha:
        flags["n2_scan_discrepancy"] = True

    reg_consistent = None if known_reg is None else n1 <= known_reg

    return DaoReport(
        r=r,
        s=s,
        s_certified_up_to=s_result.certified_up_to,
        alpha=alpha,
        n1=n1,
        n2=n2,
        n3=n3,
        n2_certified=n2_certified,
        predicate_table=tuple(table),
        flags=flags,
        reg_G_upper=reg_G_upper(ring),
        reg_bound=known_reg,
        reg_bound_consistent=reg_consistent,
    )


class StatementCheck(NamedTuple):
    name: str
    status: str  # HOLDS / VIOLATION / DISCREPANCY-UNCERTIFIED / CONSISTENT / VIOLATION-CANDIDATE / SKIPPED
    detail: str


def verify_statements(
    ring: QuotientRing,
    I: IdealHandle,
    policy: GenericElementPolicy | None = None,
    *,
    assert_dim: int | None = None,
    assert_minimal: bool = False,
    known_reg: int | None = None,
) -> tuple[DaoReport, tuple[StatementCheck, ...]]:
    """Instance-wise verification of the structural statements the engine
    relies on, evaluated on the given ring and reduction.

    The checks read the index report of `dao_numbers` and the ring's
    Ratliff-Rush records up to alpha + 2.  The equivalence check extends
    the table, with the same `table:` seeds, by the row n = alpha + 2 and
    by fullness at alpha + 3; no predicate of a table ideal is sampled twice.

    Statuses never claim a proof: existential predicates can fail only
    probabilistically, so mismatches involving an uncertified False are
    reported as DISCREPANCY-UNCERTIFIED rather than VIOLATION.
    """
    # The harness samples harder than interactive queries do.
    policy = policy or GenericElementPolicy(trials=8)
    report = dao_numbers(I, policy, known_reg=known_reg)
    alpha = report.alpha
    checks: list[StatementCheck] = []

    # m-full forces weakly m-full, power by power.
    bad = [
        row.n
        for row in report.predicate_table
        if row.m_full.value and not row.weakly_m_full.value
    ]
    checks.append(
        StatementCheck(
            "mfull_implies_weakly_mfull",
            "HOLDS" if not bad else "VIOLATION",
            f"checked n = 0..{alpha + 1}" + (f"; failures at {bad}" if bad else ""),
        )
    )

    # Equivalence: I m^n is m-full  <=>  I m^{n+1} is full and I m^n weakly,
    # over n = 0 .. alpha + 2.  The index table is extended, with its own
    # seeds, by the row alpha + 2 and by fullness at alpha + 3.
    rows = (*report.predicate_table, *_table_rows(I, report.r, policy, [alpha + 2]))
    full = [row.full for row in rows] + [_table_full(I, alpha + 3, report.r, policy)]
    mismatch_hard: list[int] = []
    mismatch_soft: list[int] = []
    for row in rows:
        lhs, full_next = row.m_full, full[row.n + 1]
        rhs_value = full_next.value and row.weakly_m_full.value
        if lhs.value != rhs_value:
            uncertified = (not lhs.value and not lhs.certified) or (
                not full_next.value and not full_next.certified
            )
            (mismatch_soft if uncertified else mismatch_hard).append(row.n)
    status = "HOLDS"
    if mismatch_hard:
        status = "VIOLATION"
    elif mismatch_soft:
        status = "DISCREPANCY-UNCERTIFIED"
    checks.append(
        StatementCheck(
            "full_next_and_weakly_iff_mfull",
            status,
            f"checked n = 0..{alpha + 2}"
            + (f"; hard mismatches {mismatch_hard}" if mismatch_hard else "")
            + (f"; uncertified discrepancies {mismatch_soft}" if mismatch_soft else ""),
        )
    )

    # Index ordering.
    ordering_ok = report.n2 <= report.n3 == report.n1 == alpha
    checks.append(
        StatementCheck(
            "n2_le_n3_eq_n1",
            "HOLDS" if ordering_ok else "VIOLATION",
            f"n1={report.n1}, n2={report.n2}, n3={report.n3}, alpha={alpha}",
        )
    )

    # Colon chains: closing one more power and coloning by m descends.  The
    # ring keeps the records the index report already scanned.
    s_records = s_index(ring, alpha + 2).records
    descend_bad = []
    for lower, upper in zip(s_records, s_records[1:]):
        lhs = ideal_colon(upper.stable_value, ring.maximal_ideal())
        if not ideal_equal_local(lhs, lower.stable_value):
            descend_bad.append(upper.n)
    checks.append(
        StatementCheck(
            "rr_colon_descends",
            "HOLDS" if not descend_bad else "VIOLATION",
            f"checked consecutive closures up to power {s_records[-1].n}"
            + (f"; failures at {descend_bad}" if descend_bad else ""),
        )
    )

    # Case I = m: the formula collapses to n1 = s - 1.
    if ideal_equal_local(I, ring.maximal_ideal()):
        ok = report.r == 0 and report.n1 == report.s - 1
        checks.append(
            StatementCheck(
                "max_ideal_formula",
                "HOLDS" if ok else "VIOLATION",
                f"r={report.r}, s={report.s}, n1={report.n1}",
            )
        )
    else:
        checks.append(
            StatementCheck("max_ideal_formula", "SKIPPED", "ideal is not m")
        )

    # Dimension-one formula (needs user-asserted dimension and minimality).
    if assert_dim == 1 and assert_minimal:
        ok = report.n1 == report.n3 == report.r
        checks.append(
            StatementCheck(
                "dim1_reduction_formula",
                "HOLDS" if ok else "VIOLATION",
                f"n1={report.n1}, r={report.r} (user asserts dim 1, minimal reduction)",
            )
        )
    else:
        checks.append(
            StatementCheck(
                "dim1_reduction_formula",
                "SKIPPED",
                "requires assert_dim=1 and assert_minimal",
            )
        )

    # Conjectural formula n3 = r for minimal reductions in dimension >= 2.
    if assert_minimal and assert_dim is not None and assert_dim >= 2:
        consistent = report.n3 == report.r
        checks.append(
            StatementCheck(
                "n3_equals_reduction_number_conjecture",
                "CONSISTENT" if consistent else "VIOLATION-CANDIDATE",
                f"n3={report.n3}, r={report.r} (user asserts minimality, dim {assert_dim}; "
                "assumes Cohen-Macaulay)",
            )
        )
    else:
        checks.append(
            StatementCheck(
                "n3_equals_reduction_number_conjecture",
                "SKIPPED",
                "requires assert_minimal and assert_dim >= 2",
            )
        )

    # Recorded regularity upper bound.  reg R(m) = reg G(m) <= reg_G_upper,
    # so a recorded value above the certified bound is refuted.
    if known_reg is None:
        rees = ("SKIPPED", "no known_reg supplied")
    elif known_reg > report.reg_G_upper:
        rees = ("VIOLATION", f"known_reg={known_reg} > reg_G_upper={report.reg_G_upper}: "
                "the recorded regularity exceeds the certified bound")
    elif report.reg_bound_consistent:
        rees = ("HOLDS", f"n1={report.n1} <= reg={known_reg}")
    else:
        rees = ("VIOLATION", f"n1={report.n1} > reg={known_reg}")
    checks.append(StatementCheck("rees_regularity_bound", *rees))

    # The certified regularity bound against n1 and a recorded regularity.
    rho, given = report.reg_G_upper, (("n1", report.n1), ("known_reg", known_reg))
    sign = lambda k: "<" if k < rho else "=" if k == rho else ">"  # noqa: E731
    detail = "; ".join(f"{name}={k} {sign(k)} reg_G_upper={rho}" for name, k in given if k is not None)
    status = "HOLDS" if report.n1 <= rho else "VIOLATION"
    checks.append(StatementCheck("n1_le_reg_G_upper", status, detail))

    return report, tuple(checks)
