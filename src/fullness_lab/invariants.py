"""Reduction numbers, Ratliff-Rush closures, and the asymptotic fullness
indices n1, n2, n3.

For a reduction I of the maximal ideal m (meaning I m^r = m^{r+1} for some
r), the indices satisfy

    n2(I) <= n3(I) = n1(I) = alpha,   alpha = max(r_I(m), s(m) - 1),

where s(m) is the least power from which all m-powers are Ratliff-Rush
closed.  This equality is what lets a finite scan certify quantities that
are defined by "for all n >= t": the n2 scan only needs the window
[0, alpha] because m-fullness of I m^n forces fullness of I m^{n+1}.

Ratliff-Rush closures are computed as stable values of the ascending colon
chain m^{n+j} : m^j.  Chain stabilization is detected by a window of equal
consecutive terms, which is a heuristic (colon chains can pause); the exact
downstream cross-check (weak m-fullness must fail at alpha - 1) is used to
validate alpha, and reports carry explicit certification flags.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

from .fullness import (
    GenericElementPolicy,
    PredicateResult,
    is_full,
    is_m_full,
    is_weakly_m_full,
    sample_linear_form,
)
from .groebner import normal_form
from .idealcalc import (
    IdealHandle,
    QuotientRing,
    ideal_colon,
    ideal_contains_local_ideal,
    ideal_equal_local,
    ideal_power,
    ideal_product,
    is_nonzerodivisor,
)
from .polyring import Polynomial, PolyringError

DEFAULT_RR_WINDOW = 3
DEFAULT_RR_JCAP = 25
DEFAULT_MAX_ITER = 50
DEFAULT_S_SAFETY = 4
DEFAULT_S_BOUND_FLOOR = 8


class InvariantError(PolyringError):
    """Base class for mathematical failures (CLI exit code 2)."""


class NotAReductionError(InvariantError):
    pass


class DepthProbeError(InvariantError):
    pass


class ChainCapExceeded(InvariantError):
    pass


# Per-ring caches for m-power colon chains; rings are immutable so cached
# results stay valid for the ring's lifetime.
_RING_CACHES: "weakref.WeakKeyDictionary[QuotientRing, dict]" = weakref.WeakKeyDictionary()


def _ring_cache(ring: QuotientRing) -> dict:
    cache = _RING_CACHES.get(ring)
    if cache is None:
        cache = {"m_colon": {}, "depth_witness": None}
        _RING_CACHES[ring] = cache
    return cache


def _m_power_colon(ring: QuotientRing, a: int, b: int) -> IdealHandle:
    """m^a : m^b, computed as an iterated colon and cached per ring."""
    cache = _ring_cache(ring)["m_colon"]
    known = b
    while known > 0 and (a, known) not in cache:
        known -= 1
    current = ring.m_power(a) if known == 0 else cache[(a, known)]
    m = ring.maximal_ideal()
    for step in range(known + 1, b + 1):
        current = ideal_colon(current, m)
        cache[(a, step)] = current
    return current


def depth_witness(ring: QuotientRing, policy: GenericElementPolicy | None = None) -> Polynomial:
    """A verified regular linear form in m; raises DepthProbeError if the
    sampled candidates all fail (depth 0, or bad luck)."""
    cache = _ring_cache(ring)
    if cache["depth_witness"] is not None:
        return cache["depth_witness"]
    policy = policy or GenericElementPolicy()
    rng = policy.rng("depth-probe")
    failures = 0
    for _ in range(max(policy.trials, 3)):
        ell = sample_linear_form(ring, rng)
        if is_nonzerodivisor(ell, ring):
            cache["depth_witness"] = ell
            return ell
        failures += 1
    raise DepthProbeError(
        f"no regular linear form found in m after {failures} trials; "
        "the positive-depth hypothesis looks violated"
    )


@dataclass(frozen=True)
class ReductionCertificate:
    """Witness that I m^r = m^{r+1} locally, with r minimal."""

    ideal: IdealHandle
    r: int
    checked_up_to: int


def reduction_number(I: IdealHandle, max_iter: int = DEFAULT_MAX_ITER) -> ReductionCertificate:
    """Least r with I m^r = m^{r+1} locally.

    Once the equality holds at r it holds at every larger power (multiply by
    m), so the returned certificate is exact; stability at r+1 is verified
    explicitly as a sanity check.
    """
    ring = I.ring
    for g in I.gens:
        if ring.reduce(g).constant_term != ring.ambient.field.zero:
            raise NotAReductionError("ideal is not contained in the maximal ideal")
    if not any(ring.reduce(g) for g in I.gens):
        raise NotAReductionError("the zero ideal is not a reduction of m")
    current = I  # I * m^k
    for k in range(max_iter + 1):
        if ideal_equal_local(current, ring.m_power(k + 1)):
            nxt = ideal_product(current, ring.maximal_ideal())
            if not ideal_equal_local(nxt, ring.m_power(k + 2)):
                raise InvariantError(
                    "reduction equality did not propagate to the next power; "
                    "this indicates an engine bug"
                )
            return ReductionCertificate(I, k, checked_up_to=k + 1)
        current = ideal_product(current, ring.maximal_ideal())
    raise NotAReductionError(
        f"not detected as reduction within max_iter = {max_iter}"
    )


@dataclass(frozen=True)
class RRChainRecord:
    """The ascending chain B^{n+j} : B^j with its stabilization evidence."""

    n: int
    chain: tuple[IdealHandle, ...]
    stable_value: IdealHandle
    window: int
    certified: bool
    stabilized_at: int
    base_is_maximal: bool = True


def ratliff_rush_power(
    ring: QuotientRing,
    n: int,
    window: int = DEFAULT_RR_WINDOW,
    j_cap: int = DEFAULT_RR_JCAP,
    policy: GenericElementPolicy | None = None,
    base: IdealHandle | None = None,
) -> RRChainRecord:
    """Candidate Ratliff-Rush closure of m^n (or of base^n) as the stable
    value of the ascending colon chain.

    The chain is provably increasing; that is asserted at every step.  A run
    of `window` equal consecutive terms stops the scan, but since colon
    chains may pause, the record is marked certified=False.
    """
    if n < 1:
        raise InvariantError("ratliff_rush_power needs a positive power")
    if window < 2:
        raise InvariantError("stabilization window must be at least 2")
    depth_witness(ring, policy)
    # For base ideals other than m the caller is responsible for the base
    # containing a regular element (automatic for m-primary bases here).
    base_is_m = base is None
    chain: list[IdealHandle] = []
    matches = 1
    j = 0
    while j < j_cap:
        j += 1
        if base_is_m:
            term = _m_power_colon(ring, n + j, j)
        else:
            term = ideal_colon(ideal_power(base, n + j), ideal_power(base, j))
        if chain:
            if not ideal_contains_local_ideal(term, chain[-1]):
                raise InvariantError(
                    "colon chain failed to ascend; this indicates an engine bug"
                )
            if ideal_equal_local(term, chain[-1]):
                matches += 1
            else:
                matches = 1
        chain.append(term)
        if matches >= window:
            return RRChainRecord(
                n=n,
                chain=tuple(chain),
                stable_value=term,
                window=window,
                certified=False,
                stabilized_at=j - window + 1,
                base_is_maximal=base_is_m,
            )
    raise ChainCapExceeded(
        f"colon chain for power {n} showed no window of {window} equal terms "
        f"within j <= {j_cap}"
    )


@dataclass(frozen=True)
class SIndexResult:
    """Least power from which all computed m-powers are Ratliff-Rush closed."""

    s: int
    certified_up_to: int
    records: tuple[RRChainRecord, ...]


def s_index(
    ring: QuotientRing,
    bound: int,
    window: int = DEFAULT_RR_WINDOW,
    j_cap: int = DEFAULT_RR_JCAP,
    policy: GenericElementPolicy | None = None,
) -> SIndexResult:
    """Scan i = 1..bound; s = 1 + the largest i whose power is not closed
    (or 1 if all are closed).  Values beyond the bound are unverified."""
    if bound < 1:
        raise InvariantError("s_index needs a positive bound")
    records = []
    s = 1
    for i in range(1, bound + 1):
        record = ratliff_rush_power(ring, i, window=window, j_cap=j_cap, policy=policy)
        records.append(record)
        if not ideal_equal_local(record.stable_value, ring.m_power(i)):
            s = i + 1
    return SIndexResult(s=s, certified_up_to=bound, records=tuple(records))


@dataclass(frozen=True)
class PredicateRow:
    n: int
    m_full: PredicateResult
    full: PredicateResult
    weakly_m_full: PredicateResult


@dataclass(frozen=True)
class DaoReport:
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
    reg_bound: int | None = None
    reg_bound_consistent: bool | None = None

    @property
    def alpha_validated(self) -> bool:
        return self.flags.get("alpha_validated", False)


def _i_m_power(I: IdealHandle, n: int, r: int, cache: dict) -> IdealHandle:
    """I * m^n as an ideal of the local ring, built incrementally, for a
    reduction I of m with reduction number r.

    m^(n+r+1) = m^n * I m^r lies in I m^n locally, so I m^n + m^(n+r+1) is
    the same local ideal; it is m-primary in P, which keeps the Groebner
    bases of everything computed from it small.  The inclusion is checked:
    by Nakayama, m^N lies in K locally iff it lies in K + m^(N+1).
    """
    if n in cache:
        return cache[n]
    ring = I.ring
    K = I if n == 0 else ideal_product(_i_m_power(I, n - 1, r, cache), ring.maximal_ideal())
    N = n + r + 1
    widened = IdealHandle(ring, list(K.gens) + list(ring.m_power(N + 1).gens))
    if not all(normal_form(g, widened.gb).is_zero() for g in ring.m_power(N).gens):
        raise InvariantError(
            f"m^{N} is not inside I m^{n} locally although r = {r}; "
            "this indicates an engine bug"
        )
    cache[n] = IdealHandle(ring, list(K.gens) + list(ring.m_power(N).gens))
    return cache[n]


def dao_numbers(
    I: IdealHandle,
    policy: GenericElementPolicy | None = None,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    rr_window: int = DEFAULT_RR_WINDOW,
    rr_j_cap: int = DEFAULT_RR_JCAP,
    s_bound: int | None = None,
    s_safety: int = DEFAULT_S_SAFETY,
    known_reg: int | None = None,
) -> DaoReport:
    """The indices n1, n2, n3 for a verified reduction I of m.

    n1 = n3 = alpha = max(r, s-1) exactly; n2 is found by scanning fullness
    of I m^n over n in [0, alpha], which suffices because beyond alpha the
    m-fullness of the previous power forces fullness.  The exact weak-m-full
    failure at alpha-1 revalidates alpha against the heuristic part of the
    s-computation.
    """
    ring = I.ring
    policy = policy or GenericElementPolicy()
    depth_witness(ring, policy)
    cert = reduction_number(I, max_iter=max_iter)
    r = cert.r
    bound = s_bound if s_bound is not None else max(r + s_safety, DEFAULT_S_BOUND_FLOOR)
    s_result = s_index(ring, bound, window=rr_window, j_cap=rr_j_cap, policy=policy)
    s = s_result.s
    alpha = max(r, s - 1)
    n1 = n3 = alpha

    powers: dict[int, IdealHandle] = {}
    table: list[PredicateRow] = []
    flags: dict = {
        "presentation": "algebraic-local",
        "seed": policy.seed,
        "trials": policy.trials,
        "rr_window": rr_window,
        "s_bound": bound,
        "rr_certified": False,
    }
    for n in range(alpha + 2):
        K = _i_m_power(I, n, r, powers)
        row = PredicateRow(
            n=n,
            m_full=is_m_full(K, policy.derive(f"table:m-full:{n}")),
            full=is_full(K, policy.derive(f"table:full:{n}")),
            weakly_m_full=is_weakly_m_full(K),
        )
        table.append(row)

    failing = [row.n for row in table if row.n <= alpha and not row.full.value]
    n2 = (failing[-1] + 1) if failing else 0
    # A failing existential row is never certified, so any nonzero n2 is an
    # upper bound; only the all-true scan (n2 = 0) is exact.
    n2_certified = n2 == 0

    # Exact cross-checks of alpha (weak m-fullness is deterministic).
    alpha_ok = True
    if alpha >= 1:
        alpha_ok = alpha_ok and not table[alpha - 1].weakly_m_full.value
    alpha_ok = alpha_ok and table[alpha].weakly_m_full.value
    if alpha + 1 < len(table):
        alpha_ok = alpha_ok and table[alpha + 1].weakly_m_full.value
    flags["alpha_validated"] = alpha_ok
    if not alpha_ok:
        flags["warning"] = (
            "predicate table contradicts alpha; the Ratliff-Rush window or "
            "s-scan bound is too small -- increase rr_window / s_bound"
        )
    if n2 > alpha:
        flags["n2_scan_discrepancy"] = True

    reg_consistent = None
    if known_reg is not None:
        reg_consistent = n1 <= known_reg

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
        reg_bound=known_reg,
        reg_bound_consistent=reg_consistent,
    )


@dataclass(frozen=True)
class StatementCheck:
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
    **dao_kwargs,
) -> tuple[DaoReport, tuple[StatementCheck, ...]]:
    """Instance-wise verification of the structural statements the engine
    relies on, evaluated on the given ring and reduction.

    Statuses never claim a proof: existential predicates can fail only
    probabilistically, so mismatches involving an uncertified False are
    reported as DISCREPANCY-UNCERTIFIED rather than VIOLATION.
    """
    # The harness samples harder than interactive queries do.
    policy = policy or GenericElementPolicy(trials=8)
    report = dao_numbers(I, policy, known_reg=known_reg, **dao_kwargs)
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
    # scanned over n = 0 .. alpha + 2.
    powers: dict[int, IdealHandle] = {}
    scan_top = alpha + 3
    mismatch_hard: list[int] = []
    mismatch_soft: list[int] = []
    for n in range(scan_top):
        K = _i_m_power(I, n, report.r, powers)
        K1 = _i_m_power(I, n + 1, report.r, powers)
        lhs = is_m_full(K, policy.derive(f"verify:m-full:{n}"))
        full_next = is_full(K1, policy.derive(f"verify:full:{n + 1}"))
        weakly = is_weakly_m_full(K)
        rhs_value = full_next.value and weakly.value
        if lhs.value != rhs_value:
            uncertified = (not lhs.value and not lhs.certified) or (
                not full_next.value and not full_next.certified
            )
            (mismatch_soft if uncertified else mismatch_hard).append(n)
    status = "HOLDS"
    if mismatch_hard:
        status = "VIOLATION"
    elif mismatch_soft:
        status = "DISCREPANCY-UNCERTIFIED"
    checks.append(
        StatementCheck(
            "full_next_and_weakly_iff_mfull",
            status,
            f"checked n = 0..{scan_top - 1}"
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

    # Colon chains: closing one more power and coloning by m descends.
    s_records = s_index(
        ring,
        min(report.s_certified_up_to, alpha + 2),
        window=dao_kwargs.get("rr_window", DEFAULT_RR_WINDOW),
        j_cap=dao_kwargs.get("rr_j_cap", DEFAULT_RR_JCAP),
        policy=policy,
    ).records
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

    # Recorded regularity upper bound.
    if known_reg is not None:
        ok = report.n1 <= known_reg
        checks.append(
            StatementCheck(
                "rees_regularity_bound",
                "HOLDS" if ok else "VIOLATION",
                f"n1={report.n1} <= reg={known_reg}" if ok else f"n1={report.n1} > reg={known_reg}",
            )
        )
    else:
        checks.append(
            StatementCheck("rees_regularity_bound", "SKIPPED", "no known_reg supplied")
        )

    return report, tuple(checks)
