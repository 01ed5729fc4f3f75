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

from collections.abc import Iterable
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


def depth_witness(ring: QuotientRing, policy: GenericElementPolicy | None = None) -> Polynomial:
    """A verified regular linear form in m, kept by the ring; raises
    DepthProbeError if the sampled candidates all fail (depth 0, or bad
    luck)."""

    def probe() -> Polynomial:
        sampling = policy or GenericElementPolicy()
        rng = sampling.rng("depth-probe")
        trials = max(sampling.trials, 3)
        for _ in range(trials):
            ell = sample_linear_form(ring, rng)
            if is_nonzerodivisor(ell, ring):
                return ell
        raise DepthProbeError(
            f"no regular linear form found in m after {trials} trials; "
            "the positive-depth hypothesis looks violated"
        )

    return ring.memo(("depth-witness",), probe)


@dataclass(frozen=True)
class ReductionCertificate:
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
    keeps them for the request: `reduction_number` (c = 2), the table
    (c = r + 1) and `verify` share them."""
    ring = I.ring

    def build() -> IdealHandle:
        if n == 0:
            return IdealHandle(ring, list(I.gens) + list(ring.m_power(c).gens))
        return ideal_product(_ladder(I, n - 1, c), ring.maximal_ideal())

    return ring.memo(("ladder", I.gb.basis, n, c), build)


def reduction_number(I: IdealHandle, max_iter: int = DEFAULT_MAX_ITER) -> ReductionCertificate:
    """Least r with I m^r = m^{r+1} locally.

    Since I lies in m, the equality at k says m^(k+1) lies in I m^k, which
    `_contains_m_power` decides on the rung I m^k + m^(k+2).  It then holds
    at every larger power (multiply by m), so the certificate is exact;
    stability at r+1 is verified explicitly as a sanity check.
    """
    ring = I.ring
    for g in I.gens:
        if ring.reduce(g).constant_term != ring.ambient.field.zero:
            raise NotAReductionError("ideal is not contained in the maximal ideal")
    if not any(ring.reduce(g) for g in I.gens):
        raise NotAReductionError("the zero ideal is not a reduction of m")
    for k in range(max_iter + 1):
        if _contains_m_power(_ladder(I, k, 2), k + 1):
            if not _contains_m_power(_ladder(I, k + 1, 2), k + 2):
                raise InvariantError(
                    "reduction equality did not propagate to the next power; "
                    "this indicates an engine bug"
                )
            return ReductionCertificate(I, k, checked_up_to=k + 1)
    raise NotAReductionError(
        f"not detected as reduction within max_iter = {max_iter}"
    )


@dataclass(frozen=True)
class RRChainRecord:
    """The ascending chain m^{n+j} : m^j with its stabilization evidence."""

    n: int
    chain: tuple[IdealHandle, ...]
    stable_value: IdealHandle
    window: int
    certified: bool
    stabilized_at: int


def ratliff_rush_power(
    ring: QuotientRing,
    n: int,
    window: int = DEFAULT_RR_WINDOW,
    j_cap: int = DEFAULT_RR_JCAP,
    policy: GenericElementPolicy | None = None,
) -> RRChainRecord:
    """Candidate Ratliff-Rush closure of m^n as the stable value of the
    ascending colon chain.

    The chain is provably increasing; that is asserted at every step.  A run
    of `window` equal consecutive terms stops the scan, but since colon
    chains may pause, the record is marked certified=False.  Records of
    m-powers depend on the ring alone and are kept by it.
    """
    if n < 1:
        raise InvariantError("ratliff_rush_power needs a positive power")
    if window < 2:
        raise InvariantError("stabilization window must be at least 2")
    depth_witness(ring, policy)

    def build() -> RRChainRecord:
        chain: list[IdealHandle] = []
        matches = 1
        for j in range(1, j_cap + 1):
            # m^(n+j) : m^j as j colons by m; the memo shares the steps
            # between chains.
            term = ring.m_power(n + j)
            for _ in range(j):
                term = ideal_colon(term, ring.maximal_ideal())
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
                )
        raise ChainCapExceeded(
            f"colon chain for power {n} showed no window of {window} equal terms "
            f"within j <= {j_cap}"
        )

    return ring.memo(("rr", n, window, j_cap), build)


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
    s_records: tuple[RRChainRecord, ...]
    flags: dict
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
    m^(n+r+1) = m^n I m^r lies in I m^n.  That rests on I m^r = m^(r+1), so
    the certificate's statement is asked again first, on the rung of
    `reduction_number` that already holds it; a wrong r raises.
    """
    if not _contains_m_power(_ladder(I, r, 2), r + 1):
        raise InvariantError(
            f"m^{r + 1} is not inside I m^{r} locally although r = {r}; "
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
    max_iter: int = DEFAULT_MAX_ITER,
    rr_window: int = DEFAULT_RR_WINDOW,
    rr_j_cap: int = DEFAULT_RR_JCAP,
    s_bound: int | None = None,
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
    bound = s_bound if s_bound is not None else max(r + DEFAULT_S_SAFETY, DEFAULT_S_BOUND_FLOOR)
    s_result = s_index(ring, bound, window=rr_window, j_cap=rr_j_cap, policy=policy)
    s = s_result.s
    alpha = max(r, s - 1)
    n1 = n3 = alpha

    flags: dict = {
        "presentation": "algebraic-local",
        "seed": policy.seed,
        "trials": policy.trials,
        "rr_window": rr_window,
        "s_bound": bound,
        "rr_certified": False,
    }
    table = _table_rows(I, r, policy, range(alpha + 2))

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
        s_records=s_result.records,
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

    The checks read the index report of `dao_numbers`, its s-scan records
    included.  The equivalence check extends its predicate table, with the
    same `table:` seeds, by the row n = alpha + 2 and by fullness at
    alpha + 3; no predicate of a table ideal is sampled twice.

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

    # Colon chains: closing one more power and coloning by m descends.
    s_records = report.s_records[: alpha + 2]
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
        ok = report.reg_bound_consistent
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
