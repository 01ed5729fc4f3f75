"""fullness-lab: asymptotic fullness invariants of ideals in local rings.

The library computes, for a local ring presented as a localized polynomial
quotient (P/J)_m with m the ideal of the variables:

* exact Groebner-basis ideal arithmetic (products, intersections, colons),
  with equality decided in the local sense;
* the m-full / full / weakly m-full predicates;
* reduction numbers, certified Ratliff-Rush closures (one kernel on
  standard monomials each), the index s(m), and the asymptotic indices
  n1, n2, n3 with their exact termination certificate alpha = max(r, s - 1).
"""
from .polyring import (
    EQ,
    GT,
    LT,
    Monomial,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    PolyringError,
    PrimeField,
    QQ,
    RationalField,
    RingMismatchError,
    parse_polynomial,
)
from .groebner import (
    DegreeCapExceeded,
    GroebnerBasis,
    buchberger,
    eliminate,
    normal_form,
    s_polynomial,
)
from .idealcalc import (
    IdealHandle,
    IdealcalcError,
    QuotientRing,
    ideal_colon,
    ideal_contains_local,
    ideal_contains_local_ideal,
    ideal_equal_local,
    ideal_intersection,
    ideal_product,
    is_nonzerodivisor,
    times_m_power,
)
from .fullness import (
    FullnessError,
    GenericElementPolicy,
    PredicateResult,
    is_full,
    is_m_full,
    is_weakly_m_full,
    replay_witness,
    sample_linear_form,
)
from .invariants import (
    ChainCapExceeded,
    DaoReport,
    DepthProbeError,
    InvariantError,
    NotAReductionError,
    PredicateRow,
    RRChainRecord,
    ReductionCertificate,
    SIndexResult,
    StatementCheck,
    dao_numbers,
    depth_witness,
    ratliff_rush_power,
    reduction_number,
    s_index,
    verify_statements,
)

__version__ = "0.1.0"
