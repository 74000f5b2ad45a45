"""Exact arithmetic for sequences of key polynomials (SKPs): building the
polynomials from a table of values, computing the attached valuations via
adic and Euclidean expansions, classifying their numerical invariants, and
realizing well-ordered semigroups of positive type as value semigroups.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    HypothesisViolatedError,
    InvalidTableError,
    IterationCapError,
    NoCutoffError,
    NonStabilizingError,
    NotInGroupError,
    NotMonicError,
    PolyParseError,
    SchemaError,
    SkpvalError,
    ThetaZeroError,
    VerificationFailedError,
    ZeroPolyError,
)
from .fields import GF, QQ
from .ordgroup import (
    GroupValue,
    INFINITY,
    canonical_representation,
    isolated_level,
    rational_rank,
    semigroup_witness,
    subgroup_index,
)
from .valtable import (
    ValueTable,
    compute_relations,
    enumerate_semigroup,
    validate_table,
)
from .poly import MultiPoly, monic_divide, parse_poly
from .skp import (
    LimitTail,
    SkpTable,
    build_skp,
    minimal_pseudo_skp,
    unroll_limit,
)
from .expansion import (
    AdicExpansion,
    AdicMonomial,
    adic_expand,
    euclidean_expand,
)
from .valuation import (
    GradedNormalForm,
    SkpValuation,
    delta_of,
    graded_normal_form,
    initial_form,
    value_of,
    value_via_euclidean,
)
from .classify import (
    InvariantReport,
    PseudoSkpArithmetic,
    RowArithmetic,
    abhyankar_check,
    classify_table1,
    inductive_invariants,
)
from .realize import (
    CORRECTED,
    LITERAL,
    GeneratorAnalysis,
    SemigroupSpec,
    realize,
    reindex,
    verify_realization,
)
