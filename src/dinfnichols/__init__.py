"""Exact Yetter-Drinfeld modules, braidings and truncated Nichols algebras
over the infinite dihedral group, with a finite-GK-dimension classifier."""

from .field import (
    DEFAULT_ORDER,
    Scalar,
    cyclotomic_polynomial,
    parse_scalar,
    root_of_unity_order,
)
from .group import (
    ConjClass,
    GroupElement,
    centralizer_contains,
    class_is_infinite,
    conj_class_of,
    coset_reps,
    parse_element,
)
from .repn import (
    ALambdaElement,
    CheckResult,
    CornerData,
    FinRep,
    SimpleCandidate,
    alambda_multiply,
    corner_data,
    corner_power_identity,
    corner_square_check,
    idempotent_pair,
    is_irreducible,
    module_axiom_check,
    rep_iso_check,
    simple_modules,
    structure_check,
)
from .ydmod import (
    A,
    B,
    BasisVector,
    BraidTerm,
    GClassModule,
    GhClassModule,
    HClassModule,
    OneClassModule,
    SignedVector,
    V1,
    V2,
    X1,
    X2,
    YDModule,
    braid_equation_check,
    diagonal_type,
    h_class,
    reflection_braid_check,
    reflection_yd_check,
    yd_compat_check,
)
from .tables import braiding_table_check
from .nichols import (
    DEGREE_CAP,
    GrowthFit,
    HilbertPrefix,
    graded_dims,
    growth_fit,
    quantum_symmetrizer,
)
from .classify import (
    EvidenceError,
    FamilyInstance,
    ParamGrid,
    REPORT_SCHEMA,
    Verdict,
    classify,
    default_grid,
    enumerate_families,
    theorem_table,
)

__version__ = "0.1.0"
