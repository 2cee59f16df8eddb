"""pencillab: pencils of binary forms, their plane-curve geometry, and the
combinatorics of nodal limits, with exact finite-field point counts.

Subpackages by theme: numerology (expected dimensions and nonemptiness
numerics), monodromy (cycle tuples realizing genus-0 covers), pencil_geometry
(exact Bezoutian / Wronskian / ramification machinery over Q and F_q),
severi_degeneration (alpha-tuples, descent to nodal models, counting
searches), cli (the pencillab executable).
"""

from .errors import (
    BasePointAmbiguity,
    BasePointPresent,
    ChainMismatch,
    CharacteristicObstruction,
    CoincidentPoints,
    DegeneratePencil,
    FormulationMismatch,
    PencillabError,
    PointCollision,
    ProfileInfeasible,
    ResourceLimit,
    RiemannHurwitzViolation,
    ZeroCount,
)
from .fields import QQ, Field, prime_field
from .monodromy import (
    MonodromyTuple,
    Permutation,
    TupleReport,
    construct_tuple,
    count_tuples,
    enumerate_tuples,
    is_balanced,
    pad_profile,
    verify_tuple,
)
from .numerology import (
    HurwitzVerdict,
    RamificationProfile,
    VerdictTag,
    adjusted_rho,
    brill_noether_number,
    delta_zero,
    expected_codimension,
    expected_pencil_dimension,
    hurwitz_dimension,
    hurwitz_to_moduli_verdict,
    profile_report,
    severi_alpha,
    severi_nonempty,
    simple_branch_count,
)
from .pencil_geometry import (
    BinaryForm,
    Pencil,
    PlaneCurve,
    ProjPoint,
    SymPoint,
    base_locus,
    bezoutian_curve,
    change_basis,
    diagonal_conic,
    has_multiple_base_points,
    has_ramification_at,
    is_base_point,
    is_reduced_curve,
    linear_form,
    plucker_coordinates,
    rational_roots,
    same_fiber,
    squarefree_form,
    sum_line,
    sym_point,
    total_ramification_pencil,
    total_vanishing_multiplicity,
    wedge_basis_curve,
    wronskian,
)
from .severi_degeneration import (
    AlphaTuple,
    ChainSpec,
    DescentReport,
    DimensionEstimate,
    LimitCurveModel,
    SearchConstraint,
    SearchResult,
    build_limit_curve,
    descends,
    dimension_estimate,
    enumerate_alpha,
    exists_alpha,
    grassmannian_pencil_count,
    intersect_with_conic,
    search_pencils_ffield,
)

__version__ = "0.1.0"
