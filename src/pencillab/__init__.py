"""pencillab: pencils of binary forms, their plane-curve geometry, and the
combinatorics of nodal limits, with exact finite-field point counts.

Modules by theme: numerology (expected dimensions, nonemptiness numerics,
alpha-tuples and the Grassmannian count), monodromy (cycle tuples realizing
genus-0 covers), pencil_geometry (exact Bezoutian / Wronskian / ramification
machinery over Q and F_q), severi_degeneration (limit curves, descent to
nodal models, counting searches), cli (the pencillab executable).

The names in `__all__` can be imported from the package itself.  Each is
loaded from its module on first use, so `import pencillab` loads none of the
theme modules and a command pays only for the modules it calls.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package serves from it
_EXPORTS = {
    "errors": (
        "BasePointAmbiguity",
        "BasePointPresent",
        "ChainMismatch",
        "CharacteristicObstruction",
        "CoincidentPoints",
        "DegeneratePencil",
        "FormulationMismatch",
        "PencillabError",
        "PointCollision",
        "ProfileInfeasible",
        "ResourceLimit",
        "RiemannHurwitzViolation",
        "ZeroCount",
    ),
    "fields": ("QQ", "Field", "prime_field"),
    "monodromy": (
        "MonodromyTuple",
        "Permutation",
        "TupleReport",
        "construct_tuple",
        "count_tuples",
        "enumerate_tuples",
        "is_balanced",
        "pad_profile",
        "verify_tuple",
    ),
    "numerology": (
        "AlphaTuple",
        "HurwitzVerdict",
        "RamificationProfile",
        "VerdictTag",
        "adjusted_rho",
        "brill_noether_number",
        "delta_zero",
        "enumerate_alpha",
        "exists_alpha",
        "expected_codimension",
        "expected_pencil_dimension",
        "grassmannian_pencil_count",
        "hurwitz_dimension",
        "hurwitz_to_moduli_verdict",
        "profile_report",
        "severi_alpha",
        "severi_nonempty",
        "simple_branch_count",
    ),
    "pencil_geometry": (
        "BinaryForm",
        "Pencil",
        "PlaneCurve",
        "ProjPoint",
        "SymPoint",
        "base_locus",
        "bezoutian_curve",
        "change_basis",
        "diagonal_conic",
        "has_multiple_base_points",
        "has_ramification_at",
        "is_base_point",
        "is_reduced_curve",
        "linear_form",
        "plucker_coordinates",
        "rational_roots",
        "same_fiber",
        "squarefree_form",
        "sum_line",
        "sym_point",
        "total_ramification_pencil",
        "total_vanishing_multiplicity",
        "wedge_basis_curve",
        "wronskian",
    ),
    "severi_degeneration": (
        "ChainSpec",
        "DescentReport",
        "DimensionEstimate",
        "LimitCurveModel",
        "SearchConstraint",
        "SearchResult",
        "build_limit_curve",
        "descends",
        "dimension_estimate",
        "intersect_with_conic",
        "search_pencils_ffield",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
