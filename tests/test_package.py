"""The package surface: the names `pencillab` serves, and the demos built on them."""

import importlib
import os
import subprocess
import sys

import pytest

import pencillab
from pencillab import numerology, severi_degeneration

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")
SRC = os.path.join(ROOT, "src")

EXPORTED = (
    "AlphaTuple BasePointAmbiguity BasePointPresent BinaryForm ChainMismatch "
    "ChainSpec CharacteristicObstruction CoincidentPoints DegeneratePencil "
    "DescentReport DimensionEstimate Field FormulationMismatch HurwitzVerdict "
    "LimitCurveModel MonodromyTuple Pencil PencillabError Permutation PlaneCurve "
    "PointCollision ProfileInfeasible ProjPoint QQ RamificationProfile "
    "ResourceLimit RiemannHurwitzViolation SearchConstraint SearchResult SymPoint "
    "TupleReport VerdictTag ZeroCount adjusted_rho base_locus bezoutian_curve "
    "brill_noether_number build_limit_curve change_basis construct_tuple "
    "count_tuples delta_zero descends diagonal_conic dimension_estimate "
    "enumerate_alpha enumerate_tuples exists_alpha expected_codimension "
    "expected_pencil_dimension grassmannian_pencil_count has_multiple_base_points "
    "has_ramification_at hurwitz_dimension hurwitz_to_moduli_verdict "
    "intersect_with_conic is_balanced is_base_point is_reduced_curve linear_form "
    "pad_profile plucker_coordinates prime_field profile_report rational_roots "
    "same_fiber search_pencils_ffield severi_alpha severi_nonempty "
    "simple_branch_count squarefree_form sum_line sym_point "
    "total_ramification_pencil total_vanishing_multiplicity verify_tuple "
    "wedge_basis_curve wronskian"
).split()

# alpha-tuples and the Grassmannian count moved to numerology
MOVED = ("AlphaTuple", "enumerate_alpha", "exists_alpha", "grassmannian_pencil_count")


def test_all_lists_exactly_the_exported_names():
    assert len(EXPORTED) == 78
    assert sorted(pencillab.__all__) == EXPORTED


def test_each_name_is_the_object_of_its_defining_module():
    for name in EXPORTED:
        obj = getattr(pencillab, name)
        defining = importlib.import_module(obj.__module__)
        assert defining.__name__.startswith("pencillab."), name
        assert getattr(defining, name) is obj, name
        assert vars(pencillab)[name] is obj, name  # cached: later lookups skip __getattr__


def test_dir_lists_every_name_and_unknown_names_raise():
    assert set(EXPORTED) <= set(dir(pencillab))
    with pytest.raises(AttributeError, match="no_such_name"):
        pencillab.no_such_name
    with pytest.raises(ImportError):
        from pencillab import no_such_name  # noqa: F401


def test_moved_names_stay_reachable_from_severi_degeneration():
    for name in MOVED:
        assert getattr(severi_degeneration, name) is getattr(numerology, name), name
        assert getattr(numerology, name).__module__ == "pencillab.numerology", name
        assert name in severi_degeneration.__all__, name


@pytest.mark.parametrize("demo", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PENCILLAB_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
