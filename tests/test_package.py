"""The package surface: the names `pencillab` serves, and the demos built on them."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import pencillab
from pencillab import numerology, pencil_geometry, severi_degeneration

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "pencillab")

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
    "pad_profile plucker_coordinates profile_report rational_roots "
    "same_fiber search_pencils_ffield severi_alpha severi_nonempty "
    "simple_branch_count squarefree_form sum_line sym_point "
    "total_ramification_pencil verify_tuple wronskian"
).split()

# alpha-tuples and the Grassmannian count moved to numerology
MOVED = ("AlphaTuple", "enumerate_alpha", "exists_alpha", "grassmannian_pencil_count")


def test_all_lists_exactly_the_exported_names():
    assert len(EXPORTED) == 75
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


def test_conic_sections_stay_reachable_from_severi_degeneration():
    for name in ("ConicSectionReport", "intersect_with_conic"):
        assert getattr(severi_degeneration, name) is getattr(pencil_geometry, name), name
        assert getattr(pencil_geometry, name).__module__ == "pencillab.pencil_geometry", name
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


def _modules():
    """Each module of the package: its name and its parsed source."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                yield name, ast.parse(fh.read())


def _names_used(tree):
    """Every name the tree loads, reads as an attribute or imports from elsewhere."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _attributes_read(*dirs):
    """Every name read as an attribute, .name, in the Python files under these
    directories, except on `args`: an argparse namespace's attributes are the
    options (`args.order`), which would keep a same-named method alive."""
    read = set()
    for top in dirs:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as fh:
                        tree = ast.parse(fh.read())
                    read.update(
                        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                        and not (isinstance(n.value, ast.Name) and n.value.id == "args")
                    )
    return read


def _listed_in_all(filename):
    """The __all__ of the module in that file, or nothing if it has none."""
    stem = filename[: -len(".py")]
    module = importlib.import_module("pencillab" if stem == "__init__" else f"pencillab.{stem}")
    return set(getattr(module, "__all__", ()))


def test_no_module_imports_dataclasses():
    """The value types share one small base (errors.Frozen): importing
    dataclasses, and the inspect module it loads, cost a cold process 8-13 ms
    on a 2-vCPU VM."""
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", name


def test_no_dead_definitions_or_imports():
    """A module-level function or class is exported or named somewhere in the
    package; a module-level import is used in its module or listed in its __all__.
    A method or property of a class, dunders aside, is read as .name somewhere
    in src, tests, demos, tools or perfbench."""
    trees = dict(_modules())
    used_anywhere = set().union(*(_names_used(tree) for tree in trees.values()))
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:  # console-script entry points
        used_anywhere.update(re.findall(r'"pencillab\.\w+:(\w+)"', fh.read()))
    attributes = _attributes_read("src", "tests", "demos", "tools", "perfbench")
    unused = []
    for name, tree in trees.items():
        used_here = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = _listed_in_all(name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if re.fullmatch(r"__\w+__", node.name):
                    continue  # module hooks such as __getattr__, called by Python
                if node.name not in pencillab.__all__ and node.name not in used_anywhere:
                    unused.append(f"{name}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:  # dunders are called by Python
                    if (isinstance(member, ast.FunctionDef)
                            and not re.fullmatch(r"__\w+__", member.name)
                            and member.name not in attributes):
                        unused.append(f"{name}: {node.name}.{member.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used_here and bound not in exported:
                        unused.append(f"{name}: import {bound}")
    assert unused == []
