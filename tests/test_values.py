"""The value classes: equality, hashing, repr, immutability and ordering.

Every public value type of the package is an immutable record of named
fields.  Two records are equal when they have the same type and equal
fields, equal records hash alike, the repr names the type and each field in
order, and no attribute can be set or deleted after construction.
Permutations also sort by their image tuples.
"""

import pickle
from fractions import Fraction

import pytest

from pencillab.fields import QQ, Field
from pencillab.monodromy import MonodromyTuple, Permutation, TupleReport
from pencillab.numerology import (
    AlphaTuple,
    HurwitzVerdict,
    RamificationProfile,
    VerdictTag,
)
from pencillab.pencil_geometry import BinaryForm, Pencil, PlaneCurve, ProjPoint, SymPoint
from pencillab.severi_degeneration import (
    ChainSpec,
    ConicSectionReport,
    DescentReport,
    DimensionEstimate,
    LimitCurveModel,
    SearchConstraint,
    SearchResult,
)

F7 = Field(7)


def _point(a, b):
    return ProjPoint(F7, a, b)


def _form(*coeffs):
    return BinaryForm(F7, len(coeffs) - 1, coeffs)


# name -> (build a value, build a different one of the same type, the repr of the first)
VALUES = {
    "Field": (lambda: Field(7), lambda: Field(11), "Field(q=7)"),
    "Field over Q": (lambda: Field(), lambda: Field(q=5), "Field(q=0)"),
    "ProjPoint": (
        lambda: ProjPoint(F7, 2, 4),
        lambda: ProjPoint(F7, 0, 3),
        "ProjPoint(field=Field(q=7), x0=1, x1=2)",
    ),
    "ProjPoint over Q": (
        lambda: ProjPoint(QQ, 2, 3),
        lambda: ProjPoint(QQ, 1, 2),
        "ProjPoint(field=Field(q=0), x0=Fraction(1, 1), x1=Fraction(3, 2))",
    ),
    "SymPoint": (
        lambda: SymPoint(F7, 2, 4, 6),
        lambda: SymPoint(F7, 0, 0, 5),
        "SymPoint(field=Field(q=7), u=1, v=2, w=3)",
    ),
    "BinaryForm": (
        lambda: BinaryForm(F7, 2, (1, 9, -1)),
        lambda: BinaryForm(F7, 2, (1, 2, 5)),
        "BinaryForm(field=Field(q=7), degree=2, coeffs=(1, 2, 6))",
    ),
    "PlaneCurve": (
        lambda: PlaneCurve(F7, 1, (1, 9, 3)),
        lambda: PlaneCurve(F7, 1, (1, 2, 4)),
        "PlaneCurve(field=Field(q=7), degree=1, coeffs=(1, 2, 3))",
    ),
    "Pencil": (
        lambda: Pencil(_form(1, 0), _form(0, 1)),
        lambda: Pencil(_form(0, 1), _form(1, 0)),
        "Pencil(f=BinaryForm(field=Field(q=7), degree=1, coeffs=(1, 0)), "
        "g=BinaryForm(field=Field(q=7), degree=1, coeffs=(0, 1)))",
    ),
    "ChainSpec": (
        lambda: ChainSpec(m=2, pair=[_point(1, 0), _point(0, 1)]),
        lambda: ChainSpec(1, (_point(1, 0), _point(0, 1))),
        "ChainSpec(m=2, pair=(ProjPoint(field=Field(q=7), x0=1, x1=0), "
        "ProjPoint(field=Field(q=7), x0=0, x1=1)))",
    ),
    "LimitCurveModel": (
        lambda: LimitCurveModel(((_point(1, 0), _point(0, 1)),), [_point(1, 1)], ["2"]),
        lambda: LimitCurveModel((), (), ()),
        "LimitCurveModel(node_pairs=((ProjPoint(field=Field(q=7), x0=1, x1=0), "
        "ProjPoint(field=Field(q=7), x0=0, x1=1)),), "
        "marked_points=(ProjPoint(field=Field(q=7), x0=1, x1=1),), orders=(2,))",
    ),
    "DescentReport": (
        lambda: DescentReport(
            pair_in_fiber=(True,), pair_ambiguous=(False,), ramification_ok=(),
            descends=True, non_neutral=None,
        ),
        lambda: DescentReport((True,), (False,), (), True, (False,)),
        "DescentReport(pair_in_fiber=(True,), pair_ambiguous=(False,), "
        "ramification_ok=(), descends=True, non_neutral=None)",
    ),
    "SearchConstraint": (
        lambda: SearchConstraint(
            incidences=[SymPoint(F7, 1, 2, 3)], ramifications=[(_point(1, 1), "2")]
        ),
        lambda: SearchConstraint(),
        "SearchConstraint(incidences=(SymPoint(field=Field(q=7), u=1, v=2, w=3),), "
        "ramifications=((ProjPoint(field=Field(q=7), x0=1, x1=1), 2),))",
    ),
    "SearchResult": (
        lambda: SearchResult(count=3, samples=(), strata=None),
        lambda: SearchResult(2, (), None),
        "SearchResult(count=3, samples=(), strata=None)",
    ),
    "DimensionEstimate": (
        lambda: DimensionEstimate(raw=1.5, rational=Fraction(3, 2), nearest=2, residual=-0.5),
        lambda: DimensionEstimate(1.5, Fraction(3, 2), 1, 0.5),
        "DimensionEstimate(raw=1.5, rational=Fraction(3, 2), nearest=2, residual=-0.5)",
    ),
    "ConicSectionReport": (
        lambda: ConicSectionReport(
            expected_degree=4, degree=-1, homogeneous=False, squarefree=None,
            transversal=False, resultant=None,
        ),
        lambda: ConicSectionReport(4, 1, True, True, False, _form(1, 2)),
        "ConicSectionReport(expected_degree=4, degree=-1, homogeneous=False, "
        "squarefree=None, transversal=False, resultant=None)",
    ),
    "RamificationProfile": (
        lambda: RamificationProfile(g=4, k=2, e=[2, 2]),
        lambda: RamificationProfile(4, 2),
        "RamificationProfile(g=4, k=2, e=(2, 2))",
    ),
    "HurwitzVerdict": (
        lambda: HurwitzVerdict(tag=VerdictTag.DOMINANT, rho_tilde=0, n_plus_rho=2),
        lambda: HurwitzVerdict(VerdictTag.UNKNOWN, 0, 2),
        "HurwitzVerdict(tag=<VerdictTag.DOMINANT: 'Dominant'>, rho_tilde=0, n_plus_rho=2)",
    ),
    "AlphaTuple": (
        lambda: AlphaTuple(p=3, alphas=[1, 1, 0]),
        lambda: AlphaTuple(3, (3, 0, 0)),
        "AlphaTuple(p=3, alphas=(1, 1, 0))",
    ),
    "Permutation": (
        lambda: Permutation([2, 1, 3]),
        lambda: Permutation((1, 3, 2)),
        "Permutation(images=(2, 1, 3))",
    ),
    "MonodromyTuple": (
        lambda: MonodromyTuple(k=3, cycles=[Permutation((2, 1, 3)), Permutation((2, 1, 3))]),
        lambda: MonodromyTuple(3, ()),
        "MonodromyTuple(k=3, cycles=(Permutation(images=(2, 1, 3)), "
        "Permutation(images=(2, 1, 3))))",
    ),
    "TupleReport": (
        lambda: TupleReport(
            product_is_identity=True, transitive=True, consecutive_nondisjoint=True,
            orders=(2, 2), genus=0,
        ),
        lambda: TupleReport(True, True, True, (2, 2), None),
        "TupleReport(product_is_identity=True, transitive=True, "
        "consecutive_nondisjoint=True, orders=(2, 2), genus=0)",
    ),
}


def test_every_value_type_is_covered():
    types = {type(build()).__name__ for build, _, _ in VALUES.values()}
    assert len(types) == 19


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_are_equal_and_hash_alike(name):
    build, other, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: name}[b] == name
    assert a != other() and not a == other()
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_of_other_types_are_never_equal(name):
    build, _, _ = VALUES[name]
    a = build()
    fields = tuple(vars(a).values())
    assert a != fields and a != list(fields) and a != object()
    for other_name, (other, _, _) in VALUES.items():
        if type(other()) is not type(a):
            assert a != other(), other_name


@pytest.mark.parametrize("name", sorted(VALUES))
def test_repr_names_the_type_and_each_field(name):
    build, _, text = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_refuse_assignment_and_deletion(name):
    build, _, _ = VALUES[name]
    a = build()
    field = next(iter(vars(a)))
    before = repr(a)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert repr(a) == before


def test_a_search_result_with_strata_is_unhashable_like_its_dict():
    result = SearchResult(count=1, samples=(), strata={"base_point_free": 1})
    assert result == SearchResult(1, (), {"base_point_free": 1})
    with pytest.raises(TypeError):
        hash(result)


def test_fields_missing_or_doubled_are_refused():
    with pytest.raises(TypeError):
        SearchResult(count=1, samples=())
    with pytest.raises(TypeError):
        SearchResult(1, (), None, None)
    with pytest.raises(TypeError):
        SearchResult(1, (), count=1)
    with pytest.raises(TypeError):
        TupleReport(True, True, True, (2,), genus=0, colour=1)


def test_permutations_sort_by_their_images():
    perms = [Permutation(p) for p in ((3, 1, 2), (1, 2, 3), (2, 3, 1), (1, 3, 2))]
    assert [p.images for p in sorted(perms)] == [(1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2)]
    a, b = Permutation((1, 3, 2)), Permutation((2, 1, 3))
    assert a < b and a <= b and b > a and b >= a and a <= Permutation((1, 3, 2))
    assert not (b < a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < (2, 1, 3)
    with pytest.raises(TypeError):
        Field(7) < Field(11)


def test_cached_cycles_survive_freezing():
    sigma = Permutation((2, 3, 1, 4))
    assert sigma.cycles() == ((1, 2, 3),)
    assert sigma.cycles() is sigma.cycles()  # computed once
    assert sigma == Permutation((2, 3, 1, 4)) and hash(sigma) == hash(Permutation((2, 3, 1, 4)))
