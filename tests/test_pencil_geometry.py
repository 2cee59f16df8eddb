"""Bezoutian curves, ramification and base loci of binary-form pencils."""

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import isqrt, lcm

import numpy as np
import pytest

from pencillab import (
    BasePointAmbiguity,
    BasePointPresent,
    CharacteristicObstruction,
    CoincidentPoints,
    DegeneratePencil,
    Pencil,
    PlaneCurve,
    ProjPoint,
    ResourceLimit,
    bezoutian_curve,
    base_locus,
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
    wronskian,
)
from pencillab import pencil_geometry
from pencillab.fields import QQ, Field, _is_prime
from pencillab.pencil_geometry import (
    MAX_ROOT_SCAN_STEPS,
    MAX_TOTAL_RAM_K,
    _move_to_origin,
    _roots_mod,
    curve_monomials,
    curve_resultant,
    form_power,
)

from conftest import form, point, projective_points, random_form, random_pencil


def root_grid(F, rng, count):
    """Seeded nonzero forms with repeated roots, roots at [0:1] and [1:0], and scalings."""
    out = []
    while len(out) < count:
        factors = [random_form(F, rng.randint(0, 3), rng)]
        for _ in range(rng.randint(0, 3)):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            pt = rng.choice([point(F, 0, 1), point(F, 1, 0), point(F, 1, t)])
            factors += [linear_form(pt)] * rng.randint(1, 3)
        h = reduce(lambda a, b: a.multiply(b), factors)
        if not h.is_zero():
            scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 60))
            out.append(h.scale(scale if F.q == 0 else rng.randrange(1, F.q)))
    return out


def scan_roots(h):
    """Roots over F_q by the multiplicity at every point: the oracle over F_q."""
    F = h.field
    pts = [point(F, 0, 1)] + [point(F, 1, t) for t in range(F.q)]
    return [(p, m) for p in pts if (m := h.vanishing_order_at(p)) > 0]


def _divisors(n):
    return sorted({e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})


def divisor_walk_roots(h):
    """Roots over Q by the rational root theorem: the oracle over Q.

    Every divisor of the cleared trailing coefficient over every divisor of
    the cleared leading one, after [0:1] and [1:0], in the same order as
    rational_roots.
    """
    p = list(h.coeffs)
    while p[-1] == 0:
        p.pop()
    out = [(point(QQ, 0, 1), h.degree + 1 - len(p))] if len(p) <= h.degree else []
    m0 = next(i for i, c in enumerate(p) if c != 0)
    if m0:
        out.append((point(QQ, 1, 0), m0))
        p = p[m0:]
    scale = lcm(*(c.denominator for c in p))
    ints = [int(c * scale) for c in p]
    candidates = {Fraction(sign * a, b) for a in _divisors(abs(ints[0]))
                  for b in _divisors(abs(ints[-1])) for sign in (1, -1)}
    for t in sorted(candidates):
        if sum(c * t**i for i, c in enumerate(p)) == 0:
            out.append((point(QQ, 1, t), h.vanishing_order_at(point(QQ, 1, t))))
    return out


def curve_dict(curve):
    """Nonzero monomial coefficients of a normalized plane curve."""
    return {m: c for m, c in curve.normalized().monomial_dict().items()}


class TestFields:
    def test_rationals(self):
        assert QQ.q == 0
        assert QQ.coerce("2/3") == Fraction(2, 3)
        assert QQ.label() == "Q"

    def test_primality_matches_a_sieve(self):
        n = 200_000
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for d in range(2, isqrt(n) + 1):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, n, d)))
        assert [m for m in range(n) if _is_prime(m)] == [m for m in range(n) if sieve[m]]

    def test_primality_is_exact_below_2_64_and_refused_above(self):
        assert not _is_prime(3215031751)  # a strong pseudoprime to 2, 3, 5 and 7
        assert not _is_prime(3825123056546413051)  # ... to every base but 37
        assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)
        assert not _is_prime(2**64 - 1)
        with pytest.raises(ResourceLimit):
            _is_prime(2**64)
        with pytest.raises(ResourceLimit):
            Field(2**64 + 13)

    def test_prime_field(self):
        F = Field(7)
        assert F.coerce(9) == 2
        assert F.coerce(Fraction(1, 2)) == 4  # inverse of 2 mod 7
        assert F.label() == {"q": 7}

    def test_coerce_types(self):
        F = Field(7)
        for field, one in [(F, 1), (QQ, Fraction(1))]:
            got = field.coerce(True)  # a bool is an int, but not of type int
            assert got == one and type(got) is type(one)
            assert type(field.coerce(5)) is type(one)
            assert field.coerce("3/2") == field.coerce(Fraction(3, 2))
            with pytest.raises(TypeError):
                field.coerce(np.int64(3))
            with pytest.raises(TypeError):
                field.coerce(1.5)
        assert F.coerce(-1) == 6
        assert F.coerce("3/2") == 5
        assert QQ.coerce(-1) == Fraction(-1)

    def test_characteristic_two_rejected(self):
        with pytest.raises(CharacteristicObstruction):
            Field(2)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            Field(9)


class TestSymPoint:
    def test_diagonal_point(self):
        p = point(QQ, 1, 0)
        s = sym_point(p, p)
        assert s.to_json() == ["1", "0", "0"]
        assert s.on_diagonal()

    def test_fractional_coordinates(self):
        s = sym_point(point(QQ, 1, 2), point(QQ, 1, Fraction(2, 3)))
        assert s.to_json() == ["1", "8/3", "4/3"]
        assert not s.on_diagonal()

    def test_point_at_infinity(self):
        s = sym_point(point(QQ, 1, 1), point(QQ, 0, 1))
        assert s.to_json() == ["0", "1", "1"]

    def test_symmetric_in_arguments(self):
        rng = random.Random(11)
        for _ in range(20):
            p = point(QQ, 1, rng.randint(-5, 5))
            q = point(QQ, 1, rng.randint(-5, 5))
            assert sym_point(p, q) == sym_point(q, p)

    def test_on_diagonal_iff_equal(self):
        pts = [point(QQ, 1, t) for t in range(-3, 4)] + [point(QQ, 0, 1)]
        for p in pts:
            for q in pts:
                assert sym_point(p, q).on_diagonal() == (p == q)


class TestProjPoint:
    def test_normalization_makes_equality_syntactic(self):
        assert point(QQ, 2, 4) == point(QQ, 1, 2)
        assert point(QQ, 0, 5) == point(QQ, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            point(QQ, 0, 0)


class TestBezoutian:
    def test_split_pencil_degree_two(self):
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        assert curve_dict(bezoutian_curve(pen)) == {(0, 1, 0): 1}

    def test_translated_squares(self):
        pen = Pencil(form(QQ, [0, 0, 1]), form(QQ, [1, -2, 1]))
        assert curve_dict(bezoutian_curve(pen)) == {(0, 1, 0): 1, (0, 0, 1): -2}

    def test_degree_three_conic(self):
        pen = Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [1, 0, 0, 0]))
        assert curve_dict(bezoutian_curve(pen)) == {(1, 0, 1): 1, (0, 2, 0): -1}

    def test_degree_law(self):
        rng = random.Random(5)
        for k in range(2, 7):
            pen = random_pencil(QQ, k, rng)
            assert bezoutian_curve(pen).degree == k - 1

    def test_dependent_generators_rejected(self):
        f = form(QQ, [1, 2, 3])
        with pytest.raises(DegeneratePencil):
            Pencil(f, f.scale(QQ.coerce(4)))

    def test_basis_invariance(self):
        rng = random.Random(6)
        for k in (2, 3, 4):
            pen = random_pencil(QQ, k, rng)
            other = change_basis(pen, 2, 3, 1, 2)  # det 1
            assert bezoutian_curve(pen).normalized() == bezoutian_curve(other).normalized()

    @pytest.mark.parametrize("q", [0, 101])
    def test_defining_identity(self, q):
        """f(x)g(y) - f(y)g(x) = lam * (x0 y1 - x1 y0) * C(x0 y0, x0 y1 + x1 y0, x1 y1).

        Checked on raw coordinate pairs with one lam per pencil, by plain
        evaluation of f, g and the curve's monomials.
        """
        F = Field(q)
        rng = random.Random(f"defining-identity:{q}")

        def total(terms):
            return reduce(F.add, terms, F.zero)

        def at(coeffs, x0, x1):
            k = len(coeffs) - 1
            return total(F.mul(c, F.mul(F.pow(x0, k - i), F.pow(x1, i)))
                         for i, c in enumerate(coeffs))

        for k in range(1, 8):
            for _ in range(4):
                pen = random_pencil(F, k, rng)
                f, g = pen.f.coeffs, pen.g.coeffs
                curve = bezoutian_curve(pen).monomial_dict().items()
                ratios = set()
                for _ in range(12):
                    x0, x1, y0, y1 = (F.coerce(rng.randint(-20, 20)) for _ in range(4))
                    lhs = F.sub(F.mul(at(f, x0, x1), at(g, y0, y1)),
                                F.mul(at(f, y0, y1), at(g, x0, x1)))
                    u, v, w = F.mul(x0, y0), F.add(F.mul(x0, y1), F.mul(x1, y0)), F.mul(x1, y1)
                    c_uvw = total(F.mul(coef, F.mul(F.pow(u, a), F.mul(F.pow(v, b), F.pow(w, c))))
                                  for (a, b, c), coef in curve)
                    rhs = F.mul(F.sub(F.mul(x0, y1), F.mul(x1, y0)), c_uvw)
                    if F.is_zero(rhs):
                        assert F.is_zero(lhs), (k, pen)
                    else:
                        ratios.add(F.div(lhs, rhs))
                assert len(ratios) == 1, (k, pen, ratios)
                assert not F.is_zero(ratios.pop())

    def test_singular_change_of_basis_rejected(self):
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        with pytest.raises(DegeneratePencil):
            change_basis(pen, 2, 4, 1, 2)  # det 0


class TestSameFiber:
    def test_translated_squares_pair(self):
        pen = Pencil(form(QQ, [0, 0, 1]), form(QQ, [1, -2, 1]))
        assert same_fiber(pen, point(QQ, 1, 2), point(QQ, 1, Fraction(2, 3)))

    def test_split_pencil_pairs(self):
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        assert same_fiber(pen, point(QQ, 1, 1), point(QQ, 1, -1))
        assert not same_fiber(pen, point(QQ, 1, 1), point(QQ, 1, 2))

    def test_agrees_with_curve_incidence(self):
        rng = random.Random(8)
        for k in (2, 3, 4):
            pen = random_pencil(QQ, k, rng)
            curve = bezoutian_curve(pen)
            for _ in range(25):
                p = point(QQ, 1, rng.randint(-6, 6))
                q = point(QQ, 1, rng.randint(-6, 6))
                if p == q:
                    continue  # the doubled point lies on the curve only at ramification
                assert same_fiber(pen, p, q) == curve.contains(sym_point(p, q))

    def test_diagonal_restriction_is_ramification(self):
        rng = random.Random(15)
        for k in (2, 3, 4):
            pen = random_pencil(QQ, k, rng)
            while base_locus(pen).degree > 0:
                pen = random_pencil(QQ, k, rng)
            curve = bezoutian_curve(pen)
            for t in range(-5, 6):
                p = point(QQ, 1, t)
                assert curve.contains(sym_point(p, p)) == has_ramification_at(pen, p, 2)

    def test_double_base_point_ambiguity(self):
        # both arguments in the base locus: every member contains the pair
        pen = Pencil(form(QQ, [0, 0, -1, 1]), form(QQ, [0, 0, 1, 1]))
        base = point(QQ, 1, 0)  # the generators share the factor x1^2
        with pytest.raises(BasePointAmbiguity):
            same_fiber(pen, base, base)
        assert same_fiber(pen, base, base, strict=False)


class TestBaseLocus:
    def test_base_point_free(self):
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        assert base_locus(pen).degree == 0
        assert not has_multiple_base_points(pen)

    def test_double_base_point(self):
        # x0^2 x1 and x0^2 (x1 - x0) share the double factor x0^2
        pen = Pencil(form(QQ, [0, 1, 0, 0]), form(QQ, [-1, 1, 0, 0]))
        gcd = base_locus(pen)
        assert gcd.degree == 2
        assert rational_roots(gcd) == [(point(QQ, 0, 1), 2)]
        assert has_multiple_base_points(pen)

    def test_simple_base_point(self):
        # common factor x0, multiplicity one on each generator
        pen = Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [0, 1, -2, 1]))
        gcd = base_locus(pen)
        assert gcd.degree == 1
        assert not has_multiple_base_points(pen)

    def test_is_base_point(self):
        pen = Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [0, 1, -2, 1]))
        assert is_base_point(pen, point(QQ, 1, 0))  # shared factor x1
        assert not is_base_point(pen, point(QQ, 0, 1))


class TestReducedness:
    def test_smooth_conic(self):
        curve = bezoutian_curve(Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [1, 0, 0, 0])))
        assert is_reduced_curve(curve)

    def test_double_line(self):
        double = PlaneCurve.from_monomial_dict(QQ, 2, {(0, 2, 0): 1})
        assert not is_reduced_curve(double)

    def test_curve_free_of_a_variable(self):
        # w does not occur, so no repeated factor involves it
        for F in (QQ, Field(7)):
            for degree, data in [(2, {(1, 1, 0): 1}), (2, {(2, 0, 0): 1, (0, 2, 0): 1}),
                                 (3, {(3, 0, 0): 1, (0, 3, 0): 2})]:
                assert is_reduced_curve(PlaneCurve.from_monomial_dict(F, degree, data)), data
            assert not is_reduced_curve(PlaneCurve.from_monomial_dict(F, 3, {(1, 2, 0): 1}))

    def test_multiple_base_point_gives_nonreduced(self):
        pen = Pencil(form(QQ, [0, 1, 0, 0]), form(QQ, [-1, 1, 0, 0]))
        assert has_multiple_base_points(pen)
        assert not is_reduced_curve(bezoutian_curve(pen))

    def test_equivalence_on_random_pencils(self):
        rng = random.Random(9)
        for field in (QQ, Field(101)):
            for k in (2, 3, 4):
                for _ in range(15):
                    pen = random_pencil(field, k, rng)
                    curve = bezoutian_curve(pen)
                    assert is_reduced_curve(curve) == (not has_multiple_base_points(pen))

    @pytest.mark.parametrize("q", [5, 7, 11])
    def test_base_locus_law_over_small_fields(self, q):
        F = Field(q)
        rng = random.Random(f"small-field-law:{q}")
        seen = set()
        for k, doubled, _ in itertools.product(range(3, min(q, 7)), (False, True), range(4)):
            pen = random_pencil(F, k - 2 if doubled else k, rng)
            if doubled:
                square = linear_form(point(F, 1, rng.randrange(q)))
                square = square.multiply(square)
                pen = Pencil(pen.f.multiply(square), pen.g.multiply(square))
            reduced = is_reduced_curve(bezoutian_curve(pen))
            assert reduced == (not has_multiple_base_points(pen)), (k, doubled)
            seen.add(reduced)
        assert seen == {False, True}

    def test_matches_sympy_squarefree_decomposition(self):
        sympy = pytest.importorskip("sympy")
        u, v, w = sympy.symbols("u v w")

        def to_sympy(curve):
            return sum((int(c) * u**a * v**b * w**e
                        for (a, b, e), c in curve.monomial_dict().items()), sympy.Integer(0))

        def from_sympy(expr, degree):
            terms = sympy.Poly(expr, u, v, w).terms()
            return PlaneCurve.from_monomial_dict(QQ, degree, {m: int(c) for m, c in terms})

        rng = random.Random(34)
        seen = set()
        for degree, _ in itertools.product((2, 3, 4), range(6)):
            curve = sparse_curve(QQ, degree, rng, density=0.6)
            line = sparse_curve(QQ, 1, rng, density=0.8)
            # C * L^2 is never reduced
            squared = from_sympy(sympy.expand(to_sympy(curve) * to_sympy(line) ** 2), degree + 2)
            for c in (curve, squared):
                _, parts = sympy.sqf_list(to_sympy(c))
                want = all(mult == 1 for _, mult in parts)
                assert is_reduced_curve(c) == want, c.monomial_dict()
                seen.add(want)
            assert not is_reduced_curve(squared)
        assert seen == {False, True}

    def test_interpolates_when_every_value_vanishes(self, monkeypatch):
        # Over F_5, 2u^3 + uw^2 + 2v^2w has a u-discriminant of degree D = 6:
        # its seven values at t = 0..6 are all 0 mod 5, yet it is
        # t^6 - t^2 over F_5, which vanishes on F_5 but is not zero, and the
        # curve is reduced
        F = Field(5)
        calls = []
        interpolate = pencil_geometry._interpolate
        monkeypatch.setattr(pencil_geometry, "_interpolate",
                            lambda values: calls.append(values) or interpolate(values))
        curve = PlaneCurve.from_monomial_dict(F, 3, {(3, 0, 0): 2, (1, 0, 2): 1, (0, 2, 1): 2})
        assert is_reduced_curve(curve)
        assert len(calls) == 1 and len(calls[0]) == 7
        assert all(value % 5 == 0 for value in calls[0])
        assert curve_resultant(curve, _partial(curve, 0), 0) == [0, 0, 4, 0, 0, 0, 1]
        # on seeded three- and four-term curves of degree 3 and 4 the verdict
        # matches the discriminants expanded over F_5, and the branch runs on
        # reduced and non-reduced curves both
        rng = random.Random(35)
        branch = set()
        for degree, terms, _ in itertools.product((3, 4), (3, 4), range(40)):
            data = {m: rng.randrange(1, 5) for m in rng.sample(curve_monomials(degree), terms)}
            curve = PlaneCurve.from_monomial_dict(F, degree, data)
            want = all(
                cofactor_resultant(curve, _partial(curve, var), var)
                for var in range(3) if max(m[var] for m in data) >= 2
            )
            calls.clear()
            assert is_reduced_curve(curve) == want, data
            if calls:
                branch.add(want)
        assert branch == {False, True}

    def test_small_characteristic_refused(self):
        curve = PlaneCurve.from_monomial_dict(Field(3), 3, {(3, 0, 0): 1, (0, 3, 0): 1})
        with pytest.raises(CharacteristicObstruction):
            is_reduced_curve(curve)

    def test_finite_field_agrees_with_rational_lift(self):
        rng = random.Random(10)
        F = Field(101)
        for k in (3, 4, 5):
            for _ in range(10):
                coeffs = [rng.randint(-9, 9) for _ in range(k + 1)], [
                    rng.randint(-9, 9) for _ in range(k + 1)
                ]
                try:
                    pen_q = Pencil(form(QQ, coeffs[0]), form(QQ, coeffs[1]))
                    pen_f = Pencil(form(F, coeffs[0]), form(F, coeffs[1]))
                except DegeneratePencil:
                    continue
                # reduction mod a large prime rarely changes squarefreeness;
                # gcds here stay integral so the verdicts must agree
                assert is_reduced_curve(bezoutian_curve(pen_q)) == is_reduced_curve(
                    bezoutian_curve(pen_f)
                )


def _poly_mul(F, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = F.add(out.get(e, F.zero), F.mul(ca, cb))
    return {e: c for e, c in out.items() if not F.is_zero(c)}


def _poly_add(F, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = F.add(out.get(e, F.zero), c)
    return {e: c for e, c in out.items() if not F.is_zero(c)}


def cofactor_resultant(a, b, var):
    """Res_var(a, b) over the curves' own field, as {(i, j): c} for
    p0^i * p1^j: Laplace expansion of the Sylvester matrix whose entries are
    polynomials in the other two variables (p0, p1)."""
    F = a.field

    def coeffs_in_var(curve):
        by_power = {}
        for expo, c in curve.monomial_dict().items():
            rest = tuple(e for i, e in enumerate(expo) if i != var)
            by_power.setdefault(expo[var], {})[rest] = c
        deg = max(by_power, default=0)
        return [by_power.get(j, {}) for j in range(deg, -1, -1)], deg

    ca, m = coeffs_in_var(a)
    cb, n = coeffs_in_var(b)
    size = m + n
    rows = [[{}] * i + ca + [{}] * (n - 1 - i) for i in range(n)]
    rows += [[{}] * i + cb + [{}] * (m - 1 - i) for i in range(m)]
    memo = {}

    def minor(r, used):
        # expand along row r over the columns not in the bitmask used
        if r == size:
            return {(0, 0): F.one}
        if used not in memo:
            acc, sign = {}, 1
            for col in range(size):
                if used >> col & 1:
                    continue
                if rows[r][col]:
                    term = _poly_mul(F, rows[r][col], minor(r + 1, used | 1 << col))
                    if sign < 0:
                        term = {e: F.neg(c) for e, c in term.items()}
                    acc = _poly_add(F, acc, term)
                sign = -sign
            memo[used] = acc
        return memo[used]

    return minor(0, 0)


def _partial(curve, var):
    """The partial derivative of the curve in the chosen variable."""
    F = curve.field
    data = {}
    for expo, c in curve.monomial_dict().items():
        if expo[var]:
            lowered = list(expo)
            lowered[var] -= 1
            data[tuple(lowered)] = F.mul(F.coerce(expo[var]), c)
    return PlaneCurve.from_monomial_dict(F, curve.degree - 1, data)


def assert_resultant_matches_oracle(a, b, var):
    got = curve_resultant(a, b, var)
    want = cofactor_resultant(a, b, var)
    D = len(got) - 1
    assert all(i + j == D for i, j in want), "the resultant is a form of degree D"
    assert got == [want.get((D - j, j), a.field.zero) for j in range(D + 1)]


def sparse_curve(F, degree, rng, density=0.5):
    data = {m: rng.randint(-5, 5) for m in curve_monomials(degree) if rng.random() < density}
    curve = PlaneCurve.from_monomial_dict(F, degree, data)
    return curve if not curve.is_zero() else sparse_curve(F, degree, rng, density)


RESULTANT_FIELDS = (QQ, Field(3), Field(5), Field(7), Field(101))


class TestResultant:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(31)
        for F in RESULTANT_FIELDS:
            for k in range(2, 7):
                for trial in range(4):
                    curve = bezoutian_curve(random_pencil(F, k, rng))
                    if curve.is_zero():
                        continue
                    conic = sparse_curve(F, 2, rng, density=0.4)
                    assert_resultant_matches_oracle(curve, conic, trial % 3)
                    assert_resultant_matches_oracle(curve, diagonal_conic(F), 2)
                    if 0 < F.q <= curve.degree:
                        continue
                    assert_resultant_matches_oracle(curve, _partial(curve, trial % 3), trial % 3)

    def test_edge_cases_match_cofactor_expansion(self):
        rng = random.Random(32)
        for F in RESULTANT_FIELDS:
            w_free = PlaneCurve(F, 2, (1, 0, 0, 1, 0, 0))
            for degree in (0, 1):
                for _ in range(3):
                    low = sparse_curve(F, degree, rng, density=0.7)
                    for conic in (w_free, diagonal_conic(F)):
                        assert_resultant_matches_oracle(low, conic, 2)
                        assert_resultant_matches_oracle(conic, low, 2)
            both = PlaneCurve.from_monomial_dict(F, 3, {(3, 0, 0): 1, (1, 2, 0): 2})
            assert curve_resultant(both, w_free, 2) == [F.one]
            assert_resultant_matches_oracle(both, w_free, 2)

    def test_small_field_needs_no_extra_points(self):
        # `pencil conic-section --q 3 --f 1,2,0,1 --g 0,1,1,0`: D = 4, so the
        # evaluation points 0..4 repeat mod 3; the integer lift still gives
        # the resultant the sympy implementation printed
        F = Field(3)
        curve = bezoutian_curve(Pencil(form(F, [1, 2, 0, 1]), form(F, [0, 1, 1, 0])))
        assert curve_resultant(curve, diagonal_conic(F), 2) == [1, 1, 2, 2, 2]
        assert_resultant_matches_oracle(curve, diagonal_conic(F), 2)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols("u v w")

        def expr(curve):
            u, v, w = symbols
            return sum(
                (sympy.Rational(str(c)) * u**a * v**b * w**e
                 for (a, b, e), c in curve.monomial_dict().items()),
                sympy.Integer(0),
            )

        rng = random.Random(33)
        for F in RESULTANT_FIELDS:
            for k in range(2, 7):
                curve = bezoutian_curve(random_pencil(F, k, rng))
                if curve.is_zero():
                    continue
                conic = sparse_curve(F, 2, rng, density=0.4)
                var = k % 3
                res = sympy.expand(sympy.resultant(expr(curve), expr(conic), symbols[var]))
                got = curve_resultant(curve, conic, var)
                rest = [s for i, s in enumerate(symbols) if i != var]
                D = len(got) - 1
                poly = sympy.Poly(res, *rest)
                want = [F.zero] * (D + 1)
                for (i, j), c in zip(poly.monoms(), poly.coeffs()):
                    assert i + j == D
                    want[j] = F.coerce(Fraction(str(c)))
                assert got == want


class TestWronskian:
    def test_translated_squares_roots(self):
        pen = Pencil(form(QQ, [0, 0, 1]), form(QQ, [1, -2, 1]))
        w = wronskian(pen)
        assert w.degree == 2
        roots = dict(rational_roots(w))
        assert roots == {point(QQ, 1, 0): 1, point(QQ, 1, 1): 1}

    def test_totally_ramified_ends(self):
        for k in (2, 3, 4, 5):
            pen = Pencil(form(QQ, [1] + [0] * k), form(QQ, [0] * k + [1]))
            w = wronskian(pen)
            assert w.degree == 2 * k - 2
            roots = dict(rational_roots(w))
            assert roots == {point(QQ, 1, 0): k - 1, point(QQ, 0, 1): k - 1}

    def test_base_point_refused(self):
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 1, 0]))
        with pytest.raises(BasePointPresent):
            wronskian(pen)

    def test_small_characteristic_refused(self):
        F = Field(3)
        pen = Pencil(form(F, [1, 0, 0, 0]), form(F, [0, 0, 0, 1]))
        with pytest.raises(CharacteristicObstruction):
            wronskian(pen)


class TestRamification:
    def test_total_ramification_detected(self):
        pen = Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [1, 0, 0, 0]))
        assert has_ramification_at(pen, point(QQ, 1, 0), 3)

    def test_wronskian_root_orders(self):
        pen = Pencil(form(QQ, [0, 0, 1]), form(QQ, [1, -2, 1]))
        assert has_ramification_at(pen, point(QQ, 1, 0), 2)
        assert not has_ramification_at(pen, point(QQ, 1, 2), 2)

    def test_unramified_interior_point(self):
        for k in (2, 3, 4):
            pen = Pencil(form(QQ, [1] + [0] * k), form(QQ, [0] * k + [1]))
            assert not has_ramification_at(pen, point(QQ, 1, 1), 2)

    def test_invariant_under_change_of_basis(self):
        rng = random.Random(13)
        for _ in range(10):
            pen = random_pencil(QQ, 3, rng)
            other = change_basis(pen, 1, 1, 1, 2)
            p = point(QQ, 1, rng.randint(-4, 4))
            assert has_ramification_at(pen, p, 2) == has_ramification_at(other, p, 2)


class TestTotalRamificationPencil:
    def test_standard_ends(self):
        pen = total_ramification_pencil(point(QQ, 1, 0), point(QQ, 0, 1), 3)
        assert pen.f.coeffs == form(QQ, [0, 0, 0, 1]).coeffs
        assert pen.g.coeffs == form(QQ, [1, 0, 0, 0]).coeffs

    def test_affine_pair(self):
        pen = total_ramification_pencil(point(QQ, 1, 0), point(QQ, 1, 1), 2)
        assert pen.f.coeffs == form(QQ, [0, 0, 1]).coeffs
        assert pen.g.coeffs == form(QQ, [1, -2, 1]).coeffs

    def test_finite_field_wronskian_support(self):
        F = Field(5)
        a, b = point(F, 1, 1), point(F, 1, -1)
        pen = total_ramification_pencil(a, b, 2)
        roots = dict(rational_roots(wronskian(pen)))
        assert roots == {a: 1, b: 1}

    def test_ramified_at_both_points(self):
        rng = random.Random(14)
        for k in (2, 3, 4):
            a = point(QQ, 1, rng.randint(-5, 5))
            b = point(QQ, 0, 1)
            pen = total_ramification_pencil(a, b, k)
            assert has_ramification_at(pen, a, k)
            assert has_ramification_at(pen, b, k)

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            total_ramification_pencil(point(QQ, 1, 2), point(QQ, 2, 4), 3)

    def test_k_is_capped(self):
        F = Field(101)
        a, b = point(F, 1, 2), point(F, 3, 5)
        assert total_ramification_pencil(a, b, MAX_TOTAL_RAM_K).degree == MAX_TOTAL_RAM_K
        with pytest.raises(ResourceLimit):
            total_ramification_pencil(a, b, MAX_TOTAL_RAM_K + 1)


@pytest.mark.parametrize("field", [QQ, Field(7), Field(101)], ids=str)
def test_form_power_matches_repeated_multiplication(field):
    """The binomial expansion against k successive multiplications, k <= 12."""
    rng = random.Random(f"form-power:{field}")
    values = [0, 1, -1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
    for a, b in itertools.product(values, repeat=2):
        if field.q and any(v.denominator % field.q == 0 for v in map(Fraction, (a, b))):
            continue
        linear = form(field, [a, b])
        want = form(field, [1])
        for k in range(13):
            assert form_power(linear, k) == want, (a, b, k)
            want = want.multiply(linear)
    with pytest.raises(ValueError):
        form_power(form(field, [1, 2, 3]), 2)


class TestTangentLineLaw:
    def test_base_point_puts_pair_line_on_curve(self):
        # base point P forces the whole line of pairs through P onto the curve
        pen = Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [0, 1, -2, 1]))
        base = point(QQ, 1, 0)
        assert is_base_point(pen, base)
        curve = bezoutian_curve(pen)
        for t in range(-4, 5):
            assert curve.contains(sym_point(base, point(QQ, 1, t)))
        assert curve.contains(sym_point(base, base))

    def test_sum_line_vanishes_on_pairs_through_point(self):
        p = point(QQ, 1, 3)
        line = sum_line(p)
        assert line.degree == 1
        for t in range(-3, 4):
            assert line.contains(sym_point(p, point(QQ, 1, t)))
        assert not line.contains(sym_point(point(QQ, 1, 0), point(QQ, 1, 1)))


class TestDiagonal:
    def test_diagonal_conic_equation(self):
        # v^2 - 4uw up to scale; normalization puts 1 on the uw monomial
        conic = diagonal_conic(QQ)
        assert curve_dict(conic) == {(1, 0, 1): 1, (0, 2, 0): Fraction(-1, 4)}

    def test_contains_exactly_diagonal_points(self):
        conic = diagonal_conic(QQ)
        for t in range(-3, 4):
            p = point(QQ, 1, t)
            assert conic.contains(sym_point(p, p))
            assert not conic.contains(sym_point(p, point(QQ, 1, t + 1)))


def _linear_multiply(F, coeffs, a, b):
    """Multiply a coefficient list (over Y-degree) by (a*X + b*Y)."""
    out = [F.zero] * (len(coeffs) + 1)
    for t, c in enumerate(coeffs):
        out[t] = F.add(out[t], F.mul(a, c))
        out[t + 1] = F.add(out[t + 1], F.mul(b, c))
    return out


def substituted(f, a, b, c, d):
    """f(a*X + b*Y, c*X + d*Y) as a coefficient list, by expanding the powers.

    The oracle of _move_to_origin's Taylor shift: moving p to [1:0] is this
    substitution with (a, b, c, d) = (x0, 0, x1, 1), or (x0, 1, x1, 0) at [0:1].
    """
    F, deg = f.field, f.degree
    a, b, c, d = (F.coerce(t) for t in (a, b, c, d))
    pow1, pow2 = [[F.one]], [[F.one]]
    for _ in range(deg):
        pow1.append(_linear_multiply(F, pow1[-1], a, b))
        pow2.append(_linear_multiply(F, pow2[-1], c, d))
    out = [F.zero] * (deg + 1)
    for i, fi in enumerate(f.coeffs):
        for s, cs in enumerate(pow1[deg - i]):
            for t, ct in enumerate(pow2[i]):
                out[s + t] = F.add(out[s + t], F.mul(fi, F.mul(cs, ct)))
    return out


@pytest.mark.parametrize("field", [QQ, Field(7), Field(101)], ids=str)
def test_taylor_shift_matches_the_substitution(field):
    rng = random.Random(f"taylor:{field}")
    if field.q:
        pts = projective_points(field)
    else:
        pts = [point(QQ, 0, 1), point(QQ, 1, 0), point(QQ, 1, 1), point(QQ, 1, -3),
               point(QQ, 2, 5), point(QQ, 1, Fraction(-7, 4))]
    for k in range(1, 9):
        forms = [random_form(field, k, rng) for _ in range(2)] + [form(field, [0] * k + [1])]
        for f in forms:
            for p in pts:
                b, d = (1, 0) if field.is_zero(p.x0) else (0, 1)
                want = substituted(f, p.x0, b, p.x1, d)
                got = _move_to_origin(f, p)
                assert got == want and [type(c) for c in got] == [type(c) for c in want]
                for order in range(1, k + 1):
                    assert _move_to_origin(f, p, order) == want[:order]


class TestFormUtilities:
    def test_squarefree_form(self):
        assert squarefree_form(form(QQ, [0, 1, -1, 0]))  # x0 x1 (x0 - x1)
        assert not squarefree_form(form(QQ, [0, 1, -2, 1]))  # x1 (x0 - x1)^2

    def test_rational_roots_with_multiplicity(self):
        f = form(QQ, [0, 0, 2, -4, 2])  # 2 x1^2 (x1 - x0)^2
        assert dict(rational_roots(f)) == {point(QQ, 1, 0): 2, point(QQ, 1, 1): 2}

    def test_rational_roots_match_a_scan_of_every_point(self):
        rng = random.Random("roots")
        for q in (7, 13, 101):
            F = Field(q)
            for k in range(1, 7):
                f = random_form(F, k, rng)
                # a form with roots of several multiplicities, one at [0:1]
                g = reduce(lambda a, b: a.multiply(b), [
                    linear_form(point(F, 0, 1)), linear_form(point(F, 1, 2)),
                    linear_form(point(F, 1, 2)), random_form(F, k - 1, rng)])
                for h in (f, g):
                    if not h.is_zero():
                        assert rational_roots(h) == scan_roots(h)
            for h in root_grid(F, rng, 60):
                assert rational_roots(h) == scan_roots(h)

    def test_rational_roots_match_the_divisor_walk(self):
        for h in root_grid(QQ, random.Random("walk"), 200):
            assert rational_roots(h) == divisor_walk_roots(h)

    def test_rational_roots_match_sympy_factor_list(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random("sympy")
        x = sympy.Symbol("x")
        for _ in range(150):
            roots = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                     for _ in range(rng.randint(0, 3))]
            factors = [linear_form(point(QQ, 1, t)) for t in roots
                       for _ in range(rng.randint(1, 2))]
            factors += [random_form(QQ, rng.randint(0, 3), rng, span=10**12)]
            if rng.random() < 0.3:
                factors.append(linear_form(point(QQ, 0, 1)))
            h = reduce(lambda a, b: a.multiply(b), factors)
            if h.is_zero():
                continue
            chart = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                for c in reversed(h.coeffs)], x)
            want = {}
            if h.degree > chart.degree():
                want[point(QQ, 0, 1)] = h.degree - chart.degree()
            for factor, m in sympy.factor_list(chart)[1]:
                if factor.degree() == 1:
                    a, b = factor.all_coeffs()
                    t = -b / a
                    want[point(QQ, 1, Fraction(int(t.p), int(t.q)))] = m
            assert dict(rational_roots(h)) == want

    def test_root_scan_is_capped(self):
        q = 1000003
        assert q * 3 <= MAX_ROOT_SCAN_STEPS < q * 7
        assert _roots_mod(q, [-4, 0, 1]) == [2, q - 2]
        with pytest.raises(ResourceLimit):
            _roots_mod(q, [1, 0, 0, 0, 0, 0, 1])

    def test_rational_roots_finite_field(self):
        F = Field(7)
        f = form(F, [-1, 0, 0, 1])  # x1^3 - x0^3, split over F_7
        roots = dict(rational_roots(f))
        assert roots == {point(F, 1, 1): 1, point(F, 1, 2): 1, point(F, 1, 4): 1}

    def test_linear_form_vanishes_at_point(self):
        p = point(QQ, 1, Fraction(3, 2))
        lf = linear_form(p)
        assert lf.degree == 1
        assert lf.evaluate(p) == 0

    def test_serialization_round_trip(self):
        f = form(QQ, [Fraction(1, 2), 0, -3])
        doc = f.to_json_dict()
        assert doc == {"degree": 2, "coeffs": ["1/2", "0", "-3"]}
        from pencillab import BinaryForm

        assert BinaryForm.from_json_dict(QQ, doc) == f


class TestPlucker:
    def test_coordinates_scale_free(self):
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        other = change_basis(pen, 3, 0, 0, 1)
        a = plucker_coordinates(pen)
        b = plucker_coordinates(other)
        ratio = None
        for key in a:
            if a[key] == 0 and b[key] == 0:
                continue
            r = b[key] / a[key]
            assert ratio in (None, r)
            ratio = r
