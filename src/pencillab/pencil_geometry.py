"""Pencils of binary forms and their plane-curve geometry on the symmetric square.

The symmetric square of the projective line is identified with the plane
through (u, v, w) = (x0*y0, x0*y1 + x1*y0, x1*y1); the diagonal maps to the
conic v^2 = 4uw.  A pencil spanned by two degree-k binary forms f, g induces
a plane curve of degree k-1: the quotient of f(x)g(y) - f(y)g(x) by
(x0*y1 - x1*y0), rewritten in (u, v, w).  Its points are exactly the images
of unordered pairs lying in a single member of the pencil, which is what
same_fiber checks directly on evaluations.

Coefficient conventions: a BinaryForm of degree d stores coeffs[i] as the
coefficient of x0^(d-i) * x1^i, so the coefficient list read in order is also
the Taylor expansion at [1:0] in the local coordinate x1/x0.  Plane curves
store coefficients over curve_monomials(d): exponent triples (a, b, c) for
u^a v^b w^c, ordered by a descending then b descending.

Everything is exact (Fraction over Q, residues over F_q); no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, lcm
from operator import mul

from .errors import (
    BasePointAmbiguity,
    BasePointPresent,
    CharacteristicObstruction,
    CoincidentPoints,
    DegeneratePencil,
    Frozen,
    ResourceLimit,
)
from .fields import Element, Field, _is_prime

# rational_roots refuses with ResourceLimit to scan F_q for roots in more than
# MAX_ROOT_SCAN_STEPS steps, q times the chart polynomial's degree + 1.  Cold
# `pencil wronskian` processes on a shared 2-vCPU VM took 0.76-0.91 s at
# q = 1999993, degree 2 (5,999,979 steps), and 0.83-0.87 s at q = 1000003,
# degree 4, each in 23 MB: the scan holds _SCAN_CHUNK values at a time.
MAX_ROOT_SCAN_STEPS = 6_000_000
_SCAN_CHUNK = 1 << 16

# total_ramification_pencil refuses k > MAX_TOTAL_RAM_K with ResourceLimit.
# Over Q the coefficients have O(k) digits, so the pencil has O(k^2) digits: through
# (1:2) and (3:5), k = 2000 took 0.44 s in-process and printed 4.7 MB of
# JSON, and k = 10^4 took 15 s and past 4300 digits could not be printed.
# Over F_q, k = 2000 takes under 10 ms (2-vCPU VM).
MAX_TOTAL_RAM_K = 2000

# ---------------------------------------------------------------------------
# points


class ProjPoint(Frozen):
    """A point of the projective line, normalized so equality is syntactic."""

    field: Field
    x0: Element
    x1: Element

    def __init__(self, field: Field, x0, x1):
        x0 = field.coerce(x0)
        x1 = field.coerce(x1)
        if field.is_zero(x0) and field.is_zero(x1):
            raise ValueError("(0, 0) is not a projective point")
        if not field.is_zero(x0):
            x0, x1 = field.one, field.div(x1, x0)
        else:
            x0, x1 = field.zero, field.one
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

    def coords(self) -> tuple[Element, Element]:
        return (self.x0, self.x1)

    def to_json(self) -> list[str]:
        return [self.field.to_str(self.x0), self.field.to_str(self.x1)]


class SymPoint(Frozen):
    """A point of the plane receiving the symmetric square, normalized."""

    field: Field
    u: Element
    v: Element
    w: Element

    def __init__(self, field: Field, u, v, w):
        coords = [field.coerce(c) for c in (u, v, w)]
        pivot = next((c for c in coords if not field.is_zero(c)), None)
        if pivot is None:
            raise ValueError("(0, 0, 0) is not a projective point")
        u, v, w = (field.div(c, pivot) for c in coords)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def coords(self) -> tuple[Element, Element, Element]:
        return (self.u, self.v, self.w)

    def on_diagonal(self) -> bool:
        """Whether the point is the image of a doubled point, v^2 = 4uw."""
        F = self.field
        lhs = F.mul(self.v, self.v)
        rhs = F.mul(F.coerce(4), F.mul(self.u, self.w))
        return F.eq(lhs, rhs)

    def to_json(self) -> list[str]:
        return [self.field.to_str(c) for c in self.coords()]


def sym_point(p: ProjPoint, q: ProjPoint) -> SymPoint:
    """Image of the unordered pair {p, q} in the plane."""
    if p.field != q.field:
        raise ValueError("points live over different fields")
    F = p.field
    u = F.mul(p.x0, q.x0)
    v = F.add(F.mul(p.x0, q.x1), F.mul(p.x1, q.x0))
    w = F.mul(p.x1, q.x1)
    return SymPoint(F, u, v, w)


# ---------------------------------------------------------------------------
# binary forms


class BinaryForm(Frozen):
    field: Field
    degree: int
    coeffs: tuple

    def __init__(self, field: Field, degree: int, coeffs):
        coeffs = field.coerce_all(coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError(
                f"degree {degree} needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, field: Field, coeffs) -> "BinaryForm":
        coeffs = tuple(coeffs)
        return cls(field, len(coeffs) - 1, coeffs)

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def evaluate(self, p: ProjPoint) -> Element:
        F = self.field
        if p.field != F:
            raise ValueError("point and form fields differ")
        acc = F.zero
        for i, c in enumerate(self.coeffs):
            if F.is_zero(c):
                continue
            term = F.mul(c, F.mul(F.pow(p.x0, self.degree - i), F.pow(p.x1, i)))
            acc = F.add(acc, term)
        return acc

    def normalized(self) -> "BinaryForm":
        F = self.field
        pivot = next((c for c in self.coeffs if not F.is_zero(c)), None)
        if pivot is None or F.eq(pivot, F.one):
            return self
        inv = F.inv(pivot)
        return BinaryForm(F, self.degree, [inv * c for c in self.coeffs])

    def scale(self, c) -> "BinaryForm":
        c = self.field.coerce(c)
        return BinaryForm(
            self.field, self.degree, tuple(self.field.mul(c, a) for a in self.coeffs)
        )

    def add(self, other: "BinaryForm") -> "BinaryForm":
        if other.degree != self.degree or other.field != self.field:
            raise ValueError("can only add forms of equal degree over one field")
        F = self.field
        return BinaryForm(
            F, self.degree, tuple(F.add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def multiply(self, other: "BinaryForm") -> "BinaryForm":
        if other.field != self.field:
            raise ValueError("field mismatch")
        F = self.field
        out = [F.zero] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return BinaryForm(F, self.degree + other.degree, tuple(out))

    def derivative_x0(self) -> "BinaryForm":
        F, d = self.field, self.degree
        out = tuple(F.mul(F.coerce(d - i), self.coeffs[i]) for i in range(d))
        return BinaryForm(F, d - 1, out)

    def derivative_x1(self) -> "BinaryForm":
        F, d = self.field, self.degree
        out = tuple(F.mul(F.coerce(i), self.coeffs[i]) for i in range(1, d + 1))
        return BinaryForm(F, d - 1, out)

    def vanishing_order_at(self, p: ProjPoint) -> int:
        """Multiplicity of p as a root (0 if none); degree+1 flags the zero form."""
        for i, c in enumerate(_move_to_origin(self, p)):
            if not self.field.is_zero(c):
                return i
        return self.degree + 1

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "coeffs": list(map(str, self.coeffs))}

    @classmethod
    def from_json_dict(cls, field: Field, data: dict) -> "BinaryForm":
        return cls(field, int(data["degree"]), tuple(data["coeffs"]))


def _move_to_origin(form: BinaryForm, p: ProjPoint, order: int | None = None) -> list:
    """The first order (default all) Taylor coefficients of the form at p.

    They are the coefficients of the form with p moved to [1:0]: of
    f(x0*X, x1*X + Y), and of f(Y, x1*X) at [0:1].  So coefficient t is the
    sum over i >= t of c_i C(i, t) x0^(k-i) x1^(i-t), and c_(k-t) x1^(k-t)
    at [0:1].  A ProjPoint is normalized to [1:x1] or [0:1].  At [0:1] they
    are the coefficients reversed.  At [1:x1] they are the chart polynomial
    sum c_i y^i shifted to y = x1, by repeated Horner steps (step t leaves
    coefficient t final), reduced mod q once at the end.
    """
    F, k = form.field, form.degree
    order = k + 1 if order is None else order
    if F.is_zero(p.x0):
        return list(form.coeffs[::-1][:order])
    d, x1 = list(form.coeffs), p.x1
    for t in range(min(order, k)):
        for i in range(k - 1, t - 1, -1):
            d[i] += x1 * d[i + 1]
    return [c % F.q for c in d[:order]] if F.q else d[:order]


def linear_form(p: ProjPoint) -> BinaryForm:
    """The degree-1 form vanishing exactly at p."""
    F = p.field
    return BinaryForm(F, 1, (p.x1, F.neg(p.x0)))


def form_power(form: BinaryForm, k: int) -> BinaryForm:
    """The k-th power of a linear form a*x0 + b*x1, by the binomial theorem.

    Coefficient i is C(k, i) a^(k-i) b^i, so the power takes O(k) field
    operations.
    """
    if form.degree != 1:
        raise ValueError("form_power raises linear forms only")
    F = form.field
    a, b = form.coeffs
    a_powers = [F.one]
    for _ in range(k):
        a_powers.append(F.mul(a_powers[-1], a))
    coeffs, b_power, binom = [], F.one, 1
    for i in range(k + 1):
        coeffs.append(F.mul(F.coerce(binom), F.mul(a_powers[k - i], b_power)))
        b_power, binom = F.mul(b_power, b), binom * (k - i) // (i + 1)
    return BinaryForm(F, k, tuple(coeffs))


# ---------------------------------------------------------------------------
# univariate helpers (coefficient lists ascending in the chart coordinate x1/x0)


def _trim(F: Field, p: list) -> list:
    while p and F.is_zero(p[-1]):
        p.pop()
    return p


def _poly_divmod(F: Field, a: list, b: list) -> tuple[list, list]:
    a, b = _trim(F, list(a)), _trim(F, list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    quot = [F.zero] * (len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    rem = a
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = F.mul(rem[-1], inv_lead)
        quot[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(factor, bc))
        rem.pop()  # leading entry is exactly zero now
        rem = _trim(F, rem)
    return quot, rem


def _poly_gcd(F: Field, a: list, b: list) -> list:
    a, b = _trim(F, list(a)), _trim(F, list(b))
    while b:
        _, r = _poly_divmod(F, a, b)
        a, b = b, r
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(inv, c) for c in a]
    return a


def _poly_derivative(F: Field, p: list) -> list:
    return _trim(F, [F.mul(F.coerce(i), c) for i, c in enumerate(p)][1:])


def _poly_squarefree(F: Field, p: list) -> bool:
    """Squarefreeness test, valid in every characteristic.

    Over a perfect field irreducibles are separable, so gcd(p, p') is constant
    exactly when p is squarefree; p' = 0 with deg p >= 1 means a p-th power.
    """
    p = _trim(F, list(p))
    if len(p) <= 1:
        return True
    d = _poly_derivative(F, p)
    if not d:
        return False
    return len(_poly_gcd(F, p, d)) == 1


def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Greatest common divisor of two binary forms, first nonzero coefficient 1.

    The chart polynomial is the coefficient list itself; the residual power of
    x0 accounts for common vanishing at [0:1].
    """
    if f.field != g.field:
        raise ValueError("field mismatch")
    F = f.field
    pf, pg = _trim(F, list(f.coeffs)), _trim(F, list(g.coeffs))
    if not pf and not pg:
        raise ValueError("gcd of two zero forms")
    if not pf:
        return g.normalized()
    if not pg:
        return f.normalized()
    x0_mult = min(f.degree - (len(pf) - 1), g.degree - (len(pg) - 1))
    core = _poly_gcd(F, pf, pg)
    coeffs = core + [F.zero] * x0_mult
    return BinaryForm(F, len(coeffs) - 1, tuple(coeffs)).normalized()


def squarefree_form(f: BinaryForm) -> bool:
    """Whether f has no repeated root in the algebraic closure."""
    F = f.field
    p = _trim(F, list(f.coeffs))
    if not p:
        raise ValueError("zero form")
    x0_mult = f.degree - (len(p) - 1)
    return x0_mult <= 1 and _poly_squarefree(F, p)


def _value(p: list, t):
    """p(t) for a coefficient list ascending in t, by Horner."""
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _roots_mod(q: int, p: list[int]) -> list[int]:
    """The t in 0..q-1, ascending, with p(t) = 0 mod q, for integer coefficients p.

    Horner at every t on plain residues, _SCAN_CHUNK values of t at a time.
    """
    if q * len(p) > MAX_ROOT_SCAN_STEPS:
        raise ResourceLimit(f"a root scan of F_{q} takes {q * len(p)} steps, "
                            f"over the cap of {MAX_ROOT_SCAN_STEPS}")
    roots: list[int] = []
    for lo in range(0, q, _SCAN_CHUNK):
        ts = range(lo, min(lo + _SCAN_CHUNK, q))
        values = [p[-1] % q] * len(ts)
        for c in reversed(p[:-1]):
            values = [(v * t + c) % q for t, v in zip(ts, values)]
        roots += [t for t, v in zip(ts, values) if v == 0]
    return roots


def rational_roots(f: BinaryForm) -> list[tuple[ProjPoint, int]]:
    """Roots defined over the base field, with multiplicities.

    [0:1] is a root when p(t) = f(1, t) has lower degree than f.  The roots
    [1:t] come from one root finder, _roots_mod.  Over F_q it scans F_q.  Over
    Q it scans the squarefree part s of p, cleared to integers, mod the least
    odd prime l dividing neither lc(s) nor disc(s); each root mod l is simple
    and lifts l-adically, one digit per step.  lc(s) t is an integer of size at
    most sum |s_i| (Cauchy's bound), so once the modulus passes twice that,
    the symmetric residue of lc(s) times the lift is lc(s) t.  A candidate is
    kept if s vanishes there exactly (Loos, SIAM J. Comput. 12, 1983).  The
    order is [0:1], then t = 0, then the other t ascending.
    """
    F = f.field
    p = _trim(F, list(f.coeffs))
    if not p:
        raise ValueError("zero form")
    if F.q:
        ts = _roots_mod(F.q, p)
    else:
        s, _ = _poly_divmod(F, p, _poly_gcd(F, p, _poly_derivative(F, p)))
        scale = lcm(*(c.denominator for c in s))
        s = [int(c * scale) for c in s]
        lc, ell = s[-1], 3
        while lc % ell == 0 or not _poly_squarefree(Field(ell), [c % ell for c in s]):
            ell = next(n for n in count(ell + 2, 2) if _is_prime(n))
        ds, bound, ts = [i * c for i, c in enumerate(s)][1:], 2 * sum(map(abs, s)), []
        for r in _roots_mod(ell, s):
            inv, m = pow(_value(ds, r), -1, ell), ell
            while m <= bound:
                m *= ell
                r = (r - _value(s, r) * inv) % m
            a = lc * r % m
            t = Fraction(a - m if 2 * a > m else a, lc)
            if _value(s, t) == 0:
                ts.append(t)
        ts.sort(key=lambda t: (t != 0, t))
    points = [ProjPoint(F, 0, 1)] * (len(p) <= f.degree) + [ProjPoint(F, 1, t) for t in ts]
    return [(pt, f.vanishing_order_at(pt)) for pt in points]


# ---------------------------------------------------------------------------
# plane curves


@lru_cache(maxsize=None)
def curve_monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (a, b, c) for u^a v^b w^c, a descending then b descending."""
    out = []
    for a in range(degree, -1, -1):
        for b in range(degree - a, -1, -1):
            out.append((a, b, degree - a - b))
    return tuple(out)


class PlaneCurve(Frozen):
    field: Field
    degree: int
    coeffs: tuple

    def __init__(self, field: Field, degree: int, coeffs):
        coeffs = field.coerce_all(coeffs)
        if len(coeffs) != len(curve_monomials(degree)):
            raise ValueError("coefficient count does not match the degree")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_monomial_dict(cls, field: Field, degree: int, data: dict) -> "PlaneCurve":
        index = {m: i for i, m in enumerate(curve_monomials(degree))}
        coeffs = [field.zero] * len(index)
        for expo, c in data.items():
            coeffs[index[tuple(expo)]] = field.coerce(c)
        return cls(field, degree, tuple(coeffs))

    def monomial_dict(self) -> dict:
        return {
            m: c
            for m, c in zip(curve_monomials(self.degree), self.coeffs)
            if not self.field.is_zero(c)
        }

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def evaluate(self, sp: SymPoint) -> Element:
        F = self.field
        if sp.field != F:
            raise ValueError("point and curve fields differ")
        u, v, w = sp.coords()
        acc = F.zero  # plain products and sums, reduced mod q once at the end
        for (a, b, c), coef in zip(curve_monomials(self.degree), self.coeffs):
            if coef:
                acc += coef * u**a * v**b * w**c
        return acc % F.q if F.q else acc

    def contains(self, sp: SymPoint) -> bool:
        return self.field.is_zero(self.evaluate(sp))

    def normalized(self) -> "PlaneCurve":
        F = self.field
        pivot = next((c for c in self.coeffs if not F.is_zero(c)), None)
        if pivot is None or F.eq(pivot, F.one):
            return self
        inv = F.inv(pivot)
        return PlaneCurve(F, self.degree, [inv * c for c in self.coeffs])

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "coeffs": list(map(str, self.coeffs))}


def sum_line(p: ProjPoint) -> PlaneCurve:
    """The line swept by sym_point(p, .), tangent to the diagonal conic at 2p."""
    F = p.field
    a, b = p.x0, p.x1
    return PlaneCurve(F, 1, (F.mul(b, b), F.neg(F.mul(a, b)), F.mul(a, a)))


def diagonal_conic(field: Field) -> PlaneCurve:
    """v^2 - 4uw, the image of the diagonal."""
    return PlaneCurve.from_monomial_dict(
        field, 2, {(0, 2, 0): 1, (1, 0, 1): -4}
    )


# ---------------------------------------------------------------------------
# pencils


class Pencil(Frozen):
    """Two linearly independent binary forms of one degree, spanning the pencil."""

    f: BinaryForm
    g: BinaryForm

    def __init__(self, f: BinaryForm, g: BinaryForm):
        if f.field != g.field:
            raise ValueError("generators live over different fields")
        if f.degree != g.degree:
            raise ValueError("generators must have equal degree")
        if f.degree < 1:
            raise ValueError("degree must be at least 1")
        if _dependent(f, g):
            raise DegeneratePencil("generators are linearly dependent")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    @property
    def field(self) -> Field:
        return self.f.field

    @property
    def degree(self) -> int:
        return self.f.degree

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.label(),
            "f": self.f.to_json_dict(),
            "g": self.g.to_json_dict(),
        }


def _trusted_pencil(field: Field, degree: int, f: tuple, g: tuple) -> Pencil:
    """Pencil(BinaryForm(field, degree, f), BinaryForm(field, degree, g)), unchecked.

    f and g must be tuples of degree + 1 plain ints in 0..q-1 and linearly
    independent, as a search's echelon pairs are; the value equals, and
    hashes as, the checked one.  It skips coerce_all and _dependent, about
    four fifths of the checked construction.
    """
    f_form, g_form = object.__new__(BinaryForm), object.__new__(BinaryForm)
    vars(f_form).update(field=field, degree=degree, coeffs=f)
    vars(g_form).update(field=field, degree=degree, coeffs=g)
    pencil = object.__new__(Pencil)
    vars(pencil).update(f=f_form, g=g_form)
    return pencil


def _dependent(f: BinaryForm, g: BinaryForm) -> bool:
    """Whether f and g are linearly dependent: every 2 x 2 minor of their coefficients vanishes.

    If some coefficient column (a, b) = (f_i, g_i) is nonzero, the others are
    its multiples exactly when their minors with it vanish; the test stops at
    the first minor that does not.  Two zero forms are dependent.
    """
    q = f.field.q
    columns = list(zip(f.coeffs, g.coeffs))
    a, b = next((col for col in columns if any(col)), (0, 0))
    for c, d in columns:
        minor = a * d - b * c
        if minor % q if q else minor:
            return False
    return True


def change_basis(pencil: Pencil, a, b, c, d) -> Pencil:
    """The same pencil presented by generators (a f + b g, c f + d g)."""
    F = pencil.field
    a, b, c, d = (F.coerce(t) for t in (a, b, c, d))
    det = F.sub(F.mul(a, d), F.mul(b, c))
    if F.is_zero(det):
        raise DegeneratePencil("basis change has zero determinant")
    return Pencil(
        pencil.f.scale(a).add(pencil.g.scale(b)),
        pencil.f.scale(c).add(pencil.g.scale(d)),
    )


def plucker_coordinates(pencil: Pencil) -> dict[tuple[int, int], Element]:
    """The minors f_i g_j - f_j g_i for i < j."""
    F = pencil.field
    f, g = pencil.f.coeffs, pencil.g.coeffs
    return {
        (i, j): F.sub(F.mul(f[i], g[j]), F.mul(f[j], g[i]))
        for i in range(len(f))
        for j in range(i + 1, len(f))
    }


# ---------------------------------------------------------------------------
# the induced plane curve


@lru_cache(maxsize=None)
def _wedge_terms(k: int, i: int, j: int) -> tuple:
    """Monomials (a, b, c) and integer coefficients of a coordinate pencil's curve.

    The coordinate pencil is (x0^(k-i) x1^i, x0^(k-j) x1^j).  bezoutian_curve
    combines these curves, and compile_constraint evaluates them at a point.

    With A = x0*y1, B = x1*y0 and m = j-i-1, the coordinate pencil's
    f(x)g(y) - f(y)g(x) is u^(k-j) w^i (A^(m+1) - B^(m+1)).  Divided by
    A - B it is u^(k-j) w^i sum_t A^(m-t) B^t, and that sum is
    sum_l (-1)^l C(m-l, l) (A+B)^(m-2l) (AB)^l with A + B = v and AB = uw.
    """
    m = j - i - 1
    return tuple(
        ((k - j + l, m - 2 * l, i + l), (-1) ** l * comb(m - l, l))
        for l in range(m // 2 + 1)
    )


@lru_cache(maxsize=None)
def _bezoutian_plan(k: int) -> tuple:
    """(i, j, terms) for i < j: the _wedge_terms of (i, j) as (index in curve_monomials(k - 1),
    integer coefficient) pairs."""
    index = {expo: n for n, expo in enumerate(curve_monomials(k - 1))}
    return tuple(
        (i, j, tuple((index[expo], c) for expo, c in _wedge_terms(k, i, j)))
        for i in range(k + 1)
        for j in range(i + 1, k + 1)
    )


def bezoutian_curve(pencil: Pencil) -> PlaneCurve:
    """The degree k-1 plane curve swept by the pairs lying in single members.

    f(x)g(y) - f(y)g(x) is the sum over i < j of the Plucker coordinate
    f_i g_j - f_j g_i times the same expression for the coordinate pencil
    (x0^(k-i) x1^i, x0^(k-j) x1^j).  So its quotient by x0*y1 - x1*y0 is the
    Plucker-coordinate combination of the coordinate pencils' curves.  It is
    nonzero because Pencil refuses dependent generators, and it is normalized
    so its first nonzero coefficient is 1.
    """
    k = pencil.degree
    f, g = pencil.f.coeffs, pencil.g.coeffs
    coeffs = [0] * len(curve_monomials(k - 1))  # plain sums; PlaneCurve reduces them once
    for i, j, terms in _bezoutian_plan(k):
        # the Plucker coordinate, unreduced: plucker_coordinates reduces
        # each minor, which doubled this function's time at k = 3
        p = f[i] * g[j] - f[j] * g[i]
        if p:
            for n, c in terms:
                coeffs[n] += p * c
    return PlaneCurve(pencil.field, k - 1, coeffs).normalized()


# ---------------------------------------------------------------------------
# fibers, base loci, ramification


def is_base_point(pencil: Pencil, p: ProjPoint) -> bool:
    F = pencil.field
    return F.is_zero(pencil.f.evaluate(p)) and F.is_zero(pencil.g.evaluate(p))


def same_fiber(pencil: Pencil, p: ProjPoint, q: ProjPoint, strict: bool = True) -> bool:
    """Whether some member of the pencil vanishes at both p and q.

    Decided by the vanishing of det [[f(p), g(p)], [f(q), g(q)]].  When both
    points lie in the base locus every member works; strict=True raises
    BasePointAmbiguity there, strict=False returns True.
    """
    F = pencil.field
    fp, gp = pencil.f.evaluate(p), pencil.g.evaluate(p)
    fq, gq = pencil.f.evaluate(q), pencil.g.evaluate(q)
    if all(F.is_zero(t) for t in (fp, gp, fq, gq)):
        if strict:
            raise BasePointAmbiguity(
                "both points are base points; every member contains both"
            )
        return True
    return F.is_zero(F.sub(F.mul(fp, gq), F.mul(fq, gp)))


def base_locus(pencil: Pencil) -> BinaryForm:
    """gcd of the generators; degree 0 means base point free."""
    return binary_gcd(pencil.f, pencil.g)


def has_multiple_base_points(pencil: Pencil) -> bool:
    """Whether the base divisor contains a point twice."""
    return not squarefree_form(base_locus(pencil))


def wronskian(pencil: Pencil) -> BinaryForm:
    """f dg - g df with respect to the chart coordinate, assembled as a form.

    Computed on both standard charts (f*d1(g) - g*d1(f) divided by x0, and the
    x1-chart companion), which must agree up to sign; vanishing orders are the
    ramification indices minus one.  Base points and characteristic <= degree
    are refused.
    """
    F = pencil.field
    k = pencil.degree
    if 0 < F.q <= k:
        raise CharacteristicObstruction(
            f"characteristic {F.q} too small for degree {k} Wronskians"
        )
    if base_locus(pencil).degree > 0:
        raise BasePointPresent("remove the base divisor first: see base_locus")
    f, g = pencil.f, pencil.g
    h1 = f.multiply(g.derivative_x1()).add(g.multiply(f.derivative_x1()).scale(-1))
    if not F.is_zero(h1.coeffs[-1]):
        raise AssertionError("chart-1 Wronskian not divisible by x0")
    w1 = BinaryForm(F, 2 * k - 2, tuple(h1.coeffs[:-1]))
    h0 = f.multiply(g.derivative_x0()).add(g.multiply(f.derivative_x0()).scale(-1))
    if not F.is_zero(h0.coeffs[0]):
        raise AssertionError("chart-0 Wronskian not divisible by x1")
    w0 = BinaryForm(F, 2 * k - 2, tuple(h0.coeffs[1:]))
    if any(not F.eq(c1, F.neg(c0)) for c1, c0 in zip(w1.coeffs, w0.coeffs)):
        raise AssertionError("chart Wronskians disagree")
    return w1


def has_ramification_at(pencil: Pencil, p: ProjPoint, order: int) -> bool:
    """Whether some nonzero member vanishes to order >= `order` at p.

    Moves p to [1:0] and checks that the 2 x order matrix of leading Taylor
    coefficients of the generators has rank <= 1 (all 2x2 minors vanish).
    Valid in every odd characteristic: no derivatives are taken.
    """
    if not 2 <= order <= pencil.degree:
        raise ValueError(f"order must lie in 2..{pencil.degree}")
    q = pencil.field.q
    ft = _move_to_origin(pencil.f, p, order)
    gt = _move_to_origin(pencil.g, p, order)
    for a in range(order):
        for b in range(a + 1, order):
            minor = ft[a] * gt[b] - ft[b] * gt[a]  # on plain residues, reduced once
            if minor % q if q else minor:
                return False
    return True


def total_ramification_pencil(a: ProjPoint, b: ProjPoint, k: int) -> Pencil:
    """The unique pencil spanned by the k-th powers of the lines through a and b.

    k > MAX_TOTAL_RAM_K raises ResourceLimit.
    """
    if a.field != b.field:
        raise ValueError("points live over different fields")
    if a == b:
        raise CoincidentPoints("total ramification needs two distinct points")
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > MAX_TOTAL_RAM_K:
        raise ResourceLimit(f"k={k} beyond guard k<={MAX_TOTAL_RAM_K}")
    fa = form_power(linear_form(a), k).normalized()
    fb = form_power(linear_form(b), k).normalized()
    return Pencil(fa, fb)


# ---------------------------------------------------------------------------
# elimination and reducedness of plane curves


def _integer_det(rows: list) -> int:
    """Determinant of a square integer matrix, a list of rows that it may reorder,
    by Bareiss's fraction-free elimination: each entry of the minor left after
    a step is a minor of the matrix, so each division by the previous pivot
    is exact."""
    sign, prev = 1, 1
    while rows:  # eliminate the first column, then go on with the minor left
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            sign = -sign
        (pivot, *tail), *rest = rows
        rows = [[(pivot * e - row[0] * f) // prev for e, f in zip(row[1:], tail)] for row in rest]
        prev = pivot
    return sign * prev


def _interpolate(values: list) -> list:
    """Ascending coefficients of the polynomial of degree < len(values) that
    takes values[t] at t = 0, 1, 2, ... (Newton divided differences)."""
    c = [Fraction(v) for v in values]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    poly: list = []
    for i in range(len(c) - 1, -1, -1):  # Horner: poly * (x - i) + c[i]
        poly = [s - i * p for s, p in zip([Fraction(0)] + poly, poly + [0])]
        poly[0] += c[i]
    return poly


def _cleared(curve: PlaneCurve, var: int) -> tuple[list, int]:
    """The curve as a polynomial in var with integer coefficients, and its scale.

    Entry i is the coefficient of var^i at (p0 : p1) = (1 : t), the other
    two variables taken in (u, v, w) order, as a list of degree + 1 integers
    ascending in t; the list ends at the curve's degree in var.  Over Q the
    scale is the lcm of the denominators, which clears them.  An F_q residue
    is an integer in 0..q-1 already, nonzero exactly when the residue is,
    and its scale is 1.
    """
    scale = lcm(*(c.denominator for c in curve.coeffs))
    by_power = [[0] * (curve.degree + 1) for _ in range(curve.degree + 1)]
    for expo, c in zip(curve_monomials(curve.degree), curve.coeffs):
        rest = expo[:var] + expo[var + 1:]
        by_power[expo[var]][rest[1]] = c.numerator * (scale // c.denominator)
    while len(by_power) > 1 and not any(by_power[-1]):
        by_power.pop()
    return by_power, scale


def _resultant_values(a: list, b: list):
    """The resultant in var of two _cleared curves, at t = 0..D in order.

    D is its degree (see curve_resultant).  Each value is the integer
    determinant of their Sylvester matrix at t: the resultant of the integer
    lifts, exact over Q once divided by the scales, and over F_q congruent
    to the resultant there.
    """
    (m, da), (n, db) = ((len(c) - 1, len(c[0]) - 1) for c in (a, b))
    for t in range(da * n + db * m - m * n + 1):
        powers = [t**e for e in range(max(da, db) + 1)]
        ca, cb = ([sum(map(mul, row, powers)) for row in reversed(c)] for c in (a, b))
        rows = [[0] * i + ca + [0] * (n - 1 - i) for i in range(n)]
        rows += [[0] * i + cb + [0] * (m - 1 - i) for i in range(m)]
        yield _integer_det(rows)


def curve_resultant(a: PlaneCurve, b: PlaneCurve, var: int) -> list:
    """Res_var(a, b) of two curves over one field, as a binary form's coefficients.

    With m and n the actual degrees of a and b in the variable, the resultant
    is the determinant of their (m+n) x (m+n) Sylvester matrix, a form of
    degree D = deg(a)*n + deg(b)*m - m*n in the other two variables (p0, p1),
    taken in (u, v, w) order.  It is evaluated at (p0 : p1) = (1 : t) for
    t = 0..D and interpolated over Q; entry i of the result is the
    coefficient of p0^(D-i) * p1^i, in the curves' field.  The curves'
    coefficients are cleared to integers first (_cleared), and the
    resultant, of degree n in a's coefficients and m in b's, is divided by
    scale_a^n * scale_b^m at the end.

    Over F_q each residue is lifted to 0..q-1 and the integer resultant is
    reduced at the end.  That is exact: a lift is nonzero exactly when its
    residue is, so m and n are the degrees over F_q too, and the determinant
    is an integer polynomial in the matrix entries.  The evaluation points
    are distinct integers, so F_q needs no D+1 points of its own; the values
    mod q would not do once D >= q, as the points t then repeat mod q.
    """
    (pa, sa), (pb, sb) = _cleared(a, var), _cleared(b, var)
    m, n = len(pa) - 1, len(pb) - 1
    values = list(_resultant_values(pa, pb))
    return [a.field.coerce(c / (sa**n * sb**m)) for c in _interpolate(values)]


def is_reduced_curve(curve: PlaneCurve) -> bool:
    """Whether the curve is squarefree (no repeated factor), over Q and F_q alike.

    Some repeated factor involves a variable exactly when the discriminant
    Res_var(C, dC/dvar) vanishes identically.  Over F_q that needs q > the
    degree d (else CharacteristicObstruction): dC/dvar keeps its degree and
    every factor is separable.  Only variables of degree m >= 2 are tested,
    as a repeated factor has degree 2 or more in each variable it involves.
    The discriminant is a form of degree D = 2dm - d - m^2 <= d(d - 1) in
    the other two variables; its values at (1 : t), t = 0..D, are taken in
    order, on the curve cleared to integers as in curve_resultant, and the
    first one nonzero in the field clears the variable.  If all vanish they
    are interpolated and reduced: over Q, or F_q with D < q, that gives
    zero, but once D >= q the points repeat mod q, and a nonzero form over
    F_q can vanish at all of them.
    """
    if curve.is_zero():
        raise ValueError("zero curve")
    F, d = curve.field, curve.degree
    if 0 < F.q <= d:
        raise CharacteristicObstruction(f"characteristic {F.q} too small for degree {d}")
    for var in range(3):
        cleared, _ = _cleared(curve, var)
        m = len(cleared) - 1
        if m < 2:
            continue
        # dC/dvar cleared the same way: its degree is d - 1, and m < q keeps m - 1 in var
        partial = [[i * c for c in row[:d]] for i, row in enumerate(cleared)][1:]
        values = []
        for value in _resultant_values(cleared, partial):
            if F.coerce(value):
                break
            values.append(value)
        else:
            if not any(F.coerce(c) for c in _interpolate(values)):
                return False
    return True


# ---------------------------------------------------------------------------
# conic sections of plane curves


class ConicSectionReport(Frozen):
    """Resultant-based summary of curve-conic intersection.

    transversal is a proxy: full expected degree and a squarefree resultant.
    A resultant of two forms is itself a form, so homogeneous is true exactly
    when the resultant is nonzero; the field is kept so the JSON output keeps
    its keys.
    """

    expected_degree: int
    degree: int
    homogeneous: bool
    squarefree: bool | None
    transversal: bool
    resultant: BinaryForm | None

    def to_json_dict(self) -> dict:
        return {
            "expected_degree": self.expected_degree,
            "degree": self.degree,
            "homogeneous": self.homogeneous,
            "squarefree": self.squarefree,
            "transversal": self.transversal,
            "resultant": None if self.resultant is None else self.resultant.to_json_dict(),
        }


def intersect_with_conic(curve: PlaneCurve, conic: PlaneCurve) -> ConicSectionReport:
    """Eliminate w between the curve and a conic; report the (u, v) resultant.

    Transversal intersection shows up as a squarefree resultant of degree
    2 * deg(curve): each of the 2*deg intersection points contributes one
    simple root.  With m and n the actual w-degrees of the curve and the
    conic, the resultant is a form of degree D = deg(curve)*n + 2*m - m*n in
    (u, v), which is 2*deg(curve) when the conic has a w^2 term.
    curve_resultant evaluates the Sylvester determinant at (u : v) = (1 : t)
    for t = 0..D and interpolates.  Over F_q it computes the integer
    resultant of the residues lifted to 0..q-1 and reduces it mod q; that is
    exact because lifting keeps m and n and the determinant is an integer
    polynomial in the matrix entries, and it needs no D+1 points of F_q.
    A resultant that vanishes (over F_q: one divisible by q) means a shared
    component and is reported with degree -1.
    """
    if conic.degree != 2:
        raise ValueError("second argument must be a conic")
    if curve.field != conic.field:
        raise ValueError("field mismatch")
    if curve.is_zero() or conic.is_zero():
        raise ValueError("zero input")
    field = curve.field
    expected = 2 * curve.degree
    coeffs = curve_resultant(curve, conic, 2)
    if all(field.is_zero(c) for c in coeffs):
        return ConicSectionReport(
            expected_degree=expected,
            degree=-1,
            homogeneous=False,
            squarefree=None,
            transversal=False,
            resultant=None,
        )
    form = BinaryForm.from_coeffs(field, coeffs)
    sqf = squarefree_form(form)
    return ConicSectionReport(
        expected_degree=expected,
        degree=form.degree,
        homogeneous=True,
        squarefree=sqf,
        transversal=form.degree == expected and sqf,
        resultant=form,
    )
