"""Dimension counts for pencils with prescribed ramification, and nodal-curve
nonemptiness numerology.

Everything here is integer arithmetic on small inputs.  The central quantity is
the adjusted expected dimension for a degree-k pencil on a genus-g curve with
prescribed ramification orders e_1..e_n at n marked points,

    rho_tilde = 2k - 2 - g - sum(e_i) + n,

which specializes to the classical rho(g, 1, k) = 2k - 2 - g when n = 0.
Severi-style nonemptiness for nodal curves of arithmetic genus p with delta
nodes cut by degree-k pencils is decided by a floor-divided Brill-Noether
inequality; two algebraically equivalent formulations are both evaluated and
compared on every call.  The alpha-tuples behind that test (chain
multiplicities of a degenerate p-section) are enumerated here too, as is the
closed-form count of pencils of degree-k forms over F_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import FormulationMismatch, RiemannHurwitzViolation
from .fields import _is_prime

#: Inputs are capped at this magnitude.  Python integers cannot overflow, so the
#: cap is an interface guard, not an arithmetic necessity.
MAGNITUDE_CAP = 2**31


def _check_magnitude(**values: int) -> None:
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if abs(value) > MAGNITUDE_CAP:
            raise ValueError(f"{name} exceeds the 2^31 input cap: {value}")


def brill_noether_number(g: int, r: int, d: int) -> int:
    """Classical rho(g, r, d) = g - (r+1)(g - d + r)."""
    _check_magnitude(g=g, r=r, d=d)
    if g < 0 or r < 0:
        raise ValueError("g and r must be nonnegative")
    return g - (r + 1) * (g - d + r)


@dataclass(frozen=True)
class RamificationProfile:
    """A genus, a pencil degree and ramification orders at marked points.

    e is the tuple of prescribed orders, one per marked point; each order lies
    in 2..k.  The profile must satisfy the Riemann-Hurwitz bound
    sum(e_i) <= 2(k - 1 + g) + n, otherwise no cover exists and the
    constructor raises RiemannHurwitzViolation.  Genus 0 is allowed (the
    classical range is g >= 1; see `classical`).
    """

    g: int
    k: int
    e: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(self.e))
        _check_magnitude(g=self.g, k=self.k)
        for i, ei in enumerate(self.e):
            _check_magnitude(**{f"e[{i}]": ei})
        if self.g < 0:
            raise ValueError("genus must be nonnegative")
        if self.k < 2:
            raise ValueError("pencil degree k must be at least 2")
        for ei in self.e:
            if not 2 <= ei <= self.k:
                raise ValueError(f"ramification order {ei} outside 2..k={self.k}")
        if self.total_ramification > 2 * (self.k - 1 + self.g) + self.n:
            raise RiemannHurwitzViolation(
                f"sum(e)={self.total_ramification} exceeds "
                f"2(k-1+g)+n={2 * (self.k - 1 + self.g) + self.n}"
            )

    @property
    def n(self) -> int:
        return len(self.e)

    @property
    def total_ramification(self) -> int:
        return sum(self.e)

    @property
    def classical(self) -> bool:
        """Whether the profile sits in the usual g >= 1 range."""
        return self.g >= 1


def adjusted_rho(profile: RamificationProfile) -> int:
    """2k - 2 - g - sum(e_i) + n."""
    return (
        2 * profile.k
        - 2
        - profile.g
        - profile.total_ramification
        + profile.n
    )


def simple_branch_count(profile: RamificationProfile) -> int:
    """Number of residual simple branch points, 2(k-1+g) + n - sum(e_i)."""
    r = 2 * (profile.k - 1 + profile.g) + profile.n - profile.total_ramification
    if r < 0:
        # unreachable through the validating constructor; kept as a hard check
        raise RiemannHurwitzViolation(f"negative simple branch count {r}")
    return r


def hurwitz_dimension(profile: RamificationProfile) -> int:
    """Dimension (3g - 3 + n) + rho_tilde of the space of covers with this profile."""
    return 3 * profile.g - 3 + profile.n + adjusted_rho(profile)


def expected_codimension(profile: RamificationProfile) -> int:
    """max(0, -rho_tilde): expected codimension of the locus in moduli."""
    return max(0, -adjusted_rho(profile))


def expected_pencil_dimension(profile: RamificationProfile) -> int:
    """max(0, rho_tilde): expected dimension of the space of such pencils on a fixed curve."""
    return max(0, adjusted_rho(profile))


class VerdictTag(str, Enum):
    DOMINANT = "Dominant"
    GENERICALLY_FINITE = "GenericallyFinite"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class HurwitzVerdict:
    """Behaviour of the cover space -> moduli-of-curves forgetful map."""

    tag: VerdictTag
    rho_tilde: int
    n_plus_rho: int


def hurwitz_to_moduli_verdict(profile: RamificationProfile) -> HurwitzVerdict:
    """Dominant iff n + rho_tilde >= 0, generically finite otherwise.

    Both verdicts are only certified when rho_tilde >= -g; below that the
    answer is out of range and the tag is Unknown.
    """
    rho = adjusted_rho(profile)
    n_plus_rho = profile.n + rho
    if rho < -profile.g:
        tag = VerdictTag.UNKNOWN
    elif n_plus_rho >= 0:
        tag = VerdictTag.DOMINANT
    else:
        tag = VerdictTag.GENERICALLY_FINITE
    return HurwitzVerdict(tag=tag, rho_tilde=rho, n_plus_rho=n_plus_rho)


def severi_alpha(p: int, delta: int, k: int) -> int:
    """floor((p - delta) / (2(k-1))), the pivot index of the nonemptiness test."""
    _check_magnitude(p=p, delta=delta, k=k)
    if k < 2:
        raise ValueError("k must be at least 2")
    if p < 2:
        raise ValueError("polarization genus p must be at least 2")
    if not 0 <= delta < p:
        raise ValueError("delta must lie in 0..p-1")
    return (p - delta) // (2 * (k - 1))


def severi_nonempty(p: int, delta: int, k: int) -> bool:
    """Whether genus-(p - delta) curves with delta nodes cut by degree-k pencils exist.

    Evaluates rho(p, alpha, k*alpha + delta) >= 0 with alpha = severi_alpha and,
    independently, the equivalent inequality
    delta >= alpha * (p - delta - (k-1)(alpha+1)); a disagreement would be an
    implementation bug and raises FormulationMismatch.
    """
    alpha = severi_alpha(p, delta, k)
    via_rho = brill_noether_number(p, alpha, k * alpha + delta) >= 0
    via_inequality = delta >= alpha * (p - delta - (k - 1) * (alpha + 1))
    if via_rho != via_inequality:
        raise FormulationMismatch(
            f"rho form gave {via_rho}, inequality form gave {via_inequality} "
            f"at (p={p}, delta={delta}, k={k})"
        )
    return via_rho


def delta_zero(p: int, k: int) -> int | None:
    """Least delta in 0..p-1 with severi_nonempty(p, delta, k), or None.

    A binary search, exact because nonemptiness is upward-closed in delta.
    Write m = p - delta and alpha = floor(m / 2(k-1)); the test reads
    p - m >= alpha * (m - (k-1)(alpha+1)).  The left side strictly decreases
    in m.  The right side never decreases in m: for fixed alpha it is linear
    of slope alpha >= 0, and where alpha steps up at m = 2(k-1)(alpha+1) both
    alpha and alpha+1 give (k-1)alpha(alpha+1), so it has no downward jump.
    Raising delta lowers m, so the test, once true, stays true.
    """
    _check_magnitude(p=p, k=k)
    if p <= 0:
        return None
    # delta = p - 1 is the top of the range; this call also validates p and k
    if not severi_nonempty(p, p - 1, k):
        return None
    lo, hi = 0, p - 1  # the answer lies in lo..hi, and hi is nonempty
    while lo < hi:
        mid = (lo + hi) // 2
        if severi_nonempty(p, mid, k):
            hi = mid
        else:
            lo = mid + 1
    return hi


def profile_report(profile: RamificationProfile) -> dict:
    """Flat JSON-ready summary of every numerical invariant of the profile."""
    verdict = hurwitz_to_moduli_verdict(profile)
    return {
        "g": profile.g,
        "k": profile.k,
        "n": profile.n,
        "e": list(profile.e),
        "rho": brill_noether_number(profile.g, 1, profile.k),
        "rho_tilde": adjusted_rho(profile),
        "r": simple_branch_count(profile),
        "hurwitz_dim": hurwitz_dimension(profile),
        "codim": expected_codimension(profile),
        "verdict": verdict.tag.value,
    }


# ---------------------------------------------------------------------------
# alpha-tuples


@dataclass(frozen=True)
class AlphaTuple:
    """Chain multiplicities (alpha_1..alpha_p) of a degenerate p-section."""

    p: int
    alphas: tuple

    def __post_init__(self):
        alphas = tuple(int(a) for a in self.alphas)
        if self.p < 1:
            raise ValueError("p must be positive")
        if len(alphas) != self.p:
            raise ValueError(f"need exactly {self.p} multiplicities")
        if any(a < 0 for a in alphas):
            raise ValueError("multiplicities must be nonnegative")
        if sum(j * a for j, a in enumerate(alphas, start=1)) != self.p:
            raise ValueError("weighted chain lengths must sum to p")
        object.__setattr__(self, "alphas", alphas)
        # g = sum alpha_j and p - delta count the same nodes two ways
        assert self.genus == self.p - self.delta

    @property
    def delta(self) -> int:
        return sum((j - 1) * a for j, a in enumerate(self.alphas, start=1))

    @property
    def genus(self) -> int:
        return sum(self.alphas)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "alphas": list(self.alphas),
            "delta": self.delta,
            "genus": self.genus,
        }


def _alpha_walk(p: int, delta: int, k: int):
    """Yield each (a_1..a_p) with sum j*a_j = p, sum (j-1)*a_j = delta, a_j <= 2(k-1).

    a_p is chosen first, down to a_2; a_1 is then forced to the remaining p.
    """
    if not 0 <= delta < p:
        raise ValueError("need 0 <= delta < p")
    if k < 2:
        raise ValueError("k must be at least 2")
    cap = 2 * (k - 1)

    def walk(j: int, rem_p: int, rem_delta: int, acc: tuple):
        if j == 1:
            if rem_delta == 0 and rem_p <= cap:
                yield (rem_p,) + acc
            return
        top = min(cap, rem_p // j, rem_delta // (j - 1))
        for a in range(top + 1):
            yield from walk(j - 1, rem_p - j * a, rem_delta - (j - 1) * a, (a,) + acc)

    yield from walk(p, p, delta, ())


def enumerate_alpha(p: int, delta: int, k: int) -> list[AlphaTuple]:
    """All tuples with sum j*a_j = p, sum (j-1)*a_j = delta, a_j <= 2(k-1).

    Returned in lexicographic order of (a_1..a_p).  An empty list is a valid
    answer; it matches the emptiness of the corresponding nodal family.
    """
    return [AlphaTuple(p, t) for t in sorted(_alpha_walk(p, delta, k))]


def exists_alpha(p: int, delta: int, k: int) -> bool:
    """Nonemptiness of enumerate_alpha: stops at the first tuple found."""
    return next(_alpha_walk(p, delta, k), None) is not None


# ---------------------------------------------------------------------------
# pencils over F_q


def grassmannian_pencil_count(k: int, q: int) -> int:
    """Number of pencils of degree-k forms over F_q: lines in P^k(F_q).

    q = 2 is allowed: the count needs no conic, unlike the rest of F_q work.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not _is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    N = k + 1
    num = (q**N - 1) * (q**N - q)
    den = (q**2 - 1) * (q**2 - q)
    assert num % den == 0
    return num // den
