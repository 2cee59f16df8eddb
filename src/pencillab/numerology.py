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

import math
from enum import Enum
from itertools import accumulate
from operator import add, mul

from .errors import FormulationMismatch, Frozen, ResourceLimit, RiemannHurwitzViolation
from .fields import _is_prime

#: Inputs are capped at this magnitude.  Python integers cannot overflow, so the
#: cap is an interface guard, not an arithmetic necessity.
MAGNITUDE_CAP = 2**31


# enumerate_alpha refuses with ResourceLimit to list more than MAX_ALPHA_TUPLES
# tuples, or to count them (_count_alpha) in more than MAX_ALPHA_STEPS steps,
# g * min(g, 2(k-1)) * (delta + 1) for g = p - delta chains.  A step of the
# count took 60-130 ns on a shared 2-vCPU VM (more as the counts grow long),
# so the count stays near 0.5 s; the listing took about 70 us a tuple at
# (100, 95, 2), so up to about 7 s at the tuple cap.
MAX_ALPHA_TUPLES = 100_000
MAX_ALPHA_STEPS = 4_000_000

# grassmannian_pencil_count refuses a count of more than MAX_COUNT_DIGITS
# digits, about 2(k - 1) log10 q, before any arithmetic; such a count took
# about 10 ms at k = 59000 over F_7 (99720 digits).
MAX_COUNT_DIGITS = 100_000


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


class RamificationProfile(Frozen):
    """A genus, a pencil degree and ramification orders at marked points.

    e is the tuple of prescribed orders, one per marked point; each order lies
    in 2..k.  The profile must satisfy the Riemann-Hurwitz bound
    sum(e_i) <= 2(k - 1 + g) + n, otherwise no cover exists and the
    constructor raises RiemannHurwitzViolation.  Genus 0 is allowed, though
    the classical range is g >= 1.
    """

    g: int
    k: int
    e: tuple[int, ...]

    def __init__(self, g: int, k: int, e=()):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "e", tuple(e))
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


class HurwitzVerdict(Frozen):
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


class AlphaTuple(Frozen):
    """Chain multiplicities (alpha_1..alpha_p) of a degenerate p-section."""

    p: int
    alphas: tuple

    def __init__(self, p: int, alphas):
        # every pass below runs in C, so long tuples are checked at C speed;
        # int() costs a call an entry, so it runs only on tuples that need it
        alphas = tuple(alphas)
        if set(map(type, alphas)) != {int}:
            alphas = tuple(map(int, alphas))
        if p < 1:
            raise ValueError("p must be positive")
        if len(alphas) != p:
            raise ValueError(f"need exactly {p} multiplicities")
        if min(alphas) < 0:
            raise ValueError("multiplicities must be nonnegative")
        if sum(map(mul, range(1, p + 1), alphas)) != p:
            raise ValueError("weighted chain lengths must sum to p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alphas", alphas)
        # g = sum alpha_j and p - delta count the same nodes two ways
        assert self.genus == self.p - self.delta

    @property
    def delta(self) -> int:
        return sum(map(mul, range(self.p), self.alphas))

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


def _check_alpha_args(p: int, delta: int, k: int) -> None:
    if not 0 <= delta < p:
        raise ValueError("need 0 <= delta < p")
    if k < 2:
        raise ValueError("k must be at least 2")


def _least_sum(count: int, cap: int) -> int:
    """Least total of count positive lengths, each used at most cap times.

    It fills lengths 1, 2, ... with cap each: writing count = cap*m + r with
    0 <= r < cap, that is cap*m(m+1)/2 + r(m+1).
    """
    m, r = divmod(count, cap)
    return cap * m * (m + 1) // 2 + r * (m + 1)


def _can_fill(count: int, total: int, top: int, cap: int) -> bool:
    """Whether count lengths from 1..top, each used at most cap times, can sum to total.

    The least total fills from length 1 up and the greatest, by the symmetry
    s -> top + 1 - s, from top down.  Every total between is reached: unless
    the lengths are already filled from the top, some length s < top is used
    while s + 1 is used fewer than cap times, and moving one s to s + 1 adds 1.
    """
    least = _least_sum(count, cap)
    return count <= cap * top and least <= total <= count * (top + 1) - least


def _alpha_walk(p: int, delta: int, k: int):
    """Yield each (a_1..a_p) with sum j*a_j = p, sum (j-1)*a_j = delta, a_j <= 2(k-1).

    Such a tuple is g = p - delta chains whose lengths sum to p.  a_p is
    chosen first, down to a_1, and a choice a_j = a is entered only if the
    chains left can still take lengths 1..j-1 summing to the rest of p
    (_can_fill), so every branch entered yields a tuple.  A chain longer than
    the rest of p less the least total of the other chains left cannot fit,
    so the walk sets those lengths to 0 at once and goes on from the longest
    that can: a tuple opens at most one frame per length up to its longest
    chain, not one per length up to p.  The walk keeps its own stack, so its
    depth never meets Python's recursion limit.
    """
    _check_alpha_args(p, delta, k)
    cap = 2 * (k - 1)
    alphas = [0] * p

    def longest(rem_p: int, rem_g: int) -> int:
        return rem_p - _least_sum(rem_g - 1, cap) if rem_g else 0

    def frame(j: int, rem_p: int, rem_g: int):
        top = min(cap, rem_g, rem_p // j)
        fits = [a for a in range(top + 1) if _can_fill(rem_g - a, rem_p - j * a, j - 1, cap)]
        return j, rem_p, rem_g, iter(fits)

    stack = [frame(longest(p, p - delta), p, p - delta)]
    while stack:
        j, rem_p, rem_g, fits = stack[-1]
        a = next(fits, None)
        if a is None:
            stack.pop()
            continue
        alphas[j - 1] = a
        rest_p, rest_g = rem_p - j * a, rem_g - a
        top = min(j - 1, longest(rest_p, rest_g))
        alphas[top : j - 1] = [0] * (j - 1 - top)
        if top:
            stack.append(frame(top, rest_p, rest_g))
        else:
            yield tuple(alphas)


def _count_alpha(p: int, delta: int, k: int) -> int:
    """The number of tuples _alpha_walk yields, by a dynamic program.

    A tuple is g = p - delta chains whose lengths sum to p, each length used
    at most cap = 2(k-1) times.  Less one step each, the c = g - a_1 chains
    longer than 1 are a partition of delta into c parts, each size used at
    most cap times, and a_1 <= cap.  Let f_c(n) count those partitions of n.
    Either no part is 1, and lowering every part by one leaves a partition of
    n - c into c parts, or m = 1..cap parts are 1, and lowering the others
    leaves one of n - c into c - m parts:

        f_c(n) = f_c(n - c) + sum_{m=1..min(cap, c)} f_{c-m}(n - c),  f_0(n) = [n = 0],

    so column c is a running sum, along each residue class mod c, of the cap
    columns before it, and the answer is the sum of f_c(delta) over
    g - cap <= c <= g: about g * min(g, cap) * (delta + 1) steps.
    """
    _check_alpha_args(p, delta, k)
    g, cap = p - delta, min(p - delta, 2 * (k - 1))
    window = [[1] + [0] * delta]  # f_{c-cap} .. f_{c-1}
    total = window[0][delta] if g <= cap else 0
    for c in range(1, g + 1):
        f = [0] * (delta + 1)
        for prev in window:
            f[c:] = map(add, f[c:], prev)
        for r in range(min(c, delta + 1)):
            f[r::c] = accumulate(f[r::c])
        window = (window + [f])[-cap:]
        if c >= g - cap:
            total += f[delta]
    return total


def enumerate_alpha(p: int, delta: int, k: int) -> list[AlphaTuple]:
    """All tuples with sum j*a_j = p, sum (j-1)*a_j = delta, a_j <= 2(k-1).

    Returned in lexicographic order of (a_1..a_p).  An empty list is a valid
    answer; it matches the emptiness of the corresponding nodal family.  The
    tuples are counted first (_count_alpha), and more than MAX_ALPHA_TUPLES
    of them, or a count of more than MAX_ALPHA_STEPS steps, raise
    ResourceLimit before any is listed.
    """
    if not exists_alpha(p, delta, k):
        return []
    g = p - delta
    steps = g * min(g, 2 * (k - 1)) * (delta + 1)
    if steps > MAX_ALPHA_STEPS:
        raise ResourceLimit(
            f"counting the alpha-tuples takes {steps} steps, beyond the guard of {MAX_ALPHA_STEPS}"
        )
    count = _count_alpha(p, delta, k)
    if count > MAX_ALPHA_TUPLES:
        raise ResourceLimit(
            f"{count} alpha-tuples, beyond the guard of {MAX_ALPHA_TUPLES}"
        )
    return [AlphaTuple(p, t) for t in sorted(_alpha_walk(p, delta, k))]


def exists_alpha(p: int, delta: int, k: int) -> bool:
    """Nonemptiness of enumerate_alpha, in closed form.

    A tuple is g = p - delta chains with lengths summing to p, at most
    c = 2(k-1) chains of each length.  Write g = c*m + r with 0 <= r < c.  The
    least total fills lengths 1..m with c chains each and length m+1 with r,
    so tuples exist only if c*m(m+1)/2 + r(m+1) <= p.  Conversely, lengthening
    the longest chain one step at a time keeps every multiplicity within c
    and reaches every total above the least, p among them.  With m =
    severi_alpha(p, delta, k) this is severi_nonempty's inequality
    delta >= m*(g - (k-1)(m+1)), rearranged.
    """
    _check_alpha_args(p, delta, k)
    return _least_sum(p - delta, 2 * (k - 1)) <= p


# ---------------------------------------------------------------------------
# pencils over F_q


def grassmannian_pencil_count(k: int, q: int) -> int:
    """Number of pencils of degree-k forms over F_q: lines in P^k(F_q).

    q = 2 is allowed: the count needs no conic, unlike the rest of F_q work.
    A count of more than MAX_COUNT_DIGITS digits raises ResourceLimit.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not _is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    if k - 1 > MAX_COUNT_DIGITS / (2 * math.log10(q)):
        raise ResourceLimit(
            f"the count at k={k}, q={q} has about 2(k-1)log10(q) digits, "
            f"beyond the guard of {MAX_COUNT_DIGITS}"
        )
    N = k + 1
    num = (q**N - 1) * (q**N - q)
    den = (q**2 - 1) * (q**2 - q)
    assert num % den == 0
    return num // den
