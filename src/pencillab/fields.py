"""Exact coefficient fields: the rationals and odd prime fields.

Elements are plain Python values (fractions.Fraction over Q, canonical
residues 0..q-1 over F_q); the Field object supplies the arithmetic.  All
operations are exact; nothing in this package touches floating point except
the final logarithmic exponent fit in the dimension experiments.

Characteristic 2 is rejected outright: the diagonal conic v^2 = 4uw that the
plane-curve geometry leans on degenerates there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import CharacteristicObstruction, Frozen, ResourceLimit

Element = Union[Fraction, int]


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the twelve prime bases 2..37.

    No strong pseudoprime to all twelve lies below 2^64 (Sorenson and
    Webster, Math. Comp. 86, 2017), so the answer is exact there; n >= 2^64
    raises ResourceLimit.
    """
    if n >= 1 << 64:
        raise ResourceLimit(f"primality is decided below 2^64 only, not for {n}")
    if n < 2 or any(n % b == 0 for b in _WITNESSES):
        return n in _WITNESSES
    if n < 41 * 41:  # a composite this small has a prime factor below 41
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Frozen):
    """q = 0 means the rationals, otherwise an odd prime modulus."""

    q: int

    def __init__(self, q: int = 0):
        if q != 0:
            if q == 2:
                raise CharacteristicObstruction(
                    "characteristic 2 not supported (diagonal conic degenerates)"
                )
            if not _is_prime(q):
                raise ValueError(f"modulus {q} is not prime")
        object.__setattr__(self, "q", q)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def label(self):
        """JSON form: "Q" or {"q": q}."""
        return "Q" if self.q == 0 else {"q": self.q}

    # -- element construction -------------------------------------------------

    def coerce(self, value) -> Element:
        # ints first: the Fraction test below goes through ABCMeta
        if isinstance(value, int):
            return Fraction(value) if self.q == 0 else value % self.q
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            if self.q == 0:
                return value
            num, den = value.numerator, value.denominator
            if den % self.q == 0:
                raise ZeroDivisionError(
                    f"denominator {den} not invertible mod {self.q}"
                )
            return (num * pow(den, -1, self.q)) % self.q
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def coerce_all(self, values) -> tuple:
        """coerce of each value; over F_q a tuple of plain ints is reduced in one pass."""
        values = tuple(values)
        q = self.q
        if q and set(map(type, values)) == {int}:
            return tuple([v % q for v in values])
        return tuple(map(self.coerce, values))

    @property
    def zero(self) -> Element:
        return self.coerce(0)

    @property
    def one(self) -> Element:
        return self.coerce(1)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return (a + b) if self.q == 0 else (a + b) % self.q

    def sub(self, a: Element, b: Element) -> Element:
        return (a - b) if self.q == 0 else (a - b) % self.q

    def mul(self, a: Element, b: Element) -> Element:
        return (a * b) if self.q == 0 else (a * b) % self.q

    def neg(self, a: Element) -> Element:
        return -a if self.q == 0 else (-a) % self.q

    def inv(self, a: Element) -> Element:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.q == 0 else pow(a, -1, self.q)

    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            return self.pow(self.inv(a), -n)
        return a**n if self.q == 0 else pow(a, n, self.q)

    def is_zero(self, a: Element) -> bool:
        return a == 0

    def eq(self, a: Element, b: Element) -> bool:
        return a == b

    def to_str(self, a: Element) -> str:
        return str(a)

    def __str__(self):
        return "Q" if self.q == 0 else f"F_{self.q}"


#: The rational field, shared default.
QQ = Field(0)
