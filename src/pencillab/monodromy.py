"""Tuples of cycles realizing genus-0 covers with prescribed ramification orders.

Permutations act on the symbols 1..k.  Products compose LEFT TO RIGHT: the
product of (s1, s2, ..., sn) applies s1 first.  The two merge identities used
by the inductive construction are only valid under this convention, so it is
fixed package-wide.

A profile (k, (e_1..e_n)) is *balanced* when sum(e_i - 1) = 2(k - 1), the
genus-0 case of Riemann-Hurwitz when the e_i are the orders of the only
nonsimple ramification.  construct_tuple produces, for every balanced profile,
cycles of the prescribed orders whose product is the identity, generating a
transitive group, with consecutive cycles sharing a symbol.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce, total_ordering
from itertools import combinations, permutations as iter_permutations, product as iter_product

from .errors import Frozen, ProfileInfeasible, ResourceLimit

# enumerate_tuples and count_tuples refuse k > MAX_K or more than MAX_N orders:
# the walk visits up to prod_i (number of e_i-cycles) prefixes.
MAX_K = 6
MAX_N = 6

# construct_tuple refuses k > MAX_CONSTRUCT_K, well inside Python's recursion
# limit of 1000: _construct recurses once per symbol.  At k = 500, (500, 500)
# took 21 ms, 499 threes 94 ms and 998 twos 302 ms (in-process, 2-vCPU VM).
MAX_CONSTRUCT_K = 500

# MonodromyTuple refuses k > MAX_TUPLE_K before building a cycle: each cycle
# and the product are tuples of k images.  verify of three cycles took 0.11 s
# cold at k = 10^4, 0.32 s at 10^5 and 3.3 s at 10^6 (2-vCPU VM).
MAX_TUPLE_K = 10_000


@total_ordering
class Permutation(Frozen):
    """A bijection of {1..k}, stored as the tuple of images of 1, 2, ..., k.

    Permutations of one degree sort by their image tuples.
    """

    images: tuple[int, ...]

    def __init__(self, images):
        images = tuple(images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.images < other.images
        return NotImplemented

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def from_cycle(cls, symbols, k: int) -> "Permutation":
        """The cycle sending symbols[i] to symbols[i+1] (and the last to the first);
        the symbols are a list or tuple of ints in 1..k (bools refused), k >= 1."""
        if (k < 1 or not isinstance(symbols, (list, tuple))
                or any(type(s) is not int for s in symbols)):
            raise ValueError(f"need k >= 1 and a cycle of integer symbols, got {k}, {symbols!r}")
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"repeated symbol in cycle {symbols}")
        images = list(range(1, k + 1))
        for s in symbols:
            if not 1 <= s <= k:
                raise ValueError(f"symbol {s} outside 1..{k}")
        for a, b in zip(symbols, symbols[1:] + symbols[:1]):
            images[a - 1] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, s: int) -> int:
        return self.images[s - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: apply self first, then other."""
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i + 1 for i, img in enumerate(self.images) if img != i + 1)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated minimum-first, sorted by minimum."""
        return self._cycles

    @cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        # computed once per object: the walk's candidate cycles recur in every tuple
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen or self.apply(start) == start:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.apply(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
            out.append(tuple(cyc))
        return tuple(out)

    def single_cycle(self) -> tuple[int, ...] | None:
        """The unique nontrivial cycle if there is exactly one, else None."""
        cycs = self.cycles()
        return cycs[0] if len(cycs) == 1 else None


def _orbit_count(images: tuple[int, ...]) -> int:
    """Orbits on 1..k of the permutation with these images, fixed points included."""
    seen, orbits = [False] * len(images), 0
    for s in range(len(images)):
        orbits += not seen[s]
        while not seen[s]:
            seen[s] = True
            s = images[s] - 1
    return orbits


class MonodromyTuple(Frozen):
    """An ordered tuple of single cycles in the symmetric group on 1..k.

    k > MAX_TUPLE_K raises ResourceLimit before cycles, which may be an
    iterator, is read.
    """

    k: int
    cycles: tuple[Permutation, ...]

    def __init__(self, k: int, cycles):
        object.__setattr__(self, "k", k)
        if k > MAX_TUPLE_K:
            raise ResourceLimit(f"k={k} beyond guard k<={MAX_TUPLE_K}")
        object.__setattr__(self, "cycles", tuple(cycles))
        if self.k < 1:
            raise ValueError(f"degree k must be at least 1, got {self.k}")
        for sigma in self.cycles:
            if sigma.degree != self.k:
                raise ValueError("all cycles must act on the same 1..k")
            if sigma.single_cycle() is None:
                raise ValueError(f"not a single cycle: {sigma.images}")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(len(sigma.single_cycle()) for sigma in self.cycles)

    def product(self) -> Permutation:
        out = Permutation.identity(self.k)
        for sigma in self.cycles:
            out = out.then(sigma)
        return out

    def to_json_dict(self) -> dict:
        return {"k": self.k, "cycles": [list(s.single_cycle()) for s in self.cycles]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonodromyTuple":
        k, cycles = data["k"], data["cycles"]
        if type(k) is not int or not isinstance(cycles, list):
            raise ValueError(f"need an integer k and a list of cycles, got {k!r}, {cycles!r}")
        return cls(k=k, cycles=(Permutation.from_cycle(c, k) for c in cycles))


class TupleReport(Frozen):
    product_is_identity: bool
    transitive: bool
    consecutive_nondisjoint: bool
    orders: tuple[int, ...]
    genus: int | None


def _validate_orders(k: int, e) -> tuple[int, ...]:
    e = tuple(int(v) for v in e)
    if k < 2:
        raise ValueError("degree k must be at least 2")
    for ei in e:
        if not 2 <= ei <= k:
            raise ProfileInfeasible(f"order {ei} outside 2..k={k}")
    return e


def is_balanced(k: int, e) -> bool:
    return sum(ei - 1 for ei in e) == 2 * (k - 1)


def pad_profile(k: int, e) -> tuple[int, ...]:
    """Append simple orders (2's) until the profile is balanced.

    The padded profile holds up to 2(k - 1) orders, and construct_tuple, which
    builds its tuple, refuses k > MAX_CONSTRUCT_K; so does this, with
    ResourceLimit, once the profile is known to be feasible.
    """
    e = _validate_orders(k, e)
    deficit = 2 * (k - 1) - sum(ei - 1 for ei in e)
    if deficit < 0:
        raise ProfileInfeasible(
            f"sum(e_i - 1) = {sum(ei - 1 for ei in e)} already exceeds 2(k-1) = {2 * (k - 1)}"
        )
    if k > MAX_CONSTRUCT_K:
        raise ResourceLimit(f"k={k} beyond guard k<={MAX_CONSTRUCT_K}")
    return e + (2,) * deficit


def _rotate_start(cycle: tuple[int, ...], x: int) -> tuple[int, ...]:
    i = cycle.index(x)
    return cycle[i:] + cycle[:i]


def _rotate_end(cycle: tuple[int, ...], x: int) -> tuple[int, ...]:
    i = cycle.index(x)
    return cycle[i + 1:] + cycle[:i + 1]


def _construct(k: int, e: list[int]) -> list[tuple[int, ...]]:
    # invariant: 2 <= e_i <= k and sum(e_i - 1) == 2(k - 1)
    n = len(e)
    if all(ei == 2 for ei in e):
        # then n = 2k - 2: adjacent transpositions up and back down
        half = [(j, j + 1) for j in range(1, k)]
        return half + half[::-1]
    m = e.index(max(e))  # max >= 3 here
    lo, hi = (m, m + 1) if m < n - 1 else (m - 1, m)
    other = hi if m == lo else lo
    if e[other] >= 3:
        # shrink both entries of the adjacent pair, then regrow them through a
        # fresh symbol k shared at a common point x of the two smaller cycles
        e2 = list(e)
        e2[lo] -= 1
        e2[hi] -= 1
        sub = _construct(k - 1, e2)
        x = min(set(sub[lo]) & set(sub[hi]))
        sub[lo] = _rotate_start(sub[lo], x) + (k,)
        sub[hi] = (k,) + _rotate_end(sub[hi], x)
        return sub
    # e[other] == 2: drop it, shrink the max, reinsert as the transposition (k x)
    e2 = [e[i] - 1 if i == m else e[i] for i in range(n) if i != other]
    sub = _construct(k - 1, e2)
    mm = m if m < other else m - 1
    far = mm + 1 if other > m else mm - 1
    if 0 <= far < len(sub):
        x = min(set(sub[mm]) & set(sub[far]))
    else:
        x = min(sub[mm])
    if other > m:
        sub[mm] = _rotate_start(sub[mm], x) + (k,)
    else:
        rot = _rotate_start(sub[mm], x)
        sub[mm] = (rot[0], k) + rot[1:]
    sub.insert(other, (k, x))
    return sub


def construct_tuple(k: int, e) -> MonodromyTuple:
    """Cycles of orders e_1..e_n with identity product, transitive, chain-linked.

    Requires a balanced profile.  Deterministic; the construction reduces the
    first maximal order together with an adjacent one and works in the caller's
    order throughout, so consecutive nondisjointness holds as returned.
    k > MAX_CONSTRUCT_K raises ResourceLimit.
    """
    e = _validate_orders(k, e)
    if not is_balanced(k, e):
        raise ProfileInfeasible(
            f"profile not balanced: sum(e_i - 1) = {sum(ei - 1 for ei in e)}, "
            f"need 2(k-1) = {2 * (k - 1)}"
        )
    if k > MAX_CONSTRUCT_K:
        raise ResourceLimit(f"k={k} beyond guard k<={MAX_CONSTRUCT_K}")
    cycles = _construct(k, list(e))
    perms = tuple(Permutation.from_cycle(c, k) for c in cycles)
    return MonodromyTuple(k=k, cycles=perms)


def _transitive(k: int, perms) -> bool:
    if k == 0:
        return False
    parent = list(range(k + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for sigma in perms:
        for s in range(1, k + 1):
            ra, rb = find(s), find(sigma.apply(s))
            if ra != rb:
                parent[ra] = rb
    return len({find(s) for s in range(1, k + 1)}) == 1


def verify_tuple(mt: MonodromyTuple) -> TupleReport:
    """Check the three defining conditions and report the Riemann-Hurwitz genus.

    genus solves 2 - 2g = 2k - sum(order_i - 1); it is None when that value is
    odd (possible only when the product is not the identity) and may be
    negative for infeasible tuples, which keeps them diagnosable.
    """
    orders = mt.orders
    weight = sum(o - 1 for o in orders)
    twice_genus = weight - 2 * (mt.k - 1)
    nondisjoint = all(
        a.support & b.support for a, b in zip(mt.cycles, mt.cycles[1:])
    )
    return TupleReport(
        product_is_identity=mt.product().is_identity(),
        transitive=_transitive(mt.k, mt.cycles),
        consecutive_nondisjoint=bool(nondisjoint),
        orders=orders,
        genus=twice_genus // 2 if twice_genus % 2 == 0 else None,
    )


def _cycles_of_order(k: int, e: int) -> list[Permutation]:
    """All e-cycles in the symmetric group on 1..k, sorted by image tuple."""
    out = []
    for supp in combinations(range(1, k + 1), e):
        first, rest = supp[0], supp[1:]
        for arrangement in iter_permutations(rest):
            out.append(Permutation.from_cycle((first,) + arrangement, k))
    out.sort()
    return out


def _guarded_orders(k: int, e) -> tuple[int, ...]:
    e = _validate_orders(k, e)
    if k > MAX_K or len(e) > MAX_N:
        raise ResourceLimit(f"k={k}, n={len(e)} beyond guard k<={MAX_K}, n<={MAX_N}")
    return e


def _pruned_walk(k: int, e: tuple[int, ...], fix_first: bool = False):
    """Yield every identity-product transitive tuple of e-cycles, lexicographically.

    Positions are filled in order; a prefix survives only if the Cayley
    distance k - orbits of its product fits, with the right parity, in the
    weight sum(e_i - 1) still to place, and the last cycle is solved from the
    partial product.  fix_first restricts position 0 to the cycle (1 2 .. e_1).
    Products are composed on image tuples; Permutations are built only for
    the last cycle of a tuple that is yielded.
    """
    n = len(e)
    if n < 2:
        return  # one cycle is never the identity; zero cycles are not transitive
    if fix_first:
        first = [Permutation.from_cycle(tuple(range(1, e[0] + 1)), k)]
    else:
        first = _cycles_of_order(k, e[0])
    candidates = [[(sigma, sigma.images) for sigma in cands]
                  for cands in [first] + [_cycles_of_order(k, ei) for ei in e[1:]]]
    capacities = [sum(ei - 1 for ei in e[pos + 1:]) for pos in range(n)]
    last_order = e[-1]

    def walk(pos: int, prefix: tuple, chosen: list, chosen_images: list):
        if pos == n - 1:
            # the last cycle is prefix^-1: an e_n-cycle iff prefix moves e_n
            # symbols in one orbit, and it lies in the group the others generate
            moved = sum(img != s for s, img in enumerate(prefix, start=1))
            if (moved == last_order and _orbit_count(prefix) == k - last_order + 1
                    and _orbit_of_one(k, chosen_images) == k):
                yield tuple(chosen) + (Permutation(prefix).inverse(),)
            return
        capacity = capacities[pos]
        for sigma, images in candidates[pos]:
            nxt = tuple(images[s - 1] for s in prefix)
            dist = k - _orbit_count(nxt)
            if dist > capacity or (capacity - dist) % 2 != 0:
                continue
            chosen.append(sigma)
            chosen_images.append(images)
            yield from walk(pos + 1, nxt, chosen, chosen_images)
            chosen.pop()
            chosen_images.pop()

    yield from walk(0, tuple(range(1, k + 1)), [], [])


def _orbit_of_one(k: int, generators: list) -> int:
    """Size of the orbit of symbol 1 under the permutations with these image tuples."""
    seen, stack = {1}, [1]
    while stack:
        s = stack.pop()
        for images in generators:
            t = images[s - 1]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen)


def enumerate_tuples(k: int, e, exhaustive: bool = False) -> list[MonodromyTuple]:
    """All cycle tuples of the given orders with identity product and transitivity.

    Nondisjointness of consecutive cycles is NOT required here.  Results come in
    lexicographic order of the concatenated image tuples.  The default search
    is the pruned walk shared with count_tuples; exhaustive=True disables every
    shortcut and filters the full product space (ground-truth oracle for tests).
    k > MAX_K or more than MAX_N orders raise ResourceLimit.
    """
    e = _guarded_orders(k, e)
    if not exhaustive:
        return [MonodromyTuple(k=k, cycles=full) for full in _pruned_walk(k, e)]
    identity = Permutation.identity(k)
    return [
        MonodromyTuple(k=k, cycles=chosen)
        for chosen in iter_product(*(_cycles_of_order(k, ei) for ei in e))
        if reduce(Permutation.then, chosen, identity).is_identity()
        and _transitive(k, chosen)
    ]


def count_tuples(k: int, e) -> int:
    """Number of tuples enumerate_tuples would return, via conjugation symmetry.

    The count of solutions with a prescribed first cycle is constant on the
    conjugacy class (simultaneous conjugation preserves all three conditions),
    so the total is that count times the number of e_1-cycles.  The same
    MAX_K / MAX_N guard as enumerate_tuples applies.
    """
    e = _guarded_orders(k, e)
    hits = sum(1 for _ in _pruned_walk(k, e, fix_first=True))
    if not hits:
        return 0
    class_size = math.factorial(k) // (e[0] * math.factorial(k - e[0]))
    return hits * class_size
