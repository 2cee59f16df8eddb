"""Limit-curve combinatorics and finite-field dimension experiments.

Three layers live here.  The combinatorial layer packages chains plus marked
points into nodal limit-curve models, indexed by the alpha-tuples that
numerology enumerates (this module re-exports them, and the Grassmannian
count).  The descent layer asks whether a pencil on the line descends to such
a model: every node pair must lie in a single member and every marked point
must carry the prescribed ramification.  The experimental
layer counts pencils over F_q satisfying incidence/ramification constraints,
each 2-dimensional subspace exactly once through its echelon basis pair, and
fits a dimension exponent to counts across primes.

Search constraints compile to antisymmetric bilinear forms on coefficient
vectors, so a subspace matches iff one (hence any) basis pair (f, g) does.
In each echelon cell g has no more free coordinates than f, so g is fixed:
the forms are then linear in f, and each g-row's matches are the solutions
of a linear system mod q.  The g-rows of every cell are numbered in one
packed index, and their systems, padded to one width, are built and
eliminated together in chunks, the chunk on the last axis of every array,
in the narrowest of numpy int16, int32 and int64 that holds an exact bound
on every entry (_kernel_dtype).  A chunk's g-rows and cells do not depend
on the constraint, so they are built once and kept for the next searches
at (q, k), the last _LAYOUT_CHUNKS chunks ((k+1) MiB + 128 KiB at most;
_layout).  The elimination counts the pivots it finds, and the counts come
from those ranks.  The samples, the first matches in (cell, f, g) order,
are worked out after the count, cell by cell until there are enough: solved
for per g-row where the cell is sparse, and found by walking the f-rows
where it is dense.  Either way the keys are residues of independent
echelon pairs, so the sample pencils are built from them unchecked.  Strata
solve for every match, from the g-rows that the count kept or eliminated
again, and classify the matches together by two more ranks mod q, through
the same elimination: the rank of the pencil's Bezout matrix, and, where
that shows a base divisor of degree 2 or more, the rank of the multiples of
the four partials.  The walk of f-rows, each row's system in g built and
eliminated on plain ints, also counts the small searches without strata, of
at most _PLAIN_MAX_TESTS pencil tests, and finds the samples of a search
with no conditions: neither imports numpy.
A cache entry is written as text, its samples filled into a per-(k, q)
template, and read back strictly: only as many samples as the count gives,
of residues written as the writer writes them, in reduced echelon pairs and
in order, each meeting the conditions, make a hit, whose samples are then
built unchecked too.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, product
from operator import mul

from .errors import (
    ChainMismatch,
    Frozen,
    PointCollision,
    ResourceLimit,
    ZeroCount,
)
from .fields import Field, _is_prime
from .numerology import (  # re-exported for callers of this module
    AlphaTuple,
    enumerate_alpha,
    exists_alpha,
    grassmannian_pencil_count,
)
from .pencil_geometry import (  # the conic sections re-exported for callers of this module
    ConicSectionReport,
    Pencil,
    ProjPoint,
    SymPoint,
    _trusted_pencil,
    _wedge_terms,
    intersect_with_conic,
)

SAMPLE_LIMIT = 20

# Work budget of a search, in the units search_pencils_ffield documents.  A
# k=4 count over F_101 takes about 1.05*10^6 steps per condition; the default
# leaves room for that and for strata searches that classify up to the k=3
# Grassmannian over F_101 (105,111,206 pencils), and refuses anything an
# order of magnitude larger.
DEFAULT_SEARCH_BUDGET = 200_000_000

# Rows per call of the kernel (_systems).  A range's chunks hold
# _RANK_CHUNK_ROWS rows within its first _BATCH_ROWS rows and _BATCH_ROWS
# after that: a small search pays for the first touch of its temporaries,
# which grow with the chunk, and a long range for the calls, which shrink
# with it.  Cold, on 2 cores, the ladder's F_101
# counts (at most 10,201 g-rows a cell) ran 5-10% faster in 2048-row chunks
# than in 8192-row ones, with a third of the page faults, while the k = 4
# count over F_101 (about 10^6 g-rows) ran about 15% slower.  Only that k = 4
# count, in tools/bench_layers.py, measures the 8192-row side: no perfbench
# workload reaches it.  _BATCH_ROWS also bounds a _solutions batch and a
# _strata_codes call; strata calls of 16k and 32k pencils were 5-20% slower.
_RANK_CHUNK_ROWS = 2048
_BATCH_ROWS = 8192
# Chunk layouts (_layout) kept for the next search at the same (q, k): a
# k = 3 ladder over F_31, F_13 and F_101 uses seven, and a search of more
# chunks, such as the k = 4 count over F_101 (about 130), cycles through them.
_LAYOUT_CHUNKS = 16
# A search runs its rank pass in one process whatever jobs is while g-rows x
# conditions x C(k, 2) is below this.  C(k, 2) counts the columns that one
# g-row's elimination visits, padded to the k - 1 unknowns of the largest
# cell, so the figure follows the time.  On 2 cores, alone against a pool of
# two (after a warm-up pool, median of 9), with four incidences at k = 3 and
# three at k = 4, by g-rows x conditions: k = 3 over F_401 (6.5*10^5) 56 vs
# 63 ms and over F_449 (8.1*10^5) 66 vs 62 ms; k = 4 over F_53 (4.6*10^5) 74
# vs 76 ms and over F_59 (6.4*10^5) 100 vs 80 ms.  So the pool breaks even near
# 7.3*10^5 at k = 3 and 5*10^5 at k = 4, 2.2*10^6 and 3.0*10^6 once weighted
# by C(3, 2) = 3 and C(4, 2) = 6; the threshold sits between them.
_POOL_MIN_ROW_WORK = 2_500_000
# A strata search classifies its matches in one process whatever jobs is
# while matches x (k - 1) is below this.  A match costs more to classify as k
# grows, and the pool's break-even in matches falls about as 1 / (k - 1).
# On 2 cores, alone against a pool of two (after a warm-up pool, median of 7
# or 9), unconstrained unless incidences are named: k = 2 over F_307 (94557
# matches) 26 vs 38 ms and over F_509 (259591) 59 vs 60 ms; k = 3 over F_17
# (89030) 64 vs 67 ms and over F_19 (137922) 76 vs 72 ms; k = 4 over F_5
# (20306) 53 vs 63 ms, over F_13 with two incidences (35504) 78 vs 141 ms,
# over F_17 with two (98856) 205 vs 187 ms and over F_7 (140050) 252 vs
# 169 ms.  Weighted, the break-evens are near 2.6*10^5, 2.3*10^5 and
# 2.6*10^5.  The rank pass also keeps every solvable g-row for the strata
# pass while a range's weighted matches are within this, so it holds at most
# about this many rows; a larger search eliminates its g-rows again, which
# costs little beside classifying that many matches.
_POOL_MIN_STRATA_WORK = 250_000
# A search with conditions and no strata walks its f-rows on plain ints
# (_plain_search), and never imports numpy, while its Grassmannian's pencils x
# conditions are at most this.  A cold process saves the numpy import,
# 70-130 ms.  Warm, in-process with numpy loaded (2 cores, median of 31), the
# walk against the kernel by pencil tests, with one incidence: 57 (k = 2 over
# F_7) 0.13 vs 0.50 ms, 133 (F_11) 0.15 vs 0.30 ms, 381 (F_19) 0.16 vs
# 0.31 ms, 553 (F_23) 0.18 vs 0.22 ms, 806 (k = 3 over F_5) 0.42 vs 0.21 ms
# and 2850 (F_7) 0.82 vs 0.23 ms.  So a warm caller loses nothing here; a
# larger constant waits for a cold measurement.  Every strata search takes
# the kernel, whose two ranks classify its matches: a small one pays for it,
# 381 tests (F_19) 0.63 ms where the walk and a gcd per match took 0.46, and
# cold the numpy import.
_PLAIN_MAX_TESTS = 500


# ---------------------------------------------------------------------------
# chains and limit-curve models


class ChainSpec(Frozen):
    """A chain of 2m-1 ruling lines, remembered by its distinguished pair."""

    m: int
    pair: tuple

    def __init__(self, m: int, pair):
        if m < 1:
            raise ValueError("chain parameter m must be at least 1")
        a, b = pair
        if not isinstance(a, ProjPoint) or not isinstance(b, ProjPoint):
            raise TypeError("pair must hold two projective points")
        if a == b:
            raise PointCollision("distinguished pair must be two distinct points")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "pair", (a, b))


class LimitCurveModel(Frozen):
    """A g-nodal model of the sectional line: node pairs plus marked points."""

    node_pairs: tuple
    marked_points: tuple
    orders: tuple

    def __init__(self, node_pairs, marked_points, orders):
        pairs = tuple((a, b) for a, b in node_pairs)
        marked = tuple(marked_points)
        orders = tuple(int(e) for e in orders)
        if len(marked) != len(orders):
            raise ValueError("one order per marked point")
        if any(e < 2 for e in orders):
            raise ValueError("ramification orders must be at least 2")
        seen: list[ProjPoint] = []
        for pt in [p for pair in pairs for p in pair] + list(marked):
            if any(pt == s for s in seen):
                raise PointCollision(f"point {pt.to_json()} listed twice")
            seen.append(pt)
        fields = {p.field for p in seen}
        if len(fields) > 1:
            raise ValueError("all points must live over one field")
        object.__setattr__(self, "node_pairs", pairs)
        object.__setattr__(self, "marked_points", marked)
        object.__setattr__(self, "orders", orders)

    @property
    def genus(self) -> int:
        return len(self.node_pairs)


def build_limit_curve(
    alpha: AlphaTuple, chains: list[ChainSpec], marked: list[tuple]
) -> LimitCurveModel:
    """Assemble the nodal model for an alpha-tuple from its chains.

    The chain multiset must contain exactly alpha_j chains with parameter j;
    each contributes its distinguished pair as one node.  marked is a list of
    (point, order) pairs.
    """
    want = {j: a for j, a in enumerate(alpha.alphas, start=1) if a > 0}
    got: dict[int, int] = {}
    for chain in chains:
        got[chain.m] = got.get(chain.m, 0) + 1
    if got != want:
        raise ChainMismatch(
            f"alpha-tuple asks for chain multiplicities {want}, got {got}"
        )
    points = [pt for pt, _ in marked]
    orders = [e for _, e in marked]
    model = LimitCurveModel(
        tuple(chain.pair for chain in chains), tuple(points), tuple(orders)
    )
    assert model.genus == alpha.genus
    return model


# ---------------------------------------------------------------------------
# descent of pencils to nodal models


class DescentReport(Frozen):
    """Per-node and per-marked-point verdicts for a pencil on a nodal model."""

    pair_in_fiber: tuple
    pair_ambiguous: tuple
    ramification_ok: tuple
    descends: bool
    non_neutral: tuple | None

    def to_json_dict(self) -> dict:
        return {
            "pair_in_fiber": list(self.pair_in_fiber),
            "pair_ambiguous": list(self.pair_ambiguous),
            "ramification_ok": list(self.ramification_ok),
            "descends": self.descends,
            "non_neutral": None if self.non_neutral is None else list(self.non_neutral),
        }


def descends(
    model: LimitCurveModel, pencil: Pencil, second: Pencil | None = None
) -> DescentReport:
    """Whether the pencil factors through the nodal model.

    Each node pair must lie in a single member (base-point pairs count as
    lying in every member and are flagged ambiguous); each marked point must
    carry ramification of at least its order.  When a second pencil is given,
    its nodes are additionally classified: non-neutral means the two branches
    of the node land in different members of that pencil.
    """
    from .pencil_geometry import has_ramification_at, is_base_point, same_fiber

    if model.orders and max(model.orders) > pencil.degree:
        raise ValueError("pencil degree below a prescribed ramification order")
    in_fiber = []
    ambiguous = []
    for y, z in model.node_pairs:
        both_base = is_base_point(pencil, y) and is_base_point(pencil, z)
        ambiguous.append(both_base)
        in_fiber.append(same_fiber(pencil, y, z, strict=False))
    ram_ok = [
        has_ramification_at(pencil, pt, e)
        for pt, e in zip(model.marked_points, model.orders)
    ]
    non_neutral = None
    if second is not None:
        non_neutral = tuple(
            not same_fiber(second, y, z, strict=False) for y, z in model.node_pairs
        )
    return DescentReport(
        pair_in_fiber=tuple(in_fiber),
        pair_ambiguous=tuple(ambiguous),
        ramification_ok=tuple(ram_ok),
        descends=all(in_fiber) and all(ram_ok),
        non_neutral=non_neutral,
    )


# ---------------------------------------------------------------------------
# finite-field search


class SearchConstraint(Frozen):
    """Incidence and ramification conditions imposed on a pencil.

    incidences: SymPoints the induced plane curve must pass through.
    ramifications: (point, order) pairs each demanding a member vanishing to
    at least that order there.
    """

    incidences: tuple
    ramifications: tuple

    def __init__(self, incidences=(), ramifications=()):
        inc = tuple(incidences)
        ram = tuple((pt, int(e)) for pt, e in ramifications)
        for sp in inc:
            if not isinstance(sp, SymPoint):
                raise TypeError("incidences must be SymPoints")
        for pt, e in ram:
            if not isinstance(pt, ProjPoint):
                raise TypeError("ramification points must be ProjPoints")
            if e < 2:
                raise ValueError("ramification orders must be at least 2")
        object.__setattr__(self, "incidences", inc)
        object.__setattr__(self, "ramifications", ram)

    def to_json_dict(self) -> dict:
        return {
            "incidences": [sp.to_json() for sp in self.incidences],
            "ramifications": [[pt.to_json(), e] for pt, e in self.ramifications],
        }


class SearchResult(Frozen):
    count: int
    samples: tuple
    strata: dict | None

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "samples": [p.to_json_dict() for p in self.samples],
            "strata": self.strata,
        }


@lru_cache
def _cells(k: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(k + 1) for j in range(i + 1, k + 1))


@lru_cache
def _free_columns(k: int, i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(c for c in range(i + 1, k + 1) if c != j), tuple(range(j + 1, k + 1))


def compile_constraint(k: int, q: int, constraint: SearchConstraint) -> tuple:
    """The m antisymmetric (k+1) x (k+1) matrices A of the constraint, as tuples of row tuples.

    A pencil span(f, g) matches iff f^T A g = 0 mod q for every A.  Incidence
    at a SymPoint contributes one matrix: entry (i, j) is the coordinate
    wedge-basis curve of (i, j) evaluated at the point, summed straight from
    its _wedge_terms (so the test agrees with bezoutian_curve evaluation).
    Ramification of order e contributes the C(e, 2) Taylor minors that
    has_ramification_at checks, each the antisymmetrized outer product of two
    Taylor rows.  Taylor row t takes coefficients to the t-th Taylor
    coefficient at the point, as _move_to_origin gives it: at [1:x1] its
    entry at column col is C(col, t) x1^(col-t) (0 for col < t), and at
    [0:1] it picks column k - t.  Basis invariance is automatic:
    antisymmetric bilinear values rescale by the determinant under basis
    change.  Entries are plain ints in 0..q-1, so the f-row walk
    (_f_row_walk) needs no numpy; the rank kernel converts them to one
    m x (k+1) x (k+1) array of its dtype (_kernel_dtype).
    """
    field = Field(q)
    mats = []
    for sp in constraint.incidences:
        if sp.field != field:
            raise ValueError("incidence point field does not match q")
        powers = [[pow(x, e, q) for e in range(k)] for x in sp.coords()]
        A = [[0] * (k + 1) for _ in range(k + 1)]
        for i, j in _cells(k):
            val = sum(
                coef * powers[0][a] * powers[1][b] * powers[2][c]
                for (a, b, c), coef in _wedge_terms(k, i, j)
            ) % q
            A[i][j], A[j][i] = val, -val % q
        mats.append(A)
    span = range(k + 1)
    for pt, order in constraint.ramifications:
        if pt.field != field:
            raise ValueError("ramification point field does not match q")
        if order > k:
            raise ValueError("ramification order exceeds the degree")
        if pt.x0:  # [1:x1]
            T = [[math.comb(col, t) * pow(pt.x1, col - t, q) % q if col >= t else 0
                  for col in span] for t in range(order)]
        else:  # [0:1]
            T = [[int(col == k - t) for col in span] for t in range(order)]
        mats += [[[(T[a][r] * T[b][c] - T[b][r] * T[a][c]) % q for c in span] for r in span]
                 for a, b in combinations(range(order), 2)]
    return tuple(tuple(map(tuple, A)) for A in mats)


def _digits(idx, q: int, width: int, out=None) -> np.ndarray | None:
    """Base-q digits of an index (or an array of them), most significant first.

    This is the one codec between enumeration order and coordinates: index t
    of a cell's f-range (or g-range) stands for the free coordinates digits(t),
    so ranges of indices are lexicographic ranges of coordinate tuples.  The
    digits come as a new ... x width int64 array, or, with out given, are
    written into its width arrays shaped like idx, of any integer dtype.
    """
    import numpy as np

    idx = np.array(idx, dtype=np.int64)
    digits = np.empty(idx.shape + (width,), dtype=np.int64) if out is None else None
    for pos in range(width - 1, -1, -1):
        np.divmod(idx, q, out=(idx, digits[..., pos] if out is None else out[pos]))
    return digits


def _echelon_rows(k: int, pivot: int, cols: list[int], coords) -> np.ndarray:
    """Echelon coefficient rows: 1 at pivot, coords (... x len(cols)) at cols, 0 elsewhere.

    Within a cell only the free columns vary, so the rows of lexicographically
    ordered coordinates are themselves in lexicographic order.  The rows have
    the dtype of coords.
    """
    import numpy as np

    coords = np.asarray(coords)
    rows = np.zeros(coords.shape[:-1] + (k + 1,), dtype=coords.dtype)
    rows[..., pivot] = 1
    rows[..., cols] = coords
    return rows


def _mod(a: np.ndarray, q: int, work: np.ndarray | None = None) -> np.ndarray:
    """a mod q, in place in a, an int16/32/64 array the caller owns; work is a buffer like it.

    numpy's integer % by a scalar divides in hardware, element by element; its
    // by a scalar does not, so a - (a // q) * q costs about half as much.
    The quotient is the floor, so negative entries reduce into 0..q-1 as with
    %.  (a // q) * q lies less than q below a; within q of the dtype's least
    value it wraps modulo 2^16, 2^32 or 2^64, and the subtraction wraps back,
    so every entry of each dtype is exact.
    """
    import numpy as np

    t = np.floor_divide(a, q, out=work)
    t *= q
    a -= t
    return a


def _kernel_dtype(k: int, q: int):
    """The rank kernel's integer dtype at (k, q): the narrowest of int16, int32, int64 holding M.

    Every array of a search is built in it, and each helper takes the dtype
    of its input.  With r = q - 1, no entry exceeds M = max(1, k-1) r^2 + r
    in size: a system sums one residue and at most k - 1 products of two
    (_systems), the fraction-free update of _eliminate forms the difference
    of two products, a solved coordinate's right-hand side sums at most
    k - 2 products and a residue (_solutions), a Bezout matrix entry sums at
    most ceil(k/2) Plucker coordinates, each a difference of two products,
    and a partial is at most k r (_strata_codes).  So int16 serves q <= 181
    at k <= 2, q <= 127 at k = 3 and q <= 103 at k = 4, and int32 q <= 46337
    at k <= 2.  The plain ints mixed into kernel arrays, q and 1, are below
    M, so numpy's casting takes them as the dtype.  Fewer bytes make the
    kernel's temporaries cheaper to touch.  ResourceLimit's int64 guard
    (search_pencils_ffield) stays on the looser (k+1)(q-1)^2.
    """
    import numpy as np

    bound = max(1, k - 1) * (q - 1) ** 2 + q - 1
    return np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64


def _eliminate(W: np.ndarray, q: int, spare: np.ndarray | None = None) -> tuple:
    """Pivot equations, rank and solvability of a batch of linear systems over F_q.

    W is m x (n+1) x B: B augmented systems of m equations in n unknowns, the
    batch last, column 0 holding the constants and column c + 1 unknown c.
    It is eliminated in place, spare (a buffer like it) taking the
    temporaries, from the last unknown to the first, each system taking as
    pivot its first equation with a nonzero coefficient.  Every equation r is
    then replaced fraction-free by p*r - r[c]*pivot, p the pivot entry, so no
    inverse mod q is needed and no product exceeds (q-1)^2.  That update
    zeroes the pivot equation itself, so it is never chosen again, and it
    zeroes column c in every equation, so column c is dropped.  Row c of the
    returned n x (n+1) x B pivots is the pivot equation of unknown c as
    chosen, in the columns of W, so it involves c and only the more
    significant unknowns before it; it is zero where c is free.  The rank is
    the number of steps that found a pivot, and a system is solvable iff no
    equation keeps a nonzero constant.  The pivots have the dtype of W.
    """
    import numpy as np

    m, width, B = W.shape
    spare = np.empty_like(W) if spare is None else spare
    pivots = np.zeros((width - 1, width, B), dtype=W.dtype)
    rank = np.zeros(B, dtype=np.intp)
    for c in range(width - 1, 0, -1):
        col = W[:, c]
        nonzero = col != 0
        has = nonzero.any(axis=0)
        if not has.any():
            W = W[:, :c]
            continue
        rank += has
        P = pivots[c - 1, : c + 1]  # the first equation with col != 0
        for r in range(m - 1, -1, -1):
            np.copyto(P, W[r], where=nonzero[r])
        W, T = W[:, :c], spare[:, :c]
        W *= np.where(has, P[c], 1)
        W -= np.multiply(col[:, None], P[:c], out=T)
        _mod(W, q, T)
    return pivots, rank, ~(W[:, 0] != 0).any(axis=0)


def _solutions(pivots: np.ndarray, q: int, cap: int):
    """Yield (row positions, R x count x n solutions) for the solvable systems given.

    pivots comes from _eliminate, n x (n+1) x B.  Rows are grouped by their
    free unknowns, and each gets its first count = min(q^free, cap)
    solutions, about _BATCH_ROWS solutions per batch.  The free unknowns run
    through base-q order and each pivot unknown is solved from the more
    significant ones, so two solutions first differ in a free unknown: the
    order is lexicographic.
    """
    import numpy as np

    n = pivots.shape[0]
    free = pivots[range(n), range(1, n + 1)] == 0
    pattern = (1 << np.arange(n)) @ free
    for pat in set(pattern.tolist()):
        rows = np.flatnonzero(pattern == pat)
        mask = free[:, rows[0]]
        count = min(q ** int(mask.sum()), cap)
        step = max(1, _BATCH_ROWS // count)
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step]
            G = np.zeros((len(part), count, n), dtype=pivots.dtype)
            G[:, :, mask] = _digits(np.arange(count), q, int(mask.sum()))
            for c in np.flatnonzero(~mask).tolist():
                eq = pivots[c][:, part].T
                inv = np.array([pow(a, -1, q) for a in eq[:, c + 1].tolist()], dtype=pivots.dtype)
                rhs = (G[:, :, :c] @ eq[:, 1 : c + 1, None])[:, :, 0] + eq[:, None, 0]
                G[:, :, c] = _mod(_mod(-rhs, q) * inv[:, None], q)
            yield part, G


# Base-divisor strata, in the order of _strata_codes
_STRATA = ("base_point_free", "simple_base_divisor", "multiple_base_points")


def _multiples(forms: np.ndarray, shifts: int) -> np.ndarray:
    """The products of each batch's forms with the monomials of degree shifts - 1.

    forms is r x (d+1) x B, r forms of degree d per system, the batch on the
    last axis.  Multiplying by a monomial shifts a coefficient vector, so the
    result is the (r*shifts) x (d+shifts+1) x B batch of those products for
    _eliminate, after a zero constant column.
    """
    import numpy as np

    r, width, B = forms.shape
    out = np.zeros((r * shifts, width + shifts, B), dtype=forms.dtype)
    for a in range(shifts):
        out[a::shifts, 1 + a : 1 + a + width] = forms
    return out


def _bezout_matrices(q: int, k: int, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The k x k Bezout matrix mod q of each pencil span(F[b], G[b]), batch last.

    The coordinate pencil (x0^(k-i) x1^i, x0^(k-j) x1^j) has Bezoutian
    (f(x)g(y) - f(y)g(x)) / (x0*y1 - x1*y0) equal to the sum of x^a y^b over
    a + b = i + j - 1 and i <= a, b <= j - 1 (x^a standing for x0^(k-1-a)
    x1^a), so a pencil's Bezout matrix is the sum of those terms weighted by
    its Plucker coordinates p_ij = f_i g_j - f_j g_i, as in bezoutian_curve.
    The result is k x (k+1) x B for _eliminate: a zero constant column, then
    column b + 1 holding the coefficients of y^b.
    """
    import numpy as np

    pairs = _cells(k)
    first, second = np.array(pairs).T
    F, G = F.T, G.T
    plucker = F[first] * G[second] - F[second] * G[first]
    out = np.zeros((k, k + 1, F.shape[1]), dtype=F.dtype)
    for t, (i, j) in enumerate(pairs):
        for a in range(i, j):
            out[a, i + j - a] += plucker[t]
    return _mod(out, q)


def _strata_codes(q: int, k: int, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Index into _STRATA of the base divisor of each pencil span(F[b], G[b]).

    F and G are B x (k+1) coefficient rows mod q of independent forms.  Two
    ranks, both through _eliminate, decide it.  deg gcd(f, g) is k minus the
    rank of the k x k Bezout matrix of f and g, the coefficient matrix of the
    pencil's pair curve (see _bezout_matrices).  A base divisor of degree 1
    is one F_q-point of multiplicity 1, so simple.  Where the degree is 2 or
    more, a base point is multiple iff it is a root of the four partials
    d0f, d1f, d0g, d1g: with q > k, Euler's relation k*f = x0*d0f + x1*d1f
    makes those the roots of f and g of multiplicity at least 2.  Forms of
    degree k-1 share a root iff their multiples by the monomials of degree k-2
    span less than all 2k-2 forms of degree 2k-3.
    """
    import numpy as np

    ranks = _eliminate(_bezout_matrices(q, k, F, G), q)[1]
    codes = (ranks < k).astype(np.int64)
    wide = np.flatnonzero(ranks < k - 1)  # base divisors of degree >= 2
    if wide.size:  # never at k <= 2, where independent forms share at most k - 1 roots
        t = np.arange(k + 1, dtype=F.dtype)[:, None]
        f, g = F[wide].T, G[wide].T
        partials = _mod(np.stack([f[:-1] * t[::-1][:-1], f[1:] * t[1:],
                                  g[:-1] * t[::-1][:-1], g[1:] * t[1:]]), q)
        ranks = _eliminate(_multiples(partials, k - 1), q)[1]
        codes[wide] = np.where(ranks < 2 * k - 2, 2, 1)
    return codes


@lru_cache(maxsize=_LAYOUT_CHUNKS)
def _layout(q: int, k: int, lo: int, stop: int, dtype) -> tuple:
    """(cell, rows, parts) of the chunk lo..stop-1 of the packed g index, in dtype, read-only.

    The g-rows of every cell are numbered one cell after another, each cell's
    in index order (_digits): a range of that packed index runs over whole
    and partial cells.  cell[r] is the cell of row r, in the narrowest
    unsigned dtype that holds C(k+1, 2) - 1 (uint8 up to k = 22), rows the
    (k+1) x B echelon g-rows, and parts one (cell index, slice of the chunk,
    g's pivot, g's free columns) per cell the chunk meets.  None of it
    depends on the constraint, so every search at (q, k) shares it: the
    cache holds the last _LAYOUT_CHUNKS chunks, of (k+1) itemsize + 1 bytes
    a row up to k = 22 (9 at k = 3 in int16), so at most _LAYOUT_CHUNKS x
    _BATCH_ROWS x (8(k+1) + 1) bytes, (k+1) MiB + 128 KiB.
    """
    import numpy as np

    cells = _cells(k)
    widths = [_free_columns(k, i, j)[1] for i, j in cells]
    starts = list(accumulate((q ** len(cols) for cols in widths), initial=0))
    rows = np.zeros((k + 1, stop - lo), dtype=dtype)
    cell = np.empty(stop - lo, dtype=np.min_scalar_type(len(cells) - 1))
    parts = []
    t = bisect_right(starts, lo) - 1
    while starts[t] < stop:
        a, b = max(lo, starts[t]), min(stop, starts[t + 1])
        part, pivot, cols = slice(a - lo, b - lo), cells[t][1], widths[t]
        rows[pivot, part] = 1
        if cols:  # the digits straight into the rows, a view per free coordinate
            _digits(np.arange(a - starts[t], b - starts[t]), q, len(cols),
                    [rows[c, part] for c in cols])
        cell[part] = t
        parts.append((t, part, pivot, cols))
        t += 1
    rows.flags.writeable = cell.flags.writeable = False
    return cell, rows, tuple(parts)


def _systems(q: int, k: int, lo: int, hi: int, mats):
    """Yield (cell, rows, pivots, rank, solvable) of rows lo..hi-1 of the packed g index.

    The rows and cells of each chunk come from _layout, shared by every
    search at (q, k); only the systems depend on mats.  For a fixed g-row,
    each compiled f^T A g = 0 is one linear equation in f's free coordinates:
    the entries of A g there, its constant at f's pivot 1.  A g is linear in
    g, so each system is the cell's A at g's pivot plus its A at each free
    coordinate times that coordinate.  Every system has the k - 1 unknowns of
    cell (0, 1), cell (i, j), whose f has k - 1 - i free coordinates, taking
    i zero columns last: zero columns are never pivots and eliminating them
    changes nothing, so the cell's pivots are pivots[:n_c, :n_c + 1], as its
    own elimination gives them, and its rank and solvability are the shared
    ones.  Chunks hold _RANK_CHUNK_ROWS rows within the range's first
    _BATCH_ROWS rows and _BATCH_ROWS after that; each is built and eliminated
    in one call, in one buffer.  The arrays have the dtype of mats, rows
    B x (k+1) and the rest batch last; cell and rows are _layout's, read-only.
    """
    import numpy as np

    cells = _cells(k)
    widths = [_free_columns(k, i, j) for i, j in cells]
    n, m = k - 1, len(mats)
    # each cell's rows of every A that meet f: its pivot 1 (the constant), its
    # unknowns, zero columns from row k + 1, which is zero
    picks = [[i, *cols0] + [k + 1] * (n - len(cols0)) for (i, _), (cols0, _) in zip(cells, widths)]
    padded = np.concatenate([mats, np.zeros((m, 1, k + 1), dtype=mats.dtype)], axis=1)
    # cell, g coordinate, equation, column of f, batch
    systems = padded[:, picks, :].transpose(1, 3, 0, 2)[..., None]
    buffer = np.empty(2 * m * (n + 1) * min(hi - lo, _BATCH_ROWS), dtype=mats.dtype)
    start = lo
    while lo < hi:
        stop = min(lo + (_RANK_CHUNK_ROWS if lo - start < _BATCH_ROWS else _BATCH_ROWS), hi)
        cell, rows, parts = _layout(q, k, lo, stop, mats.dtype)
        W, T = buffer[: 2 * m * (n + 1) * (stop - lo)].reshape(2, m, n + 1, stop - lo)
        for t, part, pivot, cols in parts:
            W[..., part] = systems[t, pivot]
            for c in cols:
                W[..., part] += np.multiply(systems[t, c], rows[c, part], out=T[..., part])
        lo = stop
        yield (cell, rows.T, *_eliminate(_mod(W, q, T), q, T))


def _cell_parts(k: int, chunks, cells=None):
    """Yield (cell index, g-rows, pivots) of the given cells (default all) from packed chunks.

    chunks are (cell, g-rows, pivots) of rows in packed order, as _systems
    numbers them; each part is a run of one cell's rows, with the pivots cut
    to that cell's unknowns.
    """
    import numpy as np

    unknowns = [k - 1 - i for i, _ in _cells(k)]
    cells = range(len(unknowns)) if cells is None else cells
    for cell, rows, pivots in chunks:
        # keys in cell's dtype, which numpy would otherwise copy cell out of;
        # the last cell ends where the chunk does
        ends = np.searchsorted(cell, np.arange(len(unknowns), dtype=cell.dtype)).tolist()
        ends.append(len(cell))
        for c in cells:
            a, b, n = ends[c], ends[c + 1], unknowns[c]
            if a < b:
                yield c, rows[a:b], pivots[:n, : n + 1, a:b]


def _matches(q: int, k: int, cell_idx: int, rows, pivots, cap: int):
    """Yield (F, G) batches of matched coefficient rows: each g-row's first cap matches.

    rows are solvable g-rows and pivots their systems from _systems, cut to
    the cell's unknowns, so _solutions lists each row's matches in
    lexicographic order of f.
    """
    import numpy as np

    i, j = _cells(k)[cell_idx]
    cols0 = _free_columns(k, i, j)[0]
    for part, X in _solutions(pivots, q, cap):
        F = _echelon_rows(k, i, cols0, X).reshape(-1, k + 1)
        yield F, np.repeat(rows[part], X.shape[1], axis=0)


def _first_keys(cell_idx: int, F, G) -> list[tuple]:
    """(cell, f row, g row) keys of the SAMPLE_LIMIT first of the given matches of one cell.

    A cell's rows differ only in its free columns, so whole rows sort as the
    matches do.
    """
    import numpy as np

    order = np.lexsort(np.concatenate([F, G], axis=1).T[::-1])[:SAMPLE_LIMIT]
    return [(cell_idx, tuple(f), tuple(g)) for f, g in zip(F[order].tolist(), G[order].tolist())]


def _eliminate_plain(W: list, width: int, q: int) -> tuple[list, int, bool]:
    """_eliminate's steps on one system of plain ints: pivot equations, rank and solvability.

    W is a list of equations, each width residues, the constant first and
    unknown c at c + 1.  Entry c of the pivots is the pivot equation of
    unknown c, its first c + 2 entries as _eliminate gives them, or None
    where c is free.  The update zeroes the pivot equation, which is dropped.
    """
    pivots, rank = [None] * (width - 1), 0
    for c in range(width - 1, 0, -1):
        for P in W:
            if P[c]:
                break
        else:
            continue
        p, rank = P[c], rank + 1
        pivots[c - 1] = P[: c + 1]
        W = [[(p * a - r[c] * b) % q for a, b in zip(r[:c], P)] for r in W if r is not P]
    return pivots, rank, not any(r[0] for r in W)


def _f_row_walk(q: int, k: int, cell_idx: int, mats: tuple, cap: int):
    """Yield (matches, keys) of each solvable f-row of a cell in order: its first cap keys.

    mats are compile_constraint's.  For a fixed f-row each f^T A g = 0 is
    one linear equation in g's n = k - j free coordinates: the entries of
    f^T A there, its constant at g's pivot 1.  f^T A is linear in f, so
    along f's last free coordinate each row's system is the last one plus
    A's rows at that coordinate.  A solvable system has q^(n - rank)
    matches, and the row's first cap are solved for as _solutions orders
    them: the free unknowns run through base-q order and each pivot unknown
    is solved from the more significant ones.  So the keys come in (f, g)
    order.
    """
    i, j = _cells(k)[cell_idx]
    f_cols, g_cols = _free_columns(k, i, j)
    n, g_pivot = len(g_cols), (0,) * j + (1,)
    # row c of each A at g's pivot and free coordinates
    rows = {c: [[A[c][s] for s in (j, *g_cols)] for A in mats] for c in (i, *f_cols)}
    lead, last = f_cols[:-1], f_cols[-1] if f_cols else None
    step = rows.get(last)
    f = [0] * (k + 1)
    f[i] = 1
    for head in product(range(q), repeat=len(lead)):
        system = rows[i]
        for c, x in zip(lead, head):
            f[c] = x
            system = [[a + x * b for a, b in zip(r, d)] for r, d in zip(system, rows[c])]
        system = [[a % q for a in r] for r in system]
        for x in range(q if f_cols else 1):
            if f_cols:
                f[last] = x
            if x:
                system = [[(a + b) % q for a, b in zip(r, d)] for r, d in zip(system, step)]
            pivots, rank, solvable = _eliminate_plain(system, n + 1, q)
            if not solvable:
                continue
            matches, key_f, keys = q ** (n - rank), tuple(f), []
            for index in range(min(matches, cap)):
                g, place = [], matches
                for eq in pivots:
                    if eq is None:  # free: the next base-q digit of index
                        place //= q
                        g.append(index // place % q)
                    else:
                        g.append(-(eq[0] + sum(map(mul, eq[1:], g))) * pow(eq[-1], -1, q) % q)
                keys.append((cell_idx, key_f, g_pivot + tuple(g)))
            yield matches, keys


def _walked_keys(q: int, k: int, mats: tuple, cells, limit: int) -> list[tuple]:
    """Keys of the first limit matches of the given cells, walking their f-rows in order."""
    keys: list[tuple] = []
    for _, row_keys in chain.from_iterable(_f_row_walk(q, k, c, mats, limit) for c in cells):
        keys += row_keys
        if len(keys) >= limit:
            break
    return keys[:limit]


def _is_dense(count: int, sparse: int, f_rows: int) -> bool:
    """Whether a cell's sparse sample route costs more than walking its f-rows.

    count is the cell's matches, sparse its sparse cost (the f's the sparse
    route solves for, at most SAMPLE_LIMIT per solvable g-row) and f_rows
    its f-rows.  It is dense when that cost exceeds what the walk would pay
    if the matches were spread evenly over the f-rows.  Both figures only
    grow with the rows counted, so a part of a cell that is dense shows the
    whole cell dense.
    """
    return sparse * count > SAMPLE_LIMIT * f_rows


def _count_shard(payload) -> tuple[list, list, list, bool]:
    """Count the matches of a range of the packed g index; top-level for pickling.

    A g-row of cell (i, j), where f has k - 1 - i free coordinates, has
    q^(k - 1 - i - rank) matches if its system is solvable and none
    otherwise.  Returns each cell's matches and sparse cost (_is_dense), the
    solvable g-rows kept, as packed (cell, g-rows, pivots) chunks, and
    whether every solvable row was kept for strata.  A cell keeps its rows
    until it shows dense, so while the sparse sample route may want them.
    With strata, every solvable row is kept while the range's matches times
    k - 1 are within _POOL_MIN_STRATA_WORK, so at most that many rows: a
    search with more has the strata pass eliminate its g-rows again.
    strata_budget is None for a plain search; with strata it is (work,
    budget) of search_pencils_ffield, and a cell whose matches in the range
    alone take the work past the budget raises ResourceLimit after the chunk
    that shows it.
    """
    import numpy as np

    q, k, lo, hi, mats, strata_budget = payload
    cells = _cells(k)
    n = k - 1
    offsets = np.array([c * (n + 1) + n - i for c, (i, _) in enumerate(cells)])  # c(n+1) + n_c
    powers = [q**e for e in range(n + 1)]  # a row's matches, and its sparse cost
    capped = [min(p, SAMPLE_LIMIT) for p in powers]
    matches, sparse = [0] * len(cells), [0] * len(cells)
    keep = np.ones(len(cells), dtype=bool)  # cells still sparse
    keep_all = strata_budget is not None
    kept, count = [], 0
    for cell, rows, pivots, rank, solvable in _systems(q, k, lo, hi, mats):
        index = cell.astype(np.intp)  # numpy indexes by intp: one conversion, not two
        codes = offsets[index] - rank
        hist = np.bincount(codes[solvable], minlength=len(cells) * (n + 1)).tolist()
        for c in range(int(cell[0]), int(cell[-1]) + 1):
            row = hist[c * (n + 1) : (c + 1) * (n + 1)]
            if not any(row):
                continue
            found = sum(map(mul, row, powers))
            count += found
            matches[c] += found
            sparse[c] += sum(map(mul, row, capped))
            if strata_budget is not None:
                _check_strata_budget(strata_budget[0] + matches[c], strata_budget[1])
            if keep[c] and _is_dense(matches[c], sparse[c], powers[n - cells[c][0]]):
                keep[c] = False
        if keep_all and count * (k - 1) > _POOL_MIN_STRATA_WORK:
            keep_all = False  # strata will eliminate again: keep the sparse cells' rows only
            kept = [(c[w], r[w], p[..., w]) for c, r, p in kept for w in [keep[c]]]
        wanted = solvable if keep_all else solvable & keep[index]
        if wanted.any():
            kept.append((cell[wanted], rows[wanted], pivots[..., wanted]))
    return matches, sparse, kept, keep_all


def _sample_keys(q: int, k: int, mats, counts: list, sparse: list, kept: list) -> list[tuple]:
    """Keys of the search's first SAMPLE_LIMIT matches, from the cells in order until it has them.

    A cell's keys are those of its first matches, by one of two exact routes
    chosen from its matches, counts[c], and its sparse cost, sparse[c].  A
    sparse cell solves each solvable g-row, as the count kept it, for its
    first SAMPLE_LIMIT f's and merges them (each of the cell's first
    SAMPLE_LIMIT matches is among its own g-row's first SAMPLE_LIMIT).  A
    dense one (_is_dense) walks its f-rows until the search has
    SAMPLE_LIMIT keys (_walked_keys), mats being compile_constraint's.
    """
    import numpy as np

    keys: list[tuple] = []
    for cell_idx, (i, _) in enumerate(_cells(k)):
        if len(keys) >= SAMPLE_LIMIT:
            break
        count, f_rows = counts[cell_idx], q ** (k - 1 - i)
        if not count:
            continue
        if _is_dense(count, sparse[cell_idx], f_rows):
            keys += _walked_keys(q, k, mats, [cell_idx], SAMPLE_LIMIT - len(keys))
            continue
        _, rows, pivots = zip(*_cell_parts(k, kept, [cell_idx]))
        batches = _matches(q, k, cell_idx, np.concatenate(rows),
                           np.concatenate(pivots, axis=-1), SAMPLE_LIMIT)
        F, G = (np.concatenate(b) for b in zip(*batches))
        keys += _first_keys(cell_idx, F, G)
    return keys[:SAMPLE_LIMIT]


def _strata_shard(payload) -> list[int]:
    """Matches per stratum of _STRATA among kept g-rows or packed g-ranges.

    payload is (q, k, mats, kept, ranges): the packed (cell, g-rows, pivots)
    chunks of every solvable g-row, as the count kept them, or None to
    eliminate the packed ranges again (_systems).  Every match is solved
    for, in _solutions batches of about _BATCH_ROWS, and the matches of all
    cells are classified together by _strata_codes, gathered up to
    _BATCH_ROWS: a small search takes one call, and a large one about one per
    batch.
    """
    import numpy as np

    q, k, mats, kept, ranges = payload
    if kept is None:
        kept = ((cell[ok], rows[ok], pivots[..., ok]) for lo, hi in ranges
                for cell, rows, pivots, _, ok in _systems(q, k, lo, hi, mats))
    tally = np.zeros(len(_STRATA), dtype=np.int64)
    pending: list[tuple] = []

    def classify():
        F, G = (np.concatenate(rows) for rows in zip(*pending))
        tally[:] += np.bincount(_strata_codes(q, k, F, G), minlength=len(_STRATA))
        pending.clear()

    for cell_idx, rows, pivots in _cell_parts(k, kept):
        for batch in _matches(q, k, cell_idx, rows, pivots, q ** pivots.shape[0]):
            if pending and sum(len(F) for F, _ in pending + [batch]) > _BATCH_ROWS:
                classify()
            pending.append(batch)
    if pending:
        classify()
    return tally.tolist()


def _strata_ranges(q: int, k: int, counts: list[int], workers: int) -> list[list[tuple]]:
    """Packed g-ranges for the strata pass to eliminate again, as one list per task.

    Only the cells with matches are eliminated.  With one worker they run as
    one task, adjacent cells in one range.  For a pool each such cell is cut into
    contiguous g-ranges, as many as its share of workers * count matches,
    each a task, so the pieces hold about count / workers matches each if
    the matches are spread evenly over the g-rows.
    """
    total, start, ranges = sum(counts), 0, []
    for (_, j), count in zip(_cells(k), counts):
        n_g = q ** (k - j)
        if count:
            pieces = 1 if workers == 1 else min(n_g, math.ceil(workers * count / total))
            bounds = [start + round(s * n_g / pieces) for s in range(pieces + 1)]
            ranges += zip(bounds, bounds[1:])
        start += n_g
    if workers > 1:
        return [[r] for r in ranges]
    merged = ranges[:1]
    for lo, hi in ranges[1:]:
        if merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return [merged]


def _run(fn, tasks: list, jobs: int) -> list:
    """fn over tasks: in a pool of jobs processes if jobs > 1 and there is more than one task."""
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def search_pencils_ffield(
    k: int,
    q: int,
    constraint: SearchConstraint,
    budget: int = DEFAULT_SEARCH_BUDGET,
    jobs: int = 1,
    cache_dir: str | None = None,
    report_strata: bool = False,
) -> SearchResult:
    """Count pencils over F_q meeting the constraint, with up to 20 samples.

    Every 2-dimensional subspace of degree-k forms is counted exactly once
    through reduced-row-echelon representatives (f, g), grouped into cells by
    pivot pair.  With no conditions and no strata the count is the
    Grassmannian's, and the samples are the first 20 pencils of a walk of
    the cells' f-rows on plain ints (_f_row_walk).  A small search without
    strata, whose pencils times compiled conditions are at most
    _PLAIN_MAX_TESTS, counts by that walk too (_plain_search), without numpy;
    jobs has no effect there.

    Every other search, so every strata search, runs the rank kernel, in
    the narrowest of numpy int16, int32 and int64 that holds
    max(1, k-1)(q-1)^2 + q - 1, a bound on every entry of the kernel
    (_kernel_dtype): int16 for q <= 127 at k = 3.  Each
    g-row's conditions form a linear system in f, the side with at least as
    many free coordinates (see _count_shard): the row has q^(n - rank)
    matches if the system is solvable and none otherwise.  One rank pass
    counts every cell: the g-rows of all cells are numbered in one packed
    index, and their systems, padded to one width, are eliminated together
    in batches by _eliminate (_systems).  jobs > 1 cuts that index into
    contiguous ranges over a process pool, except while g-rows times
    conditions times C(k, 2) is below _POOL_MIN_ROW_WORK.  The samples are
    the first matches in (cell, f, g) lexicographic order, worked out after
    the count for the cells in order until there are 20 (_sample_keys).  A
    sparse cell solves each solvable g-row for its first 20 f's and merges
    them; a dense one, where that would cost more, takes the f-row walk
    until the search has 20 matches.  Both are exact, so results are
    independent of jobs, which must be at least 1.  Strata take a second
    pass: it solves for every match and classifies the matches together by
    two ranks mod q (see _strata_codes): the rank of the k x k Bezout matrix
    gives the degree of the base divisor, and where that degree is 2 or
    more, a rank of the multiples of the four partials tells a multiple
    base point from simple ones.  It runs in this process while matches
    times k - 1 are below _POOL_MIN_STRATA_WORK, on the solvable g-rows the
    first pass kept; a larger search eliminates the g-rows of its cells
    with matches again, so neither pass holds more than about that many
    rows.

    budget, which must be at least 0, bounds the work: g-rows times compiled
    conditions, summed over cells, checked before the search starts; with
    report_strata, that plus the matches to classify, checked as the first
    pass counts them (with no conditions every pencil matches, so at once):
    a cell whose matches so far in a range take the work past the budget
    raises at once, and the whole count is checked after the pass.  A
    larger figure raises ResourceLimit, as does a q so large that
    (k+1)(q-1)^2 would overflow int64.

    With cache_dir set, results persist as JSON keyed by a content hash of
    (k, q, constraint); an entry is used only if it records that same question
    and holds canonical residues of samples that meet the conditions
    (_load_cached).  The constraint is compiled first, so a hit refuses what
    a fresh search refuses, such as points over another field.  With
    cache_dir None the cache is neither read nor written; an empty cache_dir
    raises ValueError before anything is read or computed.
    """
    field = Field(q)  # rejects q = 2 and composites
    if k < 1:
        raise ValueError("k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if budget < 0:
        raise ValueError("budget must be at least 0")
    if q <= k:
        raise ValueError("need q > k so that distinct ramification points exist")
    if (k + 1) * (q - 1) ** 2 >= 2**63:
        raise ResourceLimit(
            f"q = {q} is too large for int64 arithmetic at k = {k}: "
            "need (k+1)(q-1)^2 < 2^63"
        )
    if cache_dir == "":
        raise ValueError("cache_dir must name a directory, or be None for no cache")
    mats = compile_constraint(k, q, constraint)  # a hit too must ask a valid question
    cache_path = None
    if cache_dir is not None:
        spec = constraint.to_json_dict()
        spec_text = json.dumps(spec, separators=(",", ":"))
        cache_path = _cache_path(cache_dir, k, q, spec_text)
        cached = _load_cached(cache_path, k, q, spec, mats, report_strata)
        if cached is not None:
            return cached
    widths = [_free_columns(k, i, j) for i, j in _cells(k)]
    total = sum(q ** (len(c0) + len(c1)) for c0, c1 in widths)
    work = len(mats) * sum(q ** len(c1) for _, c1 in widths)
    if work > budget:
        raise ResourceLimit(f"counting by rank takes {work} steps, over the budget of {budget}")
    strata_budget = None
    if report_strata:  # with no conditions every pencil matches: the count is known now
        _check_strata_budget(work + (0 if len(mats) else total), budget)
        strata_budget = (work, budget)
    tally = None
    if not mats and not report_strata:  # every pencil matches
        count = grassmannian_pencil_count(k, q)
        keys = _walked_keys(q, k, mats, range(len(widths)), SAMPLE_LIMIT)
    elif not report_strata and total * len(mats) <= _PLAIN_MAX_TESTS:
        count, keys = _plain_search(q, k, mats)
    else:
        count, keys, tally = _rank_search(q, k, mats, work, strata_budget, jobs)
    # the keys are echelon pairs of residues, independent as their pivots differ
    samples = tuple(_trusted_pencil(field, k, f, g) for _, f, g in keys[:SAMPLE_LIMIT])
    strata = None if tally is None else {name: c for name, c in zip(_STRATA, tally) if c}
    result = SearchResult(count=count, samples=samples, strata=strata)
    if cache_path is not None:
        _store_cached(cache_path, k, q, spec_text, result)
    return result


def _plain_search(q: int, k: int, mats: tuple) -> tuple[int, list]:
    """Count and sample keys of a search, walking every cell's f-rows on plain ints.

    The walk (_f_row_walk) runs in (cell, f, g) order, so the keys kept, those
    of the first SAMPLE_LIMIT matches, are in key order.
    """
    count, keys = 0, []
    for cell_idx in range(len(_cells(k))):
        for found, row_keys in _f_row_walk(q, k, cell_idx, mats, SAMPLE_LIMIT):
            count += found
            keys += row_keys
    return count, keys[:SAMPLE_LIMIT]


def _rank_search(q: int, k: int, mats: tuple, work: int, strata_budget, jobs: int):
    """Count, sample keys in order and strata tally (or None) of a search, by the rank kernel.

    One rank pass counts every cell's g-rows, in ranges of the packed g index
    (_systems), one per worker; the samples and the strata follow from it.
    """
    import numpy as np

    kernel = np.array(mats, dtype=_kernel_dtype(k, q)).reshape(-1, k + 1, k + 1)
    # below the threshold a pool costs more than it shares
    workers = jobs if work * math.comb(k, 2) >= _POOL_MIN_ROW_WORK else 1
    total = sum(q ** (k - j) for _, j in _cells(k))
    bounds = [round(s * total / workers) for s in range(workers + 1)]
    tasks = [(q, k, lo, hi, kernel, strata_budget)
             for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    match_parts, sparse_parts, kept_parts, kept_all = zip(*_run(_count_shard, tasks, workers))
    # each cell's matches and sparse cost, summed over the ranges
    counts, sparse = ([sum(cell) for cell in zip(*parts)] for parts in (match_parts, sparse_parts))
    count = sum(counts)
    if strata_budget is not None:
        _check_strata_budget(strata_budget[0] + count, strata_budget[1])
    kept = [chunk for part in kept_parts for chunk in part]
    keys = _sample_keys(q, k, mats, counts, sparse, kept)
    if strata_budget is None:
        return count, keys, None
    workers = jobs if count * (k - 1) >= _POOL_MIN_STRATA_WORK else 1
    if workers == 1 and all(kept_all):
        tasks = [(q, k, kernel, kept, None)]
    else:
        tasks = [(q, k, kernel, None, ranges) for ranges in _strata_ranges(q, k, counts, workers)]
    return count, keys, [sum(c) for c in zip(*_run(_strata_shard, tasks, workers))]


def _check_strata_budget(steps: int, budget: int) -> None:
    if steps > budget:
        raise ResourceLimit(
            f"classifying strata takes at least {steps} steps, over the budget of {budget}"
        )


# --- cache plumbing ---


def _cache_key(k: int, q: int, spec_text: str) -> str:
    """The content hash of a question, spec_text its constraint's to_json_dict() as compact JSON."""
    import hashlib

    # the bytes of json.dumps with sort_keys: these keys are sorted, as are spec's
    blob = '{"constraint":%s,"k":%d,"q":%d}' % (spec_text, k, q)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_path(cache_dir: str, k: int, q: int, spec_text: str) -> str:
    return os.path.join(cache_dir, f"search-{_cache_key(k, q, spec_text)[:24]}.json")


@lru_cache
def _sample_template(k: int, q: int) -> str:
    """A sample's Pencil.to_json_dict() as compact sorted JSON, with "%d" for each coefficient."""
    form = '{"coeffs":[%s],"degree":%d}' % (",".join(['"%d"'] * (k + 1)), k)
    return '{"f":%s,"field":{"q":%d},"g":%s}' % (form, q, form)


def _store_cached(path: str, k: int, q: int, spec_text: str, result: SearchResult) -> None:
    """Write the entry of a question (spec_text as for _cache_key) and its result.

    The text is written straight in sorted key order, each sample filled into
    _sample_template from its residues, so it is the bytes that json.dumps
    with sort_keys gives of the document with the samples' to_json_dict().
    """
    template = _sample_template(k, q)
    samples = ",".join([template % (*p.f.coeffs, *p.g.coeffs) for p in result.samples])
    strata = json.dumps(result.strata, separators=(",", ":"), sort_keys=True)
    text = ('{"constraint":%s,"count":%d,"k":%d,"q":%d,"samples":[%s],"schema":1,"strata":%s}'
            % (spec_text, result.count, k, q, samples, strata))
    # a temporary name of this write's own (its process and 64 random bits), so
    # that concurrent writers of one entry never move each other's file; the
    # last replace wins, whole
    tmp = f"{path}.{os.getpid()}-{os.urandom(8).hex()}.tmp"
    try:
        fh = open(tmp, "wb")
    except FileNotFoundError:  # the directory's first entry
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fh = open(tmp, "wb")
    with fh:
        fh.write(text.encode())
    os.replace(tmp, path)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # bool is an int subclass


def _stored_residues(form, k: int, q: int) -> tuple:
    """The k + 1 coefficients of a stored form of degree k, as written; ValueError otherwise.

    Each must be the decimal string of a residue mod q as str gives it: no
    sign, space, leading zero, fraction or non-ASCII digit.
    """
    coeffs = form["coeffs"]
    if type(form["degree"]) is not int or form["degree"] != k or len(coeffs) != k + 1:
        raise ValueError("not a stored form of degree k")
    values = tuple(map(int, coeffs))
    if list(map(str, values)) != coeffs or not all(0 <= v < q for v in values):
        raise ValueError("not canonical residues")
    return values


def _echelon_key(f: tuple, g: tuple) -> tuple | None:
    """(i, j, f, g), sorting as (cell, f, g) does, if (f, g) is a reduced echelon pair; else None.

    The pair of cell (i, j) has f's first nonzero entry a 1 at i, g's a 1 at
    j > i, and f zero at j, so its forms are independent.
    """
    if 1 not in f or 1 not in g:
        return None
    i, j = f.index(1), g.index(1)
    return (i, j, f, g) if i < j and not any(f[:i] + g[:j]) and not f[j] else None


def _load_cached(
    path: str, k: int, q: int, spec: dict, mats: tuple, report_strata: bool
) -> SearchResult | None:
    """The stored result, or None if absent, unreadable, malformed or for another question.

    An entry must hold a nonnegative int count, strata that are None or
    stratum names mapped to such counts, summing to the count, and
    min(count, SAMPLE_LIMIT) samples whose two forms each have degree k and
    exactly k + 1 coefficients, each a residue mod q written as
    _store_cached writes it (_stored_residues).  The samples must be reduced
    echelon pairs, so independent, in strictly increasing (cell, f, g)
    order, as a search gives them (_echelon_key), and each must meet every
    condition of mats, compile_constraint's; anything else is recomputed.
    All of it is checked on plain ints, and only then are the samples built,
    unchecked (_trusted_pencil).  Stored strata are returned only when
    report_strata asks for them, so a hit prints what a fresh search would.
    """
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return None
    stored = (doc.get("k"), doc.get("q"), doc.get("constraint"))
    if stored != (k, q, spec):
        return None  # a colliding or doctored entry; recompute
    strata = doc.get("strata")
    if report_strata and strata is None:
        return None  # cached run lacks the strata breakdown; recompute
    strata_ok = strata is None or isinstance(strata, dict) and all(
        name in _STRATA and _is_count(c) for name, c in strata.items()
    )
    count = doc.get("count")
    if not (strata_ok and _is_count(count)):
        return None  # malformed; recompute
    if strata is not None and sum(strata.values()) != count:
        return None
    try:
        keys = [_echelon_key(_stored_residues(s["f"], k, q), _stored_residues(s["g"], k, q))
                for s in doc["samples"]]
    except (KeyError, TypeError, ValueError):
        return None
    if len(keys) != min(count, SAMPLE_LIMIT) or None in keys:
        return None
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return None  # not the search's first matches in order
    # A is antisymmetric, so f^T A g is its upper triangle against the
    # pair's Plucker coordinates f_i g_j - f_j g_i
    cells = _cells(k)
    uppers = [[A[i][j] for i, j in cells] for A in mats]
    for _, _, f, g in keys:
        plucker = [f[i] * g[j] - f[j] * g[i] for i, j in cells]
        if any(sum(map(mul, a, plucker)) % q for a in uppers):
            return None  # not a match
    field = Field(q)
    samples = tuple(_trusted_pencil(field, k, f, g) for _, _, f, g in keys)
    return SearchResult(count=count, samples=samples, strata=strata if report_strata else None)


# ---------------------------------------------------------------------------
# dimension estimation


class DimensionEstimate(Frozen):
    raw: float
    rational: Fraction
    nearest: int
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "raw": self.raw,
            "rational": [self.rational.numerator, self.rational.denominator],
            "nearest": self.nearest,
            "residual": self.residual,
        }


def dimension_estimate(counts: list[tuple[int, int]]) -> DimensionEstimate:
    """Fit d in count ~ c * q^d from (q, count) pairs at two or more primes.

    Two samples use the log-ratio directly; more use the least-squares slope
    of log(count) against log(q).  The rational field carries the same value
    with numerator and denominator rounded at 10^-6, making reports stable to
    print and compare.  Each q must be prime, 2 included; a composite one
    raises ValueError.  A zero count means the variety is empty and no
    dimension exists: that raises ZeroCount rather than returning -inf.
    """
    if len(counts) < 2:
        raise ValueError("need at least two (q, count) samples")
    qs = [q for q, _ in counts]
    if len(set(qs)) != len(qs):
        raise ValueError("samples must use distinct primes")
    for q, c in counts:
        if not _is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        if c < 0:
            raise ValueError("counts cannot be negative")
        if c == 0:
            raise ZeroCount(f"count at q={q} is zero; the family is empty there")
    if len(counts) == 2:
        (q1, c1), (q2, c2) = counts
        num = math.log(c2 / c1)
        den = math.log(q2 / q1)
    else:
        xs = [math.log(q) for q, _ in counts]
        ys = [math.log(c) for _, c in counts]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        den = sum((x - xbar) ** 2 for x in xs)
    raw = num / den
    rational = Fraction(round(num * 10**6), round(den * 10**6))
    nearest = round(raw)
    return DimensionEstimate(
        raw=raw, rational=rational, nearest=nearest, residual=raw - nearest
    )


__all__ = [
    "AlphaTuple",
    "ChainSpec",
    "ConicSectionReport",
    "DescentReport",
    "DimensionEstimate",
    "LimitCurveModel",
    "SearchConstraint",
    "SearchResult",
    "build_limit_curve",
    "compile_constraint",
    "descends",
    "dimension_estimate",
    "enumerate_alpha",
    "exists_alpha",
    "grassmannian_pencil_count",
    "intersect_with_conic",
    "search_pencils_ffield",
    "DEFAULT_SEARCH_BUDGET",
]
