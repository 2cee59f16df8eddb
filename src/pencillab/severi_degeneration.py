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
are worked out after the count, cell by cell until there are enough: found
by walking the f-rows where the cell is dense, and where it is sparse
solved for per g-row that the count kept, on plain ints by the walk's own
solver.  Either way the keys are residues of independent echelon pairs, so
the sample pencils are built from them unchecked.  The walk of f-rows, each
row's system in g built and eliminated on plain ints, also counts the small
searches, of at most _PLAIN_MAX_TESTS pencil tests, and finds the samples
of a search with no conditions: neither imports numpy.  Strata classify no
pencil: a pencil is its base divisor times a base-point-free pencil whose
conditions follow in closed form, so they come from counts of smaller
degree, in plain ints (_strata_from_counts).
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
# leaves room for that with many conditions, and refuses a count whose
# g-rows times conditions are an order of magnitude more.
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
# workload reaches it.
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
# A search with conditions walks its f-rows on plain ints
# (_plain_search), and never imports numpy, while its Grassmannian's pencils x
# conditions are at most this.  A cold process saves the numpy import,
# 70-130 ms.  Warm, in-process with numpy loaded (2 cores, median of 31), the
# walk against the kernel by pencil tests, with one incidence: 57 (k = 2 over
# F_7) 0.13 vs 0.50 ms, 133 (F_11) 0.15 vs 0.30 ms, 381 (F_19) 0.16 vs
# 0.31 ms, 553 (F_23) 0.18 vs 0.22 ms, 806 (k = 3 over F_5) 0.42 vs 0.21 ms
# and 2850 (F_7) 0.82 vs 0.23 ms.  So a warm caller loses nothing here; a
# larger constant waits for a cold measurement.  The counts behind a strata
# search (_strata_from_counts) take the same rule.
_PLAIN_MAX_TESTS = 500
# Budget steps charged, before the strata's walks start (_strata_from_counts),
# for each count of smaller degree that the walks might make.  With sixteen
# incidences through one point over F_17 (2-core VM), a count and its share of
# the walk took 0.53 ms at k = 6 (3368 counts in 1.79 s), what about 37,000
# steps take in the rank kernel (7*10^7 a second at k = 4 over F_101).
_STATE_STEPS = 50_000


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


def _digits(idx, q: int, out: list) -> None:
    """Write the base-q digits of an array of indices into out, most significant first.

    This is the one codec between enumeration order and coordinates: index t
    of a cell's g-range stands for the free coordinates digits(t), so ranges
    of indices are lexicographic ranges of coordinate tuples, as the f-row
    walk and _solved run through them.  out holds one array shaped like idx
    per digit, of any integer dtype.
    """
    import numpy as np

    idx = np.array(idx, dtype=np.int64)
    for digit in reversed(out):
        np.divmod(idx, q, out=(idx, digit))


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
    (_systems), and the fraction-free update of _eliminate forms the
    difference of two products.  So int16 serves q <= 181 at k <= 2,
    q <= 127 at k = 3 and q <= 103 at k = 4, and int32 q <= 46337 at
    k <= 2.  The plain ints mixed into kernel arrays, q and 1, are below M,
    so numpy's casting takes them as the dtype.  Fewer bytes make the
    kernel's temporaries cheaper to touch.  ResourceLimit's int64 guard
    (search_pencils_ffield) stays on the looser (k+1)(q-1)^2.  No numpy
    array is solved: the samples are solved for on plain ints (_solved).
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
            _digits(np.arange(a - starts[t], b - starts[t]), q, [rows[c, part] for c in cols])
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


def _solved(pivots: list, q: int, matches: int, cap: int) -> list[tuple]:
    """The first min(matches, cap) solutions of a solvable system, in lexicographic order.

    pivots are _eliminate_plain's, and matches is q^free.  The free unknowns
    run through base-q order and each pivot unknown is solved from the more
    significant ones, so two solutions first differ in a free unknown.
    """
    solutions = []
    for index in range(min(matches, cap)):
        x, place = [], matches
        for eq in pivots:
            if eq is None:  # free: the next base-q digit of index
                place //= q
                x.append(index // place % q)
            else:
                x.append(-(eq[0] + sum(map(mul, eq[1:], x))) * pow(eq[-1], -1, q) % q)
        solutions.append(tuple(x))
    return solutions


def _f_row_walk(q: int, k: int, cell_idx: int, mats: tuple, cap: int):
    """Yield (matches, keys) of each solvable f-row of a cell in order: its first cap keys.

    mats are compile_constraint's.  For a fixed f-row each f^T A g = 0 is
    one linear equation in g's n = k - j free coordinates: the entries of
    f^T A there, its constant at g's pivot 1.  f^T A is linear in f, so
    along f's last free coordinate each row's system is the last one plus
    A's rows at that coordinate.  A solvable system has q^(n - rank)
    matches, and the row's first cap are solved for in order (_solved), so
    the keys come in (f, g) order.
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
            matches, key_f = q ** (n - rank), tuple(f)
            yield matches, [(cell_idx, key_f, g_pivot + g)
                            for g in _solved(pivots, q, matches, cap)]


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


def _count_shard(payload) -> tuple[list, list, list]:
    """Count the matches of a range of the packed g index; top-level for pickling.

    A g-row of cell (i, j), where f has k - 1 - i free coordinates, has
    q^(k - 1 - i - rank) matches if its system is solvable and none
    otherwise.  Returns each cell's matches and sparse cost (_is_dense), and
    the solvable g-rows kept, as packed (cell, g-rows, pivots) chunks.  With
    samples, a cell keeps its rows until it shows dense, so while the sparse
    sample route may want them; without, none is kept.
    """
    import numpy as np

    q, k, lo, hi, mats, samples = payload
    cells = _cells(k)
    n = k - 1
    offsets = np.array([c * (n + 1) + n - i for c, (i, _) in enumerate(cells)])  # c(n+1) + n_c
    powers = [q**e for e in range(n + 1)]  # a row's matches, and its sparse cost
    capped = [min(p, SAMPLE_LIMIT) for p in powers]
    matches, sparse = [0] * len(cells), [0] * len(cells)
    keep = np.full(len(cells), samples)  # cells still sparse
    kept = []
    for cell, rows, pivots, rank, solvable in _systems(q, k, lo, hi, mats):
        index = cell.astype(np.intp)  # numpy indexes by intp: one conversion, not two
        codes = offsets[index] - rank
        hist = np.bincount(codes[solvable], minlength=len(cells) * (n + 1)).tolist()
        for c in range(int(cell[0]), int(cell[-1]) + 1):
            row = hist[c * (n + 1) : (c + 1) * (n + 1)]
            if not any(row):
                continue
            matches[c] += sum(map(mul, row, powers))
            sparse[c] += sum(map(mul, row, capped))
            if keep[c] and _is_dense(matches[c], sparse[c], powers[n - cells[c][0]]):
                keep[c] = False
        wanted = solvable & keep[index]
        if wanted.any():
            kept.append((cell[wanted], rows[wanted], pivots[..., wanted]))
    return matches, sparse, kept


def _sample_keys(q: int, k: int, mats, counts: list, sparse: list, kept: list) -> list[tuple]:
    """Keys of the search's first SAMPLE_LIMIT matches, from the cells in order until it has them.

    A cell's keys are those of its first matches, by one of two exact routes
    chosen from its matches, counts[c], and its sparse cost, sparse[c].  A
    sparse cell solves each solvable g-row, as the count kept it, for its
    first SAMPLE_LIMIT f's on plain ints, by the walk's solver (_solved),
    and sorts them (each of the cell's first SAMPLE_LIMIT matches is among
    its own g-row's first SAMPLE_LIMIT).  Only the kept rows of the cells
    the samples reach leave numpy, their pivots cut to the cell's
    n = k - 1 - i unknowns.  A dense cell (_is_dense) walks its f-rows
    until the search has SAMPLE_LIMIT keys (_walked_keys), mats being
    compile_constraint's.
    """
    keys: list[tuple] = []
    for cell_idx, (i, j) in enumerate(_cells(k)):
        if len(keys) >= SAMPLE_LIMIT:
            break
        count, n = counts[cell_idx], k - 1 - i
        if not count:
            continue
        if _is_dense(count, sparse[cell_idx], q**n):
            keys += _walked_keys(q, k, mats, [cell_idx], SAMPLE_LIMIT - len(keys))
            continue
        found = []  # (f's free coordinates, g): they sort as the keys do
        for cell, rows, pivots in kept:
            at = cell == cell_idx
            systems = pivots[:n, : n + 1, at].transpose(2, 0, 1).tolist()
            for g, eqs in zip(map(tuple, rows[at].tolist()), systems):
                eqs = [r[: u + 2] if r[u + 1] else None for u, r in enumerate(eqs)]
                found += [(x, g) for x in _solved(eqs, q, q ** eqs.count(None), SAMPLE_LIMIT)]
        # f is 1 at i, 0 at j and its free coordinates in the other columns
        head, cut = (0,) * i + (1,), j - i - 1
        keys += [(cell_idx, head + x[:cut] + (0,) + x[cut:], g)
                 for x, g in sorted(found)[:SAMPLE_LIMIT]]
    return keys[:SAMPLE_LIMIT]


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
    pivot pair.  With no conditions the count is the Grassmannian's, and the
    samples are the first 20 pencils of a walk of the cells' f-rows on plain
    ints (_f_row_walk).  A small search, whose pencils times compiled
    conditions are at most _PLAIN_MAX_TESTS, counts by that walk too
    (_plain_search), without numpy; jobs has no effect there.

    Every other search runs the rank kernel, in the narrowest of numpy
    int16, int32 and int64 that holds max(1, k-1)(q-1)^2 + q - 1, a bound on
    every entry of the kernel (_kernel_dtype): int16 for q <= 127 at k = 3.
    Each g-row's conditions form a linear system in f, the side with at
    least as many free coordinates (see _count_shard): the row has
    q^(n - rank) matches if the system is solvable and none otherwise.  One
    rank pass counts every cell: the g-rows of all cells are numbered in one
    packed index, and their systems, padded to one width, are eliminated
    together in batches by _eliminate (_systems).  jobs > 1 cuts that index
    into contiguous ranges over a process pool, except while g-rows times
    conditions times C(k, 2) is below _POOL_MIN_ROW_WORK.  The samples are
    the first matches in (cell, f, g) lexicographic order, worked out after
    the count for the cells in order until there are 20 (_sample_keys).  A
    sparse cell solves each solvable g-row the rank pass kept for its first
    20 f's, on plain ints by the walk's solver, and sorts them; a dense
    one, where that would cost more, takes the f-row walk until the search
    has 20 matches.  Both are exact, so results are independent of jobs,
    which must be at least 1.

    report_strata splits the count by base divisor: none, a squarefree one,
    or one with a multiple point.  The split comes from counts of smaller
    degree, made by the same rules without samples, and closed forms
    (_strata_from_counts); no pencil is classified.

    budget, which must be at least 0, bounds the work: g-rows times compiled
    conditions, summed over cells, checked before the search starts.  With
    report_strata, _STATE_STEPS for each count of smaller degree that the
    strata might need is added before any runs, and each one's work before it
    runs.  A larger figure raises ResourceLimit, as does a q so
    large that (k+1)(q-1)^2 would overflow int64.

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
    work = _work(k, q, mats)
    if work > budget:
        raise ResourceLimit(f"counting by rank takes {work} steps, over the budget of {budget}")
    count, keys = _count(q, k, mats, work, jobs, True)
    # the keys are echelon pairs of residues, independent as their pivots differ
    samples = tuple(_trusted_pencil(field, k, f, g) for _, f, g in keys)
    strata = None
    if report_strata:
        tally = _strata_from_counts(k, q, constraint, count, jobs, work, budget)
        strata = {name: c for name, c in zip(_STRATA, tally) if c}
    result = SearchResult(count=count, samples=samples, strata=strata)
    if cache_path is not None:
        _store_cached(cache_path, k, q, spec_text, result)
    return result


def _work(k: int, q: int, mats: tuple) -> int:
    """The budget steps of a count: g-rows times compiled conditions, summed over cells."""
    return len(mats) * sum(q ** (k - j) for _, j in _cells(k))


def _count(q: int, k: int, mats: tuple, work: int, jobs: int, samples: bool):
    """Count and sample keys of a search (none without samples), by the path its size takes.

    With no conditions every pencil matches, and the samples come from the
    walk; up to _PLAIN_MAX_TESTS pencil tests the walk counts too, and above
    that the rank kernel does.  work is _work's.
    """
    if not mats:
        keys = _walked_keys(q, k, mats, range(len(_cells(k))), SAMPLE_LIMIT) if samples else []
        return grassmannian_pencil_count(k, q), keys
    if grassmannian_pencil_count(k, q) * len(mats) <= _PLAIN_MAX_TESTS:
        return _plain_search(q, k, mats, samples)
    return _rank_search(q, k, mats, work, jobs, samples)


def _plain_search(q: int, k: int, mats: tuple, samples: bool) -> tuple[int, list]:
    """Count and sample keys of a search, walking every cell's f-rows on plain ints.

    The walk (_f_row_walk) runs in (cell, f, g) order, so the keys kept, those
    of the first SAMPLE_LIMIT matches, are in key order.
    """
    count, keys = 0, []
    for cell_idx in range(len(_cells(k))):
        for found, row_keys in _f_row_walk(q, k, cell_idx, mats, SAMPLE_LIMIT if samples else 0):
            count += found
            keys += row_keys
    return count, keys[:SAMPLE_LIMIT]


def _rank_search(q: int, k: int, mats: tuple, work: int, jobs: int, samples: bool):
    """Count and sample keys in order (none without samples) of a search, by the rank kernel.

    One rank pass counts every cell's g-rows, in ranges of the packed g index
    (_systems), one per worker; the samples follow from it.
    """
    import numpy as np

    kernel = np.array(mats, dtype=_kernel_dtype(k, q)).reshape(-1, k + 1, k + 1)
    # below the threshold a pool costs more than it shares
    workers = jobs if work * math.comb(k, 2) >= _POOL_MIN_ROW_WORK else 1
    total = sum(q ** (k - j) for _, j in _cells(k))
    bounds = [round(s * total / workers) for s in range(workers + 1)]
    tasks = [(q, k, lo, hi, kernel, samples) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    match_parts, sparse_parts, kept_parts = zip(*_run(_count_shard, tasks, workers))
    # each cell's matches and sparse cost, summed over the ranges
    counts, sparse = ([sum(cell) for cell in zip(*parts)] for parts in (match_parts, sparse_parts))
    if not samples:
        return sum(counts), []
    kept = [chunk for part in kept_parts for chunk in part]
    return sum(counts), _sample_keys(q, k, mats, counts, sparse, kept)


# ---------------------------------------------------------------------------
# strata from counts

# Base-divisor strata, as SearchResult.strata names them
_STRATA = ("base_point_free", "simple_base_divisor", "multiple_base_points")


def _sqrt_mod(a: int, q: int) -> int | None:
    """A square root of a mod the odd prime q, or None where a is no square (Tonelli-Shanks)."""
    if pow(a, (q - 1) // 2, q) > 1:
        return None
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = t 2^s, t odd
    t = (q - 1) >> s
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)  # a non-square
    c, x, b = pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b > 1:  # x^2 = a b, and the order 2^i of b falls at each step
        i = next(i for i in range(1, s) if pow(b, 1 << i, q) == 1)
        d = pow(c, 1 << (s - i - 1), q)
        s, c, x, b = i, d * d % q, x * d % q, b * d * d % q
    return x


def _pair_points(q: int, u: int, v: int, w: int) -> tuple:
    """The closed points of P^1 over F_q in the pair (u : v : w), each once.

    sym_point(a, b) is the pair whose form w x0^2 - v x0 x1 + u x1^2 vanishes
    at a and b.  Its F_q-points come as their normalized (x0, x1); where
    v^2 - 4uw is no square, its roots are conjugate over F_(q^2), one closed
    point of degree 2, which comes as (u, v, w).  So a point's degree is its
    length less 1.
    """
    if u == 0:  # [0:1] is a root, and [v:w] the other
        return tuple(dict.fromkeys([(0, 1), (1, w * pow(v, -1, q) % q) if v else (0, 1)]))
    root = _sqrt_mod(v * v - 4 * u * w, q)
    if root is None:
        return ((u, v, w),)
    half = pow(2 * u, -1, q)
    return tuple(dict.fromkeys([(1, (v + root) * half % q), (1, (v - root) * half % q)]))


def _times(a: list, b: list) -> list:
    """The product of two power series in t, to as many terms as a."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] += x * y
    return out


def _strata_from_counts(k: int, q: int, constraint, count: int, jobs: int,
                        spent: int, budget: int) -> list[int]:
    """Pencils per stratum of _STRATA among a search's count, from counts of smaller degree.

    The pencils V of degree k whose base divisor h divides are the h V' for
    the pencils V' of degree k - deg h, and V meets the conditions C iff V'
    meets C_h: V's pair curve is h(x)h(y) times V''s, so V meets an
    incidence iff h vanishes at one of its points or V' meets it, and V has
    a member of order e at p iff V' has one of order e - ord_p(h), which
    every pencil has below 2.  So N_(k - deg h)(C_h) pencils meeting C have
    h in their base divisor, and by Moebius inversion over the squarefree g,
    sum mu(g) N_(k - deg g)(C_g) have none and sum mu(g) N_(k - 2 deg g)(C_(g^2))
    a squarefree one.

    g acts only through the closed points of C (_pair_points) it contains.
    Each ramification point is an option, as is each group of the other
    points on the same incidences; an option in g multiplies the series of
    mu by degree by prod (1 - t^deg) - 1 over its points (t^2 for g^2), and
    the points off C give (1 - t)(1 - q t) / prod (1 - t^deg) over C's.
    N_k(C) is count; N_m(C') for m < k is a search's count (_count, without
    samples or cache), the Grassmannian's with no conditions, and 0 at m = 1
    or below an order.  A zero N_m(C') makes every term below it zero, so
    the options are walked depth first and a walk stops there.  spent is the
    search's work: _STATE_STEPS for each count that the walks might make is
    added before they start, and each count's work before it runs; past
    budget, ResourceLimit.
    """
    if not count:
        return [0, 0, 0]
    syms = {sp.coords(): sp for sp in constraint.incidences}
    points = {pt.coords(): pt for pt, _ in constraint.ramifications}
    # the highest order at each point implies the others
    rams = sorted((p, max(e for pt, e in constraint.ramifications if pt.coords() == p))
                  for p in points)
    incs = tuple(sorted(syms))
    kills: dict = {}  # each closed point of the incidences, and the incidences through it
    for c in incs:
        for p in _pair_points(q, *c):
            kills.setdefault(p, set()).add(c)
    groups: dict = {}  # the other points by the incidences through them: their degrees
    for p in kills.keys() - points.keys():
        groups.setdefault(frozenset(kills[p]), []).append(len(p) - 1)
    # (degrees, lowest degree, incidences made to hold, index in rams or None)
    options = [([1], 1, frozenset(kills.get(p, ())), at) for at, (p, _) in enumerate(rams)]
    options += [(degrees, min(degrees), dead, None) for dead, degrees in groups.items()]
    counts = {(k, (incs, tuple(rams))): count}

    def charge(steps: int) -> None:
        nonlocal spent
        spent += steps
        if spent > budget:
            raise ResourceLimit(f"the strata take at least {spent} steps, over the budget of {budget}")

    def n(m: int, conds: tuple) -> int:
        if not any(conds):
            return grassmannian_pencil_count(m, q)
        if m == 1 or any(e > m for _, e in conds[1]):
            return 0
        if (m, conds) not in counts:
            mats = compile_constraint(m, q, SearchConstraint(
                [syms[c] for c in conds[0]], [(points[p], e) for p, e in conds[1]]))
            work = _work(m, q, mats)
            charge(work)
            counts[m, conds] = _count(q, m, mats, work, jobs, False)[0]
        return counts[m, conds]

    def series(degrees, s: int, a: int = 1) -> list:
        """prod (1 - a t^(s d)) over degrees d, to k terms."""
        out = [1] + [0] * (k - 1)
        for d in degrees:
            out = _times(out, ([1] + [0] * (s * d - 1) + [-a] + [0] * k)[:k])
        return out

    def sieve(s: int) -> int:
        """The sum of mu(g) N_(k - s deg g)(C_(g^s)) over squarefree g."""
        base = _times(series([1], s), series([1], s, q))
        for p in kills.keys() | points.keys():
            base = _times(base, [int(i % (s * (len(p) - 1)) == 0) for i in range(k)])
        found: dict = {}  # conditions left -> the series of mu(g) over the g that leave them

        def walk(start: int, part: list, low: int, held: frozenset, orders: tuple) -> None:
            conds = (tuple(c for c in incs if c not in held),
                     tuple((p, e) for (p, _), e in zip(rams, orders) if e > 1))
            if n(k - low, conds):
                found[conds] = [a + b for a, b in zip(found.get(conds, [0] * k), part)]
                for i, (degrees, least, dead, at) in enumerate(options[start:], start):
                    if low + s * least < k:  # times prod (1 - t^(s d)) - 1
                        more = [x - y for x, y in zip(_times(part, series(degrees, s)), part)]
                        walk(i + 1, more, low + s * least, held | dead,
                             orders if at is None else orders[:at] + (orders[at] - s,) + orders[at + 1:])

        walk(0, [1] + [0] * (k - 1), 0, frozenset(), tuple(e for _, e in rams))
        return sum(c * n(k - d, conds) for conds, part in found.items()
                   for d, c in enumerate(_times(base, part)) if c)

    # the sets of options by lowest degree j, each reaching counts at degrees 2..k - j
    lows = [least for _, least, _, _ in options]
    charge(_STATE_STEPS * sum(c * (k - 1 - j) for s in (1, 2)
                              for j, c in enumerate(series(lows, s, -1))))
    base_free, squarefree = sieve(1), sieve(2)
    return [base_free, squarefree - base_free, count - squarefree]


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
    stratum names mapped to positive int counts (the writer omits empty
    strata) summing to the count, and min(count, SAMPLE_LIMIT) samples whose
    two forms each have degree k and exactly k + 1 coefficients, each a
    residue mod q written as _store_cached writes it (_stored_residues).
    The samples must be reduced echelon pairs, so independent, in strictly
    increasing (cell, f, g) order, as a search gives them (_echelon_key),
    and each must meet every condition of mats, compile_constraint's;
    anything else is recomputed.
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
        name in _STRATA and _is_count(c) and c for name, c in strata.items()
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
