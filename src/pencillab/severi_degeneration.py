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
With f fixed the forms are linear in g, so each f-row's matches are the
solutions of a linear system mod q, eliminated in batches in numpy int64.
Counts come from the ranks; samples and strata from solving for the
matches, in lexicographic order.  No g is listed by brute force.  Strata
classify each batch of matches by two more ranks mod q, through the same
elimination.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ChainMismatch,
    PointCollision,
    ResourceLimit,
    ZeroCount,
)
from .fields import Field
from .numerology import (  # re-exported for callers of this module
    AlphaTuple,
    enumerate_alpha,
    exists_alpha,
    grassmannian_pencil_count,
)
from .pencil_geometry import (
    BinaryForm,
    Pencil,
    PlaneCurve,
    ProjPoint,
    SymPoint,
    _move_to_origin,
    _poly_squarefree,
    _trim,
    curve_resultant,
    wedge_basis_curve,
)

SAMPLE_LIMIT = 20

# Work budget of a search, in the units search_pencils_ffield documents.  The
# k=4 ladder over F_101 takes about 2.1*10^7 steps at one condition and
# 4.6*10^7 at six; the default leaves room for that and for strata searches
# of the k=3 Grassmannian over F_101 (105,111,206 pencils), and refuses
# anything an order of magnitude larger.
DEFAULT_SEARCH_BUDGET = 200_000_000

_RANK_CHUNK_ROWS = 8192  # f-rows per batch of the rank kernel
# A count whose f-rows x conditions figure is below this runs in one process
# whatever jobs is.  On 2 cores a pool of two lost 3-8 ms per search below
# 3*10^5 (k = 3 over F_101: 2.4 ms alone, 6 ms pooled), broke about even from
# 2.5*10^5 to 10^6 (sooner at k = 4), and won 1.3-2x above 10^6.
_POOL_MIN_ROW_WORK = 500_000
# A strata search of a Grassmannian with fewer pencils than this runs in one
# process whatever jobs is.  Unconstrained, on 2 cores, alone against a pool
# of two: k = 2 over F_101 (10303 pencils) 6.2 vs 7.8 ms, k = 2 over F_127
# (16257) 9.6 vs 12.2 ms, k = 3 over F_11 (16226) about 22 ms either way,
# k = 4 over F_5 (20306) 59 vs 40 ms and k = 3 over F_13 (31110) 39 vs 32 ms.
_POOL_MIN_STRATA_PENCILS = 16_000


# ---------------------------------------------------------------------------
# chains and limit-curve models


@dataclass(frozen=True)
class ChainSpec:
    """A chain of 2m-1 ruling lines, remembered by its distinguished pair."""

    m: int
    pair: tuple

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("chain parameter m must be at least 1")
        a, b = self.pair
        if not isinstance(a, ProjPoint) or not isinstance(b, ProjPoint):
            raise TypeError("pair must hold two projective points")
        if a == b:
            raise PointCollision("distinguished pair must be two distinct points")
        object.__setattr__(self, "pair", (a, b))

    @property
    def length(self) -> int:
        return 2 * self.m - 1


@dataclass(frozen=True)
class LimitCurveModel:
    """A g-nodal model of the sectional line: node pairs plus marked points."""

    node_pairs: tuple
    marked_points: tuple
    orders: tuple

    def __post_init__(self):
        pairs = tuple((a, b) for a, b in self.node_pairs)
        marked = tuple(self.marked_points)
        orders = tuple(int(e) for e in self.orders)
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


@dataclass(frozen=True)
class DescentReport:
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


@dataclass(frozen=True)
class SearchConstraint:
    """Incidence and ramification conditions imposed on a pencil.

    incidences: SymPoints the induced plane curve must pass through.
    ramifications: (point, order) pairs each demanding a member vanishing to
    at least that order there.
    """

    incidences: tuple = ()
    ramifications: tuple = ()

    def __post_init__(self):
        inc = tuple(self.incidences)
        ram = tuple((pt, int(e)) for pt, e in self.ramifications)
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

    def is_empty(self) -> bool:
        return not self.incidences and not self.ramifications

    def to_json_dict(self) -> dict:
        return {
            "incidences": [sp.to_json() for sp in self.incidences],
            "ramifications": [[pt.to_json(), e] for pt, e in self.ramifications],
        }


@dataclass(frozen=True)
class SearchResult:
    count: int
    samples: tuple
    strata: dict | None

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "samples": [p.to_json_dict() for p in self.samples],
            "strata": self.strata,
        }


def _cells(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]


def _free_columns(k: int, i: int, j: int) -> tuple[list[int], list[int]]:
    cols0 = [c for c in range(i + 1, k + 1) if c != j]
    cols1 = list(range(j + 1, k + 1))
    return cols0, cols1


def _taylor_rows(field: Field, k: int, p: ProjPoint, order: int) -> list[list[int]]:
    """Rows a < order of the matrix taking coefficients to Taylor coefficients at p."""
    rows = [[0] * (k + 1) for _ in range(order)]
    for col in range(k + 1):
        unit = BinaryForm(field, k, tuple(1 if t == col else 0 for t in range(k + 1)))
        moved = _move_to_origin(unit, p)
        for a in range(order):
            rows[a][col] = int(moved.coeffs[a])
    return rows


def compile_constraint(k: int, q: int, constraint: SearchConstraint) -> list:
    """Antisymmetric matrices A with: pencil span(f, g) matches iff f^T A g = 0 for all A.

    Incidence at a SymPoint contributes one matrix, built from the coordinate
    wedge-basis curves (so the test agrees with bezoutian_curve evaluation).
    Ramification of order e contributes the C(e, 2) Taylor minors that
    has_ramification_at checks.  Basis invariance is automatic: antisymmetric
    bilinear values rescale by the determinant under basis change.
    """
    import numpy as np

    field = Field(q)
    mats: list[np.ndarray] = []
    for sp in constraint.incidences:
        if sp.field != field:
            raise ValueError("incidence point field does not match q")
        A = np.zeros((k + 1, k + 1), dtype=np.int64)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                val = int(wedge_basis_curve(field, k, i, j).evaluate(sp))
                A[i, j] = val
                A[j, i] = (-val) % q
        mats.append(A)
    for pt, order in constraint.ramifications:
        if pt.field != field:
            raise ValueError("ramification point field does not match q")
        if order > k:
            raise ValueError("ramification order exceeds the degree")
        T = _taylor_rows(field, k, pt, order)
        for a in range(order):
            for b in range(a + 1, order):
                A = np.zeros((k + 1, k + 1), dtype=np.int64)
                for i in range(k + 1):
                    for l in range(k + 1):
                        A[i, l] = (T[a][i] * T[b][l] - T[b][i] * T[a][l]) % q
                mats.append(A)
    return mats


def _digits(idx, q: int, width: int) -> np.ndarray:
    """Base-q digits of an index (or an array of them), most significant first.

    This is the one codec between enumeration order and coordinates: index t
    of a cell's f-range (or g-range) stands for the free coordinates digits(t),
    so ranges of indices are lexicographic ranges of coordinate tuples.
    """
    import numpy as np

    idx = np.array(idx, dtype=np.int64)
    out = np.empty(idx.shape + (width,), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        idx, out[..., pos] = np.divmod(idx, q)
    return out


def _echelon_pencil(
    field: Field, k: int, cell: tuple[int, int], f_vals, g_vals
) -> Pencil:
    """The pencil of a cell's echelon pair with the given free coordinates."""
    i, j = cell
    cols0, cols1 = _free_columns(k, i, j)
    f = [0] * (k + 1)
    g = [0] * (k + 1)
    f[i] = 1
    g[j] = 1
    for c, v in zip(cols0, f_vals):
        f[c] = int(v)
    for c, v in zip(cols1, g_vals):
        g[c] = int(v)
    return Pencil(BinaryForm(field, k, tuple(f)), BinaryForm(field, k, tuple(g)))


def _row_systems(q: int, k: int, cell: tuple[int, int], mats, f_idx):
    """A cell's f-rows with the given indices, and their linear systems in g.

    With f fixed, each compiled f^T A g = 0 (g[j] = 1) is one equation in g's
    n = |cols1| free coordinates: the systems come back as B x m x (n+1), the
    last column holding the constants.
    """
    import numpy as np

    i, j = cell
    cols0, cols1 = _free_columns(k, i, j)
    mats = np.array(mats, dtype=np.int64).reshape(-1, k + 1, k + 1)
    n, m = len(cols1), len(mats)
    # columns of every A that meet g: the n unknowns, then the constant g[j] = 1
    system = mats[:, :, cols1 + [j]].transpose(1, 0, 2).reshape(k + 1, m * (n + 1))
    F_rows = np.zeros((len(f_idx), k + 1), dtype=np.int64)
    F_rows[:, i] = 1
    F_rows[:, cols0] = _digits(f_idx, q, len(cols0))
    return F_rows, ((F_rows @ system) % q).reshape(len(F_rows), m, n + 1)


def _eliminate(S: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivot equations and solvability of a batch of linear systems over F_q.

    S is B x m x (n+1): B augmented systems of m equations in n unknowns, the
    last column holding the constants.  Gaussian elimination runs on all B
    systems at once, from the last unknown to the first, each system taking
    as pivot its first unused equation with a nonzero coefficient.  Every
    equation r is then replaced fraction-free by p*r - r[c]*pivot, p the pivot
    entry, so no inverse mod q is needed and no product exceeds (q-1)^2.
    Row c of the returned B x n x (n+1) array is the pivot equation of
    unknown c as chosen, so it involves c and only the more significant
    unknowns before it; it is zero where c is free, and the rank is the number
    of nonzero diagonal entries.  A system is solvable iff no unused equation
    keeps a nonzero constant.
    """
    import numpy as np

    B, m, width = S.shape
    used = np.zeros((B, m), dtype=bool)
    pivots = np.zeros((B, width - 1, width), dtype=np.int64)
    batch = np.arange(B)
    for c in range(width - 2, -1, -1):
        candidates = (S[:, :, c] != 0) & ~used
        has = candidates.any(axis=1)
        if not has.any():
            continue
        piv = candidates.argmax(axis=1)
        pivots[:, c] = np.where(has[:, None], S[batch, piv], 0)
        scale = np.where(has, pivots[:, c, c], 1)
        S = (scale[:, None, None] * S - S[:, :, c, None] * pivots[:, None, c]) % q
        used[batch[has], piv[has]] = True
    solvable = ~((S[:, :, -1] != 0) & ~used).any(axis=1)
    return pivots, solvable


def _rank(pivots: np.ndarray) -> np.ndarray:
    """Rank of each system's coefficient matrix, from _eliminate's pivots."""
    import numpy as np

    return (np.diagonal(pivots, axis1=1, axis2=2) != 0).sum(axis=1)


def _solutions(pivots: np.ndarray, q: int, cap: int):
    """Yield (row positions, R x count x n solutions) for the solvable systems given.

    pivots comes from _eliminate.  Rows are grouped by their free unknowns,
    and each gets its first count = min(q^free, cap) solutions, about
    _RANK_CHUNK_ROWS solutions per batch.  The free unknowns run through
    base-q order and each pivot unknown is solved from the more significant
    ones, so two solutions first differ in a free unknown: the order is
    lexicographic.
    """
    import numpy as np

    n = pivots.shape[1]
    free = np.diagonal(pivots, axis1=1, axis2=2) == 0
    pattern = free @ (1 << np.arange(n))
    for pat in set(pattern.tolist()):
        rows = np.flatnonzero(pattern == pat)
        mask = free[rows[0]]
        count = min(q ** int(mask.sum()), cap)
        step = max(1, _RANK_CHUNK_ROWS // count)
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step]
            G = np.zeros((len(part), count, n), dtype=np.int64)
            G[:, :, mask] = _digits(np.arange(count), q, int(mask.sum()))
            for c in np.flatnonzero(~mask).tolist():
                eq = pivots[part, c]
                inv = np.array([pow(a, -1, q) for a in eq[:, c].tolist()], dtype=np.int64)
                rhs = (G[:, :, :c] @ eq[:, :c, None])[:, :, 0] + eq[:, None, n]
                G[:, :, c] = (-rhs % q) * inv[:, None] % q
            yield part, G


# Base-divisor strata, in the order of _strata_codes
_STRATA = ("base_point_free", "simple_base_divisor", "multiple_base_points")


def _multiples(forms: np.ndarray, shifts: int) -> np.ndarray:
    """The products of each batch's forms with the monomials of degree shifts - 1.

    forms is B x r x (d+1), r forms of degree d per batch.  Multiplying by a
    monomial shifts a coefficient vector, so the result is the B x (r*shifts)
    x (d+shifts) matrix of those products, with a zero constant column
    appended for _eliminate.
    """
    import numpy as np

    B, r, width = forms.shape
    out = np.zeros((B, r * shifts, width + shifts), dtype=np.int64)
    for a in range(shifts):
        out[:, a::shifts, a : a + width] = forms
    return out


def _strata_codes(q: int, k: int, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Index into _STRATA of the base divisor of each pencil span(F[b], G[b]).

    F and G are B x (k+1) coefficient rows mod q of independent forms.  Two
    ranks, both through _eliminate, decide it.  deg gcd(f, g) is 2k minus the
    rank of the Sylvester matrix of f and g times the monomials of degree
    k-1.  Where that degree is positive, a base point is multiple iff it is a
    root of the four partials d0f, d1f, d0g, d1g: with q > k, Euler's
    relation k*f = x0*d0f + x1*d1f makes those the roots of f and g of
    multiplicity at least 2.  Forms of degree k-1 share a root iff their
    multiples by the monomials of degree k-2 span less than all 2k-2 forms of
    degree 2k-3.
    """
    import numpy as np

    codes = np.zeros(len(F), dtype=np.int64)
    sylvester = _multiples(np.stack([F, G], axis=1), k)
    based = np.flatnonzero(_rank(_eliminate(sylvester, q)[0]) < 2 * k)
    if based.size:  # never at k = 1, where independent forms are coprime
        t = np.arange(k + 1)
        f, g = F[based], G[based]
        partials = np.stack([
            f[:, :-1] * t[::-1][:-1], f[:, 1:] * t[1:],
            g[:, :-1] * t[::-1][:-1], g[:, 1:] * t[1:],
        ], axis=1) % q
        ranks = _rank(_eliminate(_multiples(partials, k - 1), q)[0])
        codes[based] = np.where(ranks < 2 * k - 2, 2, 1)
    return codes


def _tally_strata(q: int, k: int, cell, F_rows, pivots, tally: np.ndarray) -> None:
    """Add to tally, per stratum, the pencils of every solution of each solvable row."""
    import numpy as np

    i, j = cell
    cols1 = _free_columns(k, i, j)[1]
    for part, G in _solutions(pivots, q, q ** len(cols1)):
        g_rows = np.zeros(G.shape[:2] + (k + 1,), dtype=np.int64)
        g_rows[:, :, j] = 1
        g_rows[:, :, cols1] = G
        f_rows = np.broadcast_to(F_rows[part, None], g_rows.shape)
        codes = _strata_codes(q, k, f_rows.reshape(-1, k + 1), g_rows.reshape(-1, k + 1))
        tally += np.bincount(codes, minlength=len(_STRATA))


def _search_shard(payload) -> tuple[int, list[tuple], list[int] | None]:
    """Search one cell's f-index range; top-level for pickling.

    A row has q^(n - rank) matches if its system is solvable and none
    otherwise.  Returns the count, the (cell, f) keys of the first
    SAMPLE_LIMIT rows with a match, and, if asked, the matches in each
    stratum of _STRATA.
    """
    import numpy as np

    (q, k, cell_idx, i, j, f_lo, f_hi, mats, want_strata) = payload
    n = len(_free_columns(k, i, j)[1])
    if not mats and not want_strata:  # no conditions: every row has rank 0
        rows = [(cell_idx, f) for f in range(f_lo, min(f_hi, f_lo + SAMPLE_LIMIT))]
        return (f_hi - f_lo) * q**n, rows, None
    by_rank = np.zeros(n + 1, dtype=np.int64)
    rows = []
    tally = np.zeros(len(_STRATA), dtype=np.int64)
    for lo in range(f_lo, f_hi, _RANK_CHUNK_ROWS):
        f_idx = np.arange(lo, min(lo + _RANK_CHUNK_ROWS, f_hi))
        F_rows, S = _row_systems(q, k, (i, j), mats, f_idx)
        pivots, solvable = _eliminate(S, q)
        by_rank += np.bincount(_rank(pivots)[solvable], minlength=n + 1)
        first = f_idx[solvable][: SAMPLE_LIMIT - len(rows)].tolist()
        rows += [(cell_idx, f) for f in first]
        if want_strata:
            _tally_strata(q, k, (i, j), F_rows[solvable], pivots[solvable], tally)
    count = sum(int(c) * q ** (n - r) for r, c in enumerate(by_rank.tolist()))
    return count, rows, tally.tolist() if want_strata else None


def _sample_keys(q: int, k: int, mats, rows) -> list[tuple]:
    """The first SAMPLE_LIMIT (cell, f, g) keys of the sorted (cell, f) rows given.

    Each row holds a match; its first matches are solved for, not scanned.
    """
    import numpy as np

    found = {}
    for cell_idx, group in itertools.groupby(rows, key=lambda row: row[0]):
        f_idx = [f for _, f in group]
        _, S = _row_systems(q, k, _cells(k)[cell_idx], mats, f_idx)
        pivots, _ = _eliminate(S, q)
        place = q ** np.arange(pivots.shape[1] - 1, -1, -1, dtype=np.int64)
        for part, G in _solutions(pivots, q, SAMPLE_LIMIT):
            for b, g_idx in zip(part.tolist(), (G @ place).tolist()):
                found[cell_idx, f_idx[b]] = g_idx
    return [(c, f, g) for c, f in rows for g in found[c, f]][:SAMPLE_LIMIT]


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
    pivot pair.  With no constraint (and no strata request) the per-cell
    counts are summed arithmetically.  Otherwise each f-row's conditions form
    a linear system in g (see _row_systems), eliminated in batches by
    _eliminate: the row has q^(n - rank) matches if the system is solvable
    and none otherwise.  The samples, the first matches in (cell, f, g)
    lexicographic order, are solved for from the first rows that have
    matches (see _solutions); so results are independent of jobs.  jobs > 1
    shards the work over a process pool, except for a count whose f-rows
    times conditions figure is below _POOL_MIN_ROW_WORK, or a strata search
    of a Grassmannian with fewer than _POOL_MIN_STRATA_PENCILS pencils,
    which run in this process whatever jobs is.  Strata reporting solves for
    every match and classifies the matches of a batch together by two ranks
    mod q (see _strata_codes): a Sylvester rank gives the degree of the base
    divisor, and a rank of the multiples of the four partials tells a
    multiple base point from simple ones.

    budget bounds the work the chosen path does, computed before it starts:
    f-rows times compiled conditions, summed over cells; for strata, the
    number of pencils in the Grassmannian.  A larger figure raises
    ResourceLimit, as does a q so large that (k+1)(q-1)^2 would overflow
    int64.

    With cache_dir set, results persist as JSON keyed by a content hash of
    (k, q, constraint); an entry is used only if it records that same question.
    With cache_dir None the cache is neither read nor written.
    """
    field = Field(q)  # rejects q = 2 and composites
    if k < 1:
        raise ValueError("k must be at least 1")
    if q <= k:
        raise ValueError("need q > k so that distinct ramification points exist")
    if (k + 1) * (q - 1) ** 2 >= 2**63:
        raise ResourceLimit(
            f"q = {q} is too large for int64 arithmetic at k = {k}: "
            "need (k+1)(q-1)^2 < 2^63"
        )
    cache_path = None
    if cache_dir is not None:
        cache_path = _cache_path(cache_dir, k, q, constraint)
        cached = _load_cached(cache_path, k, q, constraint, report_strata)
        if cached is not None:
            return cached
    cells = _cells(k)
    widths = [_free_columns(k, i, j) for i, j in cells]
    total = sum(q ** (len(c0) + len(c1)) for c0, c1 in widths)
    mats = compile_constraint(k, q, constraint)
    if report_strata:
        work, what, pool_min = total, "classifying strata", _POOL_MIN_STRATA_PENCILS
    else:
        work = len(mats) * sum(q ** len(c0) for c0, _ in widths)
        what, pool_min = "counting by rank", _POOL_MIN_ROW_WORK
    if work < pool_min:
        jobs = 1  # forking a pool would cost more than the search
    if work > budget:
        raise ResourceLimit(f"{what} takes {work} steps, over the budget of {budget}")
    mats_raw = [tuple(map(tuple, A.tolist())) for A in mats]
    tasks = []
    for cell_idx, ((i, j), (cols0, _)) in enumerate(zip(cells, widths)):
        n_f = q ** len(cols0)
        shards = max(1, min(jobs, n_f // 4)) if jobs > 1 else 1
        bounds = [round(s * n_f / shards) for s in range(shards + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            if lo < hi:
                tasks.append((q, k, cell_idx, i, j, lo, hi, mats_raw, report_strata))
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_search_shard, tasks))
    else:
        outcomes = [_search_shard(t) for t in tasks]
    count = sum(outcome[0] for outcome in outcomes)
    rows = sorted(key for outcome in outcomes for key in outcome[1])
    keys = _sample_keys(q, k, mats_raw, rows[:SAMPLE_LIMIT])
    strata = None
    if report_strata:
        tally = [sum(outcome[2][s] for outcome in outcomes) for s in range(len(_STRATA))]
        strata = {name: c for name, c in zip(_STRATA, tally) if c}
    samples = _decode_samples(field, k, keys)
    result = SearchResult(count=count, samples=samples, strata=strata)
    if cache_path is not None:
        _store_cached(cache_path, k, q, constraint, result)
    return result


def _decode_samples(field: Field, k: int, keys) -> tuple:
    """The pencils that (cell index, f index, g index) keys stand for."""
    cells = _cells(k)
    samples = []
    for cell_idx, f_idx, g_idx in keys:
        cols0, cols1 = _free_columns(k, *cells[cell_idx])
        samples.append(_echelon_pencil(
            field, k, cells[cell_idx],
            _digits(f_idx, field.q, len(cols0)), _digits(g_idx, field.q, len(cols1)),
        ))
    return tuple(samples)


# --- cache plumbing ---


def _cache_key(k: int, q: int, constraint: SearchConstraint) -> str:
    doc = {"k": k, "q": q, "constraint": constraint.to_json_dict()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_path(cache_dir: str, k: int, q: int, constraint: SearchConstraint) -> str:
    return os.path.join(cache_dir, f"search-{_cache_key(k, q, constraint)[:24]}.json")


def _store_cached(
    path: str, k: int, q: int, constraint: SearchConstraint, result: SearchResult
) -> None:
    doc = {
        "schema": 1,
        "k": k,
        "q": q,
        "constraint": constraint.to_json_dict(),
        "count": result.count,
        "samples": [p.to_json_dict() for p in result.samples],
        "strata": result.strata,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    os.replace(tmp, path)


def _load_cached(
    path: str, k: int, q: int, constraint: SearchConstraint, report_strata: bool
) -> SearchResult | None:
    """The stored result, or None if absent, unreadable or for another question.

    Stored strata are returned only when report_strata asks for them, so a
    hit prints what a fresh search would.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if doc.get("schema") != 1:
        return None
    stored = (doc.get("k"), doc.get("q"), doc.get("constraint"))
    if stored != (k, q, constraint.to_json_dict()):
        return None  # a colliding or doctored entry; recompute
    if report_strata and doc.get("strata") is None:
        return None  # cached run lacks the strata breakdown; recompute
    field = Field(q)
    samples = tuple(
        Pencil(
            BinaryForm.from_json_dict(field, s["f"]),
            BinaryForm.from_json_dict(field, s["g"]),
        )
        for s in doc["samples"]
    )
    strata = doc.get("strata") if report_strata else None
    return SearchResult(count=doc["count"], samples=samples, strata=strata)


# ---------------------------------------------------------------------------
# dimension estimation


@dataclass(frozen=True)
class DimensionEstimate:
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
    print and compare.  A zero count means the variety is empty and no
    dimension exists: that raises ZeroCount rather than returning -inf.
    """
    if len(counts) < 2:
        raise ValueError("need at least two (q, count) samples")
    qs = [q for q, _ in counts]
    if len(set(qs)) != len(qs):
        raise ValueError("samples must use distinct primes")
    for q, c in counts:
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


# ---------------------------------------------------------------------------
# conic sections of plane curves


@dataclass(frozen=True)
class ConicSectionReport:
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
    chart = _trim(field, list(form.coeffs))
    x0_mult = form.degree - (len(chart) - 1)
    sqf = x0_mult <= 1 and _poly_squarefree(field, chart)
    return ConicSectionReport(
        expected_degree=expected,
        degree=form.degree,
        homogeneous=True,
        squarefree=sqf,
        transversal=form.degree == expected and sqf,
        resultant=form,
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
