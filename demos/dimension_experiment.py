"""Measuring the dimension of a pencil family by counting points mod p.

If a family has dimension d, its point count over F_q grows like q^d.  The
demo counts pencils of cubic binary forms subject to 0..4 incidence
conditions on their pair curves, over three primes, and fits the exponent by
least squares.  Each generic incidence condition should cost exactly one
dimension.

Run:  python3 demos/dimension_experiment.py   (about a second)
"""

from pencillab import (
    SearchConstraint,
    dimension_estimate,
    grassmannian_pencil_count,
    search_pencils_ffield,
    sym_point,
)
from pencillab.fields import Field
from pencillab.pencil_geometry import ProjPoint

# pairs of P^1 points whose symmetric products give independent conditions
# with rational solutions, so the exponent ladder is clean at every prime
PAIRS = (((1, 0), (1, 1)), ((1, -1), (1, 2)), ((1, 3), (0, 1)), ((1, 4), (1, -3)))

PRIMES = (31, 101, 211)
K = 3


def pt(field, a, b):
    return ProjPoint(field, field.coerce(a), field.coerce(b))


def ladder(q):
    field = Field(q)
    xis = [sym_point(pt(field, *a), pt(field, *b)) for a, b in PAIRS]
    counts = []
    for c in range(0, len(xis) + 1):
        res = search_pencils_ffield(K, q, SearchConstraint(incidences=tuple(xis[:c])))
        counts.append(res.count)
    return counts


def main():
    print(f"Counting pencils of degree-{K} forms over F_q, 0..4 incidence conditions.")
    all_counts = {}
    for q in PRIMES:
        counts = ladder(q)
        all_counts[q] = counts
        closed = grassmannian_pencil_count(K, q)
        print(f"\n  q={q}: ladder {counts}")
        print(f"        empty-constraint count matches closed form: {counts[0] == closed}")

    print("\nFitted exponents (expected 4 - #conditions):")
    for c in range(1, 5):
        est = dimension_estimate([(q, all_counts[q][c]) for q in PRIMES])
        print(f"  {c} condition(s): q^{est.raw:.3f}  -> nearest integer {est.nearest}")

    print("\nCounts at intermediate steps stay clean because each incidence is a")
    print("hyperplane section tangent to the quadric of split pencils: 4 cuts")
    print("leave the two rational solutions you can check by hand.")


if __name__ == "__main__":
    main()
