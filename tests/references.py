"""Independent references that the tests compare the package against."""

from itertools import combinations
from typing import Iterator

from atiyah4 import catalog
from atiyah4.atiyah import hopf_lift, paired_lift
from atiyah4.symmetry import symmetric_totals


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to ``total``.

    Recursive, in descending lex order (leftmost slot most significant), and
    empty for a negative total.
    """
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def reference_atiyah_matrix(points, pair_phases=None):
    """Atiyah matrix by the schoolbook product loop over an n x n lift table.

    Entry [i][j] of the table is the lift of P_j - P_i for i < j and its
    partner lift for i > j; column j multiplies observer j's factors in
    ascending k into the coefficient list one factor at a time.  No input
    checks: the points are distinct and finite, and ``pair_phases`` (if
    given) has one entry per pair in combinations order.
    """
    n = len(points)
    lifts = [[None] * n for _ in range(n)]
    for index, (i, j) in enumerate(combinations(range(n), 2)):
        p, q = points[i], points[j]
        z, w = hopf_lift((q[0] - p[0], q[1] - p[1], q[2] - p[2]))
        if pair_phases is not None:
            lam = complex(pair_phases[index])
            z, w = lam * z, lam * w
        lifts[i][j] = (z, w)
        lifts[j][i] = paired_lift((z, w))
    columns = []
    for j, row_lifts in enumerate(lifts):
        coeffs = [complex(1.0)]
        for k, lift in enumerate(row_lifts):
            if k == j:
                continue
            z, w = lift
            grown = [complex(0.0)] * (len(coeffs) + 1)
            for row, value in enumerate(coeffs):
                grown[row] += z * value
                grown[row + 1] += w * value
            coeffs = grown
        columns.append(coeffs)
    return [list(row) for row in zip(*columns)]


def reference_eq52_residual():
    """d4^2 - P4 - (4 z4 + v4^2)(d4 + 32 p4 + m4) - M4, every product expanded.

    The route ``certify.check_eq52`` took before it compared orbit totals:
    no symmetry is assumed, so an asymmetric ingredient shows in the result.
    """
    d4 = catalog.d4()
    return (
        d4 * d4
        - catalog.big_p4()
        - (4 * catalog.z4() + catalog.v4() ** 2)
        * (d4 + 32 * catalog.p4() + catalog.m4())
        - catalog.big_m4()
    )


def orbit_columns(basis):
    """LP columns from (name, Poly) pairs, each through ``symmetry.symmetric_totals``.

    An asymmetric polynomial is refused as ``lp.standard_basis`` refuses
    an extra: ``column '<name>' is not symmetric``.
    """
    return [(name, symmetric_totals(f"column {name!r}", poly)) for name, poly in basis]
