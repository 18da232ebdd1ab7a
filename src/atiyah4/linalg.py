"""Exact Gauss-Jordan elimination.

One routine serves every exact linear-algebra need of the package: the
two basis solves of the LP certificate (``lp``), whose rows are all
ints, and the exact Cayley-Menger determinant (``atiyah``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polyring import Coeff


def gauss_jordan(
    matrix: Sequence[Sequence[Coeff]], ncols: int | None = None
) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form of ``matrix``, computed exactly.

    Pivots are sought only in the first ``ncols`` columns (all of them by
    default), so an augmented right-hand side is carried along without
    being pivoted on.  Returns ``(rows, pivots, det)``:

    - ``rows[r]`` is the r-th nonzero row of the echelon form; it holds a 1
      in column ``pivots[r]`` and a 0 there in every other row;
    - ``det`` is the determinant of a square matrix (0 when it is singular).

    Each row is scaled to integers first (a row of exact ints is only
    copied) and the elimination is fraction-free (Bareiss): the division
    by the previous pivot is exact, because every entry stays a minor of
    the scaled matrix.  Integer arithmetic is several times faster than
    Fraction arithmetic here.
    """
    work: list[list[int]] = []
    scale = 1
    for row in matrix:
        if all(type(v) is int for v in row):
            work.append(list(row))
            continue
        entries = [Fraction(v) for v in row]
        multiplier = math.lcm(*(v.denominator for v in entries))
        work.append([int(v * multiplier) for v in entries])
        scale *= multiplier
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    sign = 1
    previous = 1
    rank = 0
    for col in range(ncols):
        if rank == len(work):
            break
        found = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if found is None:
            continue
        if found != rank:
            work[rank], work[found] = work[found], work[rank]
            sign = -sign
        pivot_row = work[rank]
        pivot = pivot_row[col]
        for i, other in enumerate(work):
            if i == rank:
                continue
            factor = other[col]
            if factor:
                work[i] = [(pivot * a - factor * b) // previous
                           for a, b in zip(other, pivot_row)]
            else:
                work[i] = [pivot * a // previous for a in other]
        previous = pivot
        pivots.append(col)
        rank += 1
    # Every pivot row now carries the last pivot in its pivot column.
    rows = [[Fraction(v, previous) for v in row] for row in work[:rank]]
    det = Fraction(sign * previous, scale) if rank == len(work) else Fraction(0)
    return rows, pivots, det
