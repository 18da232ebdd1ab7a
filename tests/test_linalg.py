"""Exact Gauss-Jordan elimination against definitions."""

from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah4.linalg import gauss_jordan

entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=5):
    return st.integers(min_cols, max_cols).flatmap(
        lambda cols: st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=min_rows,
            max_size=max_rows,
        )
    )


def leibniz_det(matrix):
    total = Fraction(0)
    n = len(matrix)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)), st.booleans())
@settings(max_examples=80)
def test_determinant_matches_leibniz(matrix, repeat_a_row):
    if repeat_a_row and len(matrix) > 1:
        matrix[-1] = list(matrix[0])
    assert gauss_jordan(matrix)[2] == leibniz_det(matrix)


@given(matrices())
@settings(max_examples=80)
def test_echelon_form_and_independent_sources(matrix):
    rows, pivots, _ = gauss_jordan(matrix)
    assert len(rows) == len(pivots)
    assert pivots == sorted(set(pivots))
    for r, col in enumerate(pivots):
        assert [row[col] for row in rows] == [int(i == r) for i in range(len(rows))]
    # every row lies in the span of the echelon rows: reducing it leaves zero
    for row in matrix:
        rest = [Fraction(v) for v in row]
        for echelon, col in zip(rows, pivots):
            factor = rest[col]
            rest = [a - factor * b for a, b in zip(rest, echelon)]
        assert not any(rest)


def test_augmented_solve_leaves_the_rhs_unpivoted():
    rows, pivots, _ = gauss_jordan([[2, 1, 5], [1, 3, 5]], ncols=2)
    assert pivots == [0, 1]
    assert [row[-1] for row in rows] == [2, 1]
    # an inconsistent system keeps rank 1 in the searched columns
    _, pivots, _ = gauss_jordan([[1, 1, 1], [2, 2, 3]], ncols=2)
    assert pivots == [0]
