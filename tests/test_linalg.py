"""Exact Gauss-Jordan elimination against definitions."""

import math
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


def fraction_form(matrix):
    return [[Fraction(v) for v in row] for row in matrix]


@given(matrices(), st.lists(st.booleans(), min_size=4, max_size=4))
@settings(max_examples=80)
def test_int_rows_match_their_fraction_form(matrix, as_int):
    """Rows of exact ints skip the scaling to integers; the result must not show it."""
    all_int = [[math.floor(v) for v in row] for row in matrix]
    assert gauss_jordan(all_int) == gauss_jordan(fraction_form(all_int))
    mixed = [ints if flag else row for ints, row, flag in zip(all_int, matrix, as_int)]
    assert gauss_jordan(mixed) == gauss_jordan(fraction_form(mixed))


def test_bool_entries_act_as_their_int_values():
    bools = [[True, False, True], [True, True, False], [False, True, True]]
    ints = [[int(v) for v in row] for row in bools]
    assert gauss_jordan(bools) == gauss_jordan(ints)
    assert gauss_jordan(bools, ncols=2) == gauss_jordan(ints, ncols=2)


def test_callers_rows_are_left_alone():
    matrix = [[0, 2, 1], [3, 1, 4], [6, 2, 8], (1, 1, 1)]
    before = [list(row) for row in matrix]
    rows, pivots, _ = gauss_jordan(matrix)
    assert [list(row) for row in matrix] == before
    assert pivots == [0, 1, 2]
    assert not any(row is caller for row in rows for caller in matrix)
