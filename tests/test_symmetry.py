"""Group structure of the 24 induced distance permutations and averaging."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah4.polyring import Poly, mono_key, variable, variables
from atiyah4.symmetry import (
    GROUP_ORDER,
    ROWS,
    ConstructionError,
    OrbitTable,
    SIGNS,
    apply_perm,
    average_of_totals,
    is_skew_symmetric,
    is_symmetric,
    orbit_canonical,
    orbit_sum,
    orbit_totals,
    permute_mono,
    permute_tuple,
    product_totals,
    self_test,
    sym_average,
    symmetric_totals,
)

monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * 6)
row_indices = st.integers(min_value=0, max_value=GROUP_ORDER - 1)

_ROW_INDEX = {row: i for i, row in enumerate(ROWS)}


def compose(first: int, second: int) -> int:
    """Row index applying row ``first`` and then row ``second``.

    ``apply_perm(apply_perm(p, first), second) == apply_perm(p, compose(first, second))``.
    """
    row_f, row_s = ROWS[first], ROWS[second]
    return _ROW_INDEX[tuple(row_s[row_f[k]] for k in range(len(row_f)))]


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
points = st.tuples(*[rationals] * 6)


@st.composite
def polys(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        terms[draw(monos)] = draw(st.integers(min_value=-9, max_value=9))
    return Poly(terms)


def test_self_test_is_clean():
    report = self_test()
    assert report["order"] == 24
    assert report["even_rows"] == 12


def test_rows_are_distinct_permutations():
    assert len(ROWS) == GROUP_ORDER == 24
    assert len(set(ROWS)) == 24
    for row in ROWS:
        assert sorted(row) == [0, 1, 2, 3, 4, 5]


def test_identity_row_and_signs(relabelling_row):
    assert ROWS[0] == (0, 1, 2, 3, 4, 5)
    assert relabelling_row("ABCD") == 0
    swaps = ["BACD", "CBAD", "DBCA", "ACBD", "ADCB", "ABDC"]
    assert all(SIGNS[relabelling_row(swap)] == -1 for swap in swaps)
    assert sum(1 for s in SIGNS if s == 1) == 12


def test_compose_identity_and_inverses():
    for i in range(24):
        assert compose(i, 0) == i
        assert compose(0, i) == i
        assert any(compose(i, j) == 0 for j in range(24))


def test_sign_homomorphism():
    for i in range(24):
        for j in range(24):
            assert SIGNS[compose(i, j)] == SIGNS[i] * SIGNS[j]


def test_swapping_second_and_third_labels_is_an_odd_row(relabelling_row):
    u = (1, 2, 3, 4, 5, 6)
    row = relabelling_row("ACBD")
    assert permute_tuple(u, row) == (1, 3, 2, 6, 5, 4)
    assert SIGNS[row] == -1


def _distances(A, B, C, D):
    """(a, b, c, x, y, z) of the labelled points A, B, C, D, pair by pair."""
    return (
        math.dist(A, D), math.dist(B, D), math.dist(C, D),
        math.dist(A, B), math.dist(B, C), math.dist(A, C),
    )


def _parity(sigma):
    """+1 or -1 as sigma has an even or odd number of even-length cycles."""
    sign, seen = 1, set()
    for start in range(len(sigma)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = sigma[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_row_i_is_the_ith_relabelling_of_the_points():
    # Row i belongs to the i-th ordering sigma in permutations order: the
    # relabelled tetrahedron's point t is the old point sigma[t].
    rng = random.Random(18)
    points = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(4)]
    u = _distances(*points)
    assert len(set(u)) == 6  # distinct distances, so each row is pinned down
    orderings = list(permutations(range(4)))
    assert len(orderings) == GROUP_ORDER
    for i, sigma in enumerate(orderings):
        assert permute_tuple(u, i) == _distances(*(points[t] for t in sigma))
        assert SIGNS[i] == _parity(sigma)


@given(monos, row_indices, row_indices)
def test_permute_mono_composes(mono, i, j):
    chained = permute_mono(permute_mono(mono, ROWS[i]), ROWS[j])
    assert chained == permute_mono(mono, ROWS[compose(i, j)])


@given(polys(), row_indices, points)
@settings(max_examples=80)
def test_apply_perm_matches_point_permutation(f, i, u):
    assert apply_perm(f, i).evaluate(u) == f.evaluate(permute_tuple(u, i))


@given(polys(max_terms=3))
@settings(max_examples=40)
def test_orbit_sum_is_symmetric(f):
    assert is_symmetric(orbit_sum(f))


@given(polys(max_terms=3))
@settings(max_examples=30)
def test_average_is_idempotent(f):
    averaged = sym_average(f)
    assert sym_average(averaged) == averaged


@given(polys(max_terms=2), polys(max_terms=2))
@settings(max_examples=30)
def test_average_is_linear(f, g):
    assert sym_average(f + g) == sym_average(f) + sym_average(g)


def test_average_fixes_symmetric_inputs():
    a, b, c, x, y, z = variables()
    s1 = a + b + c + x + y + z
    assert sym_average(s1) == s1
    assert sym_average(a) == s1.scale(Fraction(1, 6))


@given(polys(max_terms=3), row_indices, points)
@settings(max_examples=40)
def test_orbit_sum_matches_numeric_route(f, i, u):
    lhs = orbit_sum(f).evaluate(u)
    rhs = sum(f.evaluate(permute_tuple(u, k)) for k in range(24))
    assert lhs == rhs


def test_skew_detection():
    a, b, c, x, y, z = variables()
    skew = Poly({})
    for i in range(24):
        skew = skew + apply_perm(variable("a") * variable("b") ** 2, i).scale(SIGNS[i])
    if skew.is_zero():
        pytest.skip("orbit signed sum collapsed; pick a richer seed term")
    assert is_skew_symmetric(skew)
    assert not is_skew_symmetric(a + b)
    assert not is_symmetric(skew) or skew.is_zero()


@given(monos, row_indices)
def test_orbit_canonical_is_orbit_invariant(mono, i):
    assert orbit_canonical(permute_mono(mono, ROWS[i])) == orbit_canonical(mono)


@given(monos)
def test_orbit_canonical_dominates(mono):
    canon = orbit_canonical(mono)
    images = [permute_mono(mono, row) for row in ROWS]
    assert canon in images
    assert max(images, key=mono_key) == canon


def reference_orbit_sum(poly):
    """The definition: push every term through all 24 rows and add."""
    acc = {}
    for row in ROWS:
        for mono, coeff in poly.terms.items():
            image = permute_mono(mono, row)
            acc[image] = acc.get(image, 0) + coeff
    return Poly(acc)


mixed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@st.composite
def mixed_polys(draw, max_terms=6):
    """Mixed-degree polynomials with int and Fraction coefficients."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        terms[draw(monos)] = draw(mixed_coeffs)
    return Poly(terms)


@given(mixed_polys())
@settings(max_examples=120)
def test_orbit_sum_matches_the_24_image_reference(f):
    assert orbit_sum(f) == reference_orbit_sum(f)


@given(mixed_polys(max_terms=4), row_indices, mixed_polys(max_terms=3))
@settings(max_examples=80)
def test_orbit_sum_of_cancelling_images(g, i, h):
    # g and its image under row i have the same orbit sum, so their
    # difference sums to zero, and adding it to h changes nothing.
    cancelling = g - apply_perm(g, i)
    assert orbit_sum(cancelling).is_zero()
    assert reference_orbit_sum(cancelling).is_zero()
    assert orbit_sum(h + cancelling) == reference_orbit_sum(h) == orbit_sum(h)


@given(mixed_polys())
@settings(max_examples=120)
def test_spreading_orbit_totals_reproduces_the_24_image_definitions(f):
    totals = orbit_totals(f)
    assert all(orbit_canonical(c) == c and total for c, total in totals.items())
    summed = reference_orbit_sum(f)
    averaged = summed.scale(Fraction(1, GROUP_ORDER))
    assert average_of_totals(totals) == sym_average(f) == averaged
    # Each member n of orbit(c) gets |Stab(c)| * totals[c] in the orbit sum.
    for mono, coeff in summed.terms.items():
        orbit_size = len({permute_mono(mono, row) for row in ROWS})
        assert coeff == GROUP_ORDER // orbit_size * totals[orbit_canonical(mono)]
    if all(type(c) is int for c in f.terms.values()):
        assert all(type(c) is int for c in totals.values())


def test_orbit_totals_drop_cancelled_orbits():
    a, b = variable("a"), variable("b")
    assert orbit_totals(a - b) == {}
    assert orbit_totals(a * a - b * b + 3 * a) == {(1, 0, 0, 0, 0, 0): 3}
    half = Fraction(1, 2)
    assert orbit_totals(a.scale(half) + b.scale(half)) == {(1, 0, 0, 0, 0, 0): 1}
    assert type(orbit_totals(a.scale(half) + b.scale(half))[(1, 0, 0, 0, 0, 0)]) is int


def test_orbit_sum_keeps_ints_for_integral_fraction_totals():
    half = Fraction(1, 2)
    f = Poly({(1, 0, 0, 0, 0, 0): half, (0, 1, 0, 0, 0, 0): half})
    result = orbit_sum(f)
    assert result == reference_orbit_sum(f)
    assert all(type(c) is int for c in result.terms.values())


@given(monos)
def test_orbit_canonical_is_the_maximum_image(mono):
    assert orbit_canonical(mono) == max(permute_mono(mono, row) for row in ROWS)


def reference_is_symmetric(poly):
    """The definition: every one of the 24 rows fixes the polynomial."""
    return all(apply_perm(poly, i) == poly for i in range(GROUP_ORDER))


@given(mixed_polys(max_terms=4), mixed_polys(max_terms=2), st.booleans())
@settings(max_examples=120)
def test_is_symmetric_matches_the_24_image_reference(f, g, symmetrize):
    # Symmetrized inputs, and symmetrized inputs with a few terms moved,
    # reach both answers; raw draws are almost never symmetric.
    candidate = orbit_sum(f) + g if symmetrize else f
    assert is_symmetric(candidate) == reference_is_symmetric(candidate)


def test_is_symmetric_needs_every_orbit_member():
    # Only the canonical monomial of an orbit: each present term matches its
    # canonical coefficient, but the rest of the orbit is missing.
    canonical = orbit_canonical((2, 1, 0, 0, 0, 0))
    assert not is_symmetric(Poly({canonical: 1}))
    assert is_symmetric(orbit_sum(Poly({canonical: 1})))
    assert is_symmetric(Poly({}))


@given(monos)
def test_orbit_table_fills_whole_orbits(point):
    table = OrbitTable(ROWS)
    canonical = table.canonical(point)
    images = {permute_mono(point, row) for row in ROWS}
    assert set(table.members[canonical]) == images
    assert len(table.members[canonical]) == len(images)
    assert all(table.canonical_of[image] == canonical for image in images)


@st.composite
def forms(draw, degree, max_terms=5):
    """Homogeneous polynomials of ``degree``, int and Fraction coefficients, maybe zero."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        slots = draw(st.lists(st.integers(min_value=0, max_value=5),
                              min_size=degree, max_size=degree))
        terms[tuple(slots.count(k) for k in range(6))] = draw(mixed_coeffs)
    return Poly(terms)


@pytest.mark.parametrize("deg_f, deg_g", [(0, 0), (0, 3), (2, 0), (1, 2), (3, 3), (4, 2)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_product_totals_are_the_totals_of_the_expanded_product(deg_f, deg_g, data):
    # f is a raw draw, almost never symmetric; g is made symmetric.
    f = data.draw(forms(deg_f))
    h = data.draw(forms(deg_g))
    g = data.draw(st.sampled_from([sym_average(h), orbit_sum(h)]))
    assert product_totals(orbit_totals(f), orbit_totals(g)) == orbit_totals(f * g)


@given(mixed_polys(max_terms=4), mixed_polys(max_terms=3))
@settings(max_examples=80, deadline=None)
def test_product_totals_of_mixed_degrees(f, h):
    g = sym_average(h)
    totals = product_totals(orbit_totals(f), orbit_totals(g))
    assert totals == orbit_totals(f * g)
    assert all(total and (type(total) is int or total.denominator != 1)
               for total in totals.values())


def test_product_totals_of_zero_factors_are_empty():
    a = variable("a")
    assert product_totals({}, orbit_totals(orbit_sum(a))) == {}
    assert product_totals(orbit_totals(a), {}) == {}
    assert product_totals(orbit_totals(a - variable("b")), orbit_totals(orbit_sum(a))) == {}


@given(mixed_polys(max_terms=4), mixed_polys(max_terms=4))
@settings(max_examples=120, deadline=None)
def test_product_totals_write_g_out_from_its_totals(f, h):
    # Neither factor need be symmetric: g's totals stand for their
    # symmetric average, so the product is the one with that average.
    # Zero factors and mixed degrees are drawn too.
    g_totals = orbit_totals(h)
    expected = orbit_totals(f * average_of_totals(g_totals))
    assert product_totals(orbit_totals(f), g_totals) == expected


def test_symmetric_totals_refuse_a_skewed_input_by_its_label():
    a, b = variable("a"), variable("b")
    symmetric = orbit_sum(a * b)
    assert symmetric_totals("ab orbit", symmetric) == orbit_totals(symmetric)
    assert symmetric_totals("zero", Poly({})) == {}
    # a - b has zero totals: only the symmetry check tells it from 0.
    for skewed in (a, a - b, symmetric + a**2 - b**2):
        with pytest.raises(ConstructionError, match="^skewed side is not symmetric$"):
            symmetric_totals("skewed side", skewed)
    assert issubclass(ConstructionError, ValueError)
