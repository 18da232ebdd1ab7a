"""Anchor values, symmetry classes, and the averaged-monomial machinery."""

import hashlib
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah4 import catalog
from atiyah4.polyring import Coeff, normalize_coeff, variables
from atiyah4.symmetry import (
    GROUP_ORDER,
    OrbitTable,
    apply_perm,
    average_of_totals,
    is_skew_symmetric,
    is_symmetric,
    orbit_totals,
    permute_tuple,
    sym_average,
)
from references import compositions

ONES = (1, 1, 1, 1, 1, 1)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
points = st.tuples(*[rationals] * 6)
alphas = st.lists(st.integers(min_value=0, max_value=2), min_size=12, max_size=12).map(
    tuple
)


def sym_average_of_values(values: Sequence[Coeff], exponents: Sequence[int]) -> Coeff:
    """Numeric av[t^alpha] at a concrete point, bypassing expansion.

    Evaluates the twelve slacks at the point, then averages the monomial
    over the 24 permuted points.  Serves as an independent route when
    testing the expanded polynomials.
    """
    alpha = catalog.check_multi_index(exponents)
    basis = catalog.triangular_basis()
    total: Coeff = 0
    for i in range(GROUP_ORDER):
        point = permute_tuple(values, i)
        slacks = [t.evaluate(point) for t in basis]
        term: Coeff = 1
        for slack, exponent in zip(slacks, alpha):
            if exponent:
                term *= slack ** exponent
        total += term
    return normalize_coeff(Fraction(total) / 24)


def av_t_alpha(alpha):
    return sym_average(catalog.t_alpha_expand(alpha))


def alpha_canonical(alpha):
    return OrbitTable(catalog.t_slot_action()).canonical(tuple(alpha))


def test_anchor_values_at_ones(named):
    expected = {
        "d3": 1,
        "p4": 1,
        "n4": 0,
        "z4": 2,
        "v4": 0,
        "d4": 100,
        "m4": 28,
        "P4": 6561,
        "M4": 2159,
        "F4": 0,
        "w4": 0,
    }
    for name, value in expected.items():
        assert named[name].evaluate(ONES) == value, name


def test_v4_sign_is_pinned(named):
    # Every other check sees v4 squared or through a skew test, which a
    # negated v4 passes too.
    assert named["v4"].evaluate((1, 2, 3, 4, 5, 6)) == -2


def test_witness_value(named):
    u = (9, 8, 1, 1, 7, 8)
    assert named["d4"].evaluate(u) == 258048
    assert named["d4"].evaluate(u) == 64 * named["p4"].evaluate(u)


def test_term_counts(named):
    assert len(named["d4"].terms) == 248
    assert len(named["M4"].terms) == 5948
    assert len(named["F4"].terms) == 3099


def test_degrees(named):
    degrees = {
        "d3": 3,
        "p4": 6,
        "n4": 6,
        "z4": 6,
        "w4": 3,
        "v4": 3,
        "v4sq": 6,
        "d4": 6,
        "m4": 6,
        "P4": 12,
        "M4": 12,
        "F4": 12,
    }
    for name, degree in degrees.items():
        poly = named[name]
        assert poly.is_homogeneous(degree), name


def test_symmetry_classes(named):
    for name in ("p4", "n4", "z4", "d4", "m4", "P4", "M4", "F4", "v4sq"):
        assert is_symmetric(named[name]), name
    for name in ("w4", "v4"):
        assert is_skew_symmetric(named[name]), name
        assert not is_symmetric(named[name]), name


def test_d3_vanishes_on_degenerate_triangles():
    d3 = catalog.d3()
    assert d3.evaluate((0, 0, 0, 1, 2, 3)) == 0
    assert d3.evaluate((0, 0, 0, 5, 2, 3)) == 0
    assert d3.evaluate((0, 0, 0, 3, 4, 5)) == 48


def test_triple_factor_matches_heron_shape():
    a, b, c, x, y, z = variables()
    f = catalog.triple_factor(x, y, z)
    assert f.evaluate((0, 0, 0, 3, 4, 5)) == 2 * 6 * 4
    assert f == catalog.d3()


def test_f4_is_w4_squared_z4(named):
    assert named["F4"] == named["w4"] ** 2 * named["z4"]


def test_p4_is_product_of_face_determinants(named):
    assert named["P4"].evaluate(ONES) == 9**4
    u = (2, 3, 4, 3, 3, 3)
    faces = ((3, 3, 3), (3, 3, 2), (3, 4, 3), (3, 4, 2))
    expected = 1
    for p, q, r in faces:
        expected *= 8 * p * q * r + catalog.d3().evaluate((0, 0, 0, p, q, r))
    assert named["P4"].evaluate(u) == expected


def test_triangular_basis_shape():
    # Written out: the faces (a, b, x), (b, c, y), (a, c, z), (x, y, z), and
    # inside each the minus sign on the face's sides in that order.
    a, b, c, x, y, z = variables()
    assert catalog.triangular_basis() == (
        -a + b + x, a - b + x, a + b - x,
        -b + c + y, b - c + y, b + c - y,
        -a + c + z, a - c + z, a + c - z,
        -x + y + z, x - y + z, x + y - z,
    )
    assert catalog.N_TRIANGULAR == 12


def test_triangular_nonneg_on_special_vectors(named):
    from atiyah4.atiyah import special_vectors

    basis = catalog.triangular_basis()
    for u in special_vectors():
        assert all(form.evaluate(u) >= 0 for form in basis)


def test_slot_action_is_a_group_action():
    action = catalog.t_slot_action()
    assert len(action) == 24
    assert action[0] == tuple(range(12))
    for row in action:
        assert sorted(row) == list(range(12))
    # transitive: enumerate_T stops at the first multiset without slot 0
    assert {row[0] for row in action} == set(range(12))


def test_slot_action_matches_polynomial_permutation():
    action = catalog.t_slot_action()
    basis = catalog.triangular_basis()
    for i in range(GROUP_ORDER):
        for k in range(12):
            assert apply_perm(basis[k], i) == basis[action[i][k]]


def test_check_multi_index_rejects_bad_shapes():
    with pytest.raises(ValueError):
        catalog.check_multi_index((1, 2, 3))
    with pytest.raises(ValueError):
        catalog.check_multi_index((-1,) + (0,) * 11)
    for bad in (True, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match="non-negative ints"):
            catalog.check_multi_index((bad,) + (0,) * 11)
    with pytest.raises(ValueError, match="non-negative ints"):
        catalog.format_alpha((True,) + (0,) * 11)
    assert catalog.check_multi_index([0] * 12) == (0,) * 12


def test_t_alpha_expand_simple_cases():
    basis = catalog.triangular_basis()
    one_hot = (1,) + (0,) * 11
    assert catalog.t_alpha_expand(one_hot) == basis[0]
    assert catalog.t_alpha_expand((0,) * 12) == catalog.t_alpha_expand([0] * 12)
    two = (2,) + (0,) * 11
    assert catalog.t_alpha_expand(two) == basis[0] * basis[0]


FACE_BLOCKS = [block for total in range(5) for block in compositions(total, 3)]


@st.composite
def tables(draw):
    """Rows of order 0-12 built from a few exponent blocks per face, so that
    rows share face prefixes and a slot's exponents can lie up to 4 apart;
    some rows come with a cancelling partner."""
    pools = [
        draw(st.lists(st.sampled_from(FACE_BLOCKS), min_size=1, max_size=3))
        for _ in range(4)
    ]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        alpha = ()
        for pool in pools:  # a block that would pass order 12 is left out
            room = 12 - sum(alpha)
            fitting = [block for block in pool if sum(block) <= room]
            alpha += draw(st.sampled_from(fitting or [(0, 0, 0)]))
        lam = draw(st.integers(min_value=-5, max_value=5) | rationals)
        rows.append((alpha, lam))
        if draw(st.booleans()):
            rows.append((alpha, -lam))
    if draw(st.booleans()):
        rows.append(((0,) * 12, draw(st.integers(min_value=-5, max_value=5))))
    return draw(st.permutations(rows))


@given(tables())
@settings(max_examples=60, deadline=None)
def test_t_combination_is_the_sum_of_its_rows(rows):
    expected = catalog.polyring.zero()
    for alpha, lam in rows:
        expected = expected + lam * catalog.t_alpha_expand(alpha)
    assert catalog.t_combination(rows) == expected


def test_t_combination_of_no_rows_is_zero():
    assert catalog.t_combination([]).is_zero()
    assert catalog.t_combination([((0,) * 12, 3)]) == catalog.polyring.constant(3)


@given(alphas, points)
@settings(max_examples=25, deadline=None)
def test_av_t_alpha_matches_numeric_average(alpha, u):
    direct = sym_average_of_values(u, alpha)
    assert av_t_alpha(alpha).evaluate(u) == direct


@given(alphas)
@settings(max_examples=25, deadline=None)
def test_alpha_orbit_canonical_is_invariant(alpha):
    canon = alpha_canonical(alpha)
    action = catalog.t_slot_action()
    for row in (action[3], action[17]):
        image = [0] * 12
        for k in range(12):
            image[row[k]] = alpha[k]
        assert alpha_canonical(image) == canon


@given(alphas, points)
@settings(max_examples=15, deadline=None)
def test_orbit_mates_average_identically(alpha, u):
    action = catalog.t_slot_action()
    image = [0] * 12
    for k in range(12):
        image[action[7][k]] = alpha[k]
    assert av_t_alpha(alpha) == av_t_alpha(image)


def test_format_alpha():
    alpha = (0, 1, 1, 0, 2, 1, 2, 0, 1, 1, 1, 2)
    assert catalog.format_alpha(alpha) == "011,021,201,112"


def test_enumerate_T_small_orders():
    assert catalog.enumerate_T(0) == [((0,) * 12, {(0,) * 6: 1})]
    degree_one = [(alpha, average_of_totals(vector)) for alpha, vector in catalog.enumerate_T(1)]
    assert len(degree_one) == 1
    alpha, poly = degree_one[0]
    assert sum(alpha) == 1
    assert is_symmetric(poly)
    assert poly.is_homogeneous(1)

    degree_two = [(alpha, average_of_totals(vector)) for alpha, vector in catalog.enumerate_T(2)]
    assert all(sum(alpha) == 2 for alpha, _ in degree_two)
    keys = {poly.canonical_key() for _, poly in degree_two}
    assert len(keys) == len(degree_two)


def reference_enumerate_T(order):
    """The definition: expand and average every canonical alpha, drop repeats.

    Canonical means the largest of the 24 slot images; the average is the
    mean of the 24 permuted polynomials; a column is kept unless an earlier
    kept column has the same ``canonical_key()``.
    """
    action = catalog.t_slot_action()
    kept = {}
    for alpha in compositions(order, 12):
        images = []
        for row in action:
            image = [0] * 12
            for k in range(12):
                image[row[k]] = alpha[k]
            images.append(tuple(image))
        if max(images) != alpha:
            continue
        expanded = catalog.t_alpha_expand(alpha)
        total = expanded
        for i in range(1, GROUP_ORDER):
            total = total + apply_perm(expanded, i)
        averaged = total.scale(Fraction(1, GROUP_ORDER))
        kept.setdefault(averaged.canonical_key(), (alpha, averaged))
    return list(kept.values())


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_enumerate_T_matches_the_reference(order):
    columns = [(alpha, average_of_totals(vector)) for alpha, vector in catalog.enumerate_T(order)]
    reference = reference_enumerate_T(order)
    assert [alpha for alpha, _ in columns] == [alpha for alpha, _ in reference]
    # repr tells an int coefficient from an integral Fraction
    assert [repr(poly.canonical_key()) for _, poly in columns] == [
        repr(poly.canonical_key()) for _, poly in reference
    ]


def test_enumerate_T_five_matches_expanded_orbit_totals():
    """Each orbit vector against Poly products and ``symmetry.orbit_totals``,
    a route through none of the packed forms, prefix stack or orbit map."""
    columns = catalog.enumerate_T(5)
    for alpha, vector in columns:
        assert vector == orbit_totals(catalog.t_alpha_expand(alpha))
        assert all(type(total) is int for total in vector.values())
    assert len({tuple(sorted(vector.items())) for _, vector in columns}) == len(columns)


def test_enumerate_T_six_is_frozen(t6_columns):
    assert len(t6_columns) == 517
    assert all(sum(alpha) == 6 for alpha, _ in t6_columns)
    assert all(poly.is_homogeneous(6) for _, poly in t6_columns)
    keys = {poly.canonical_key() for _, poly in t6_columns}
    assert len(keys) == 517
    assert all(alpha == alpha_canonical(alpha) for alpha, _ in t6_columns)


#: sha256 over repr((alpha, canonical_key)) of every enumerate_T(6) column,
#: in order, as first computed with the 24-image orbit sum.
T6_DIGEST = "5ed87df68601cbd55594a62dabcdbb96f29571c4bcd9406b4c780fd15740faa7"


def test_enumerate_T_six_digest_is_pinned(t6_columns):
    digest = hashlib.sha256()
    for alpha, poly in t6_columns:
        digest.update(repr((alpha, poly.canonical_key())).encode())
    assert digest.hexdigest() == T6_DIGEST


def test_enumerate_T_guards_order():
    with pytest.raises(ValueError):
        catalog.enumerate_T(7)
    with pytest.raises(ValueError):
        catalog.enumerate_T(-1)
    for bad in (True, False, 1.0):
        with pytest.raises(ValueError, match="non-negative int"):
            catalog.enumerate_T(bad)


def test_named_registry_is_consistent(named):
    assert named["v4sq"] == named["v4"] ** 2
    assert named["t1"] == catalog.triangular_basis()[0]
    assert named["t12"] == catalog.triangular_basis()[11]
    assert set("d3 p4 n4 z4 w4 v4 v4sq d4 m4 P4 M4 F4".split()) <= set(named)


def test_d4_construction_members(named):
    combo = (
        64 * named["p4"]
        + 4 * named["z4"]
        + named["v4sq"]
        + named["m4"]
    )
    assert named["d4"] == combo


@given(points)
@settings(max_examples=40)
def test_d4_is_symmetric_numerically(named, u):
    d4 = named["d4"]
    assert d4.evaluate(permute_tuple(u, 13)) == d4.evaluate(u)


@given(points)
@settings(max_examples=40)
def test_w4_is_skew_numerically(named, relabelling_row, u):
    w4 = named["w4"]
    assert w4.evaluate(permute_tuple(u, relabelling_row("ACBD"))) == -w4.evaluate(u)
    assert w4.evaluate(permute_tuple(u, relabelling_row("BCAD"))) == w4.evaluate(u)
