"""Ring axioms, evaluation and enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah4 import polyring
from atiyah4.polyring import (
    Poly,
    compositions,
    constant,
    from_terms,
    mono_key,
    monomial,
    variable,
    variables,
    zero,
)

coeffs = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(
        min_value=-20, max_value=20, max_denominator=12
    ),
)
monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * 6)


@st.composite
def polys(draw, max_terms=6):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(monos)] = draw(coeffs)
    return Poly(terms)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
points = st.tuples(*[rationals] * 6)


@given(polys(), polys(), polys())
def test_add_associative_commutative(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f


@given(polys())
def test_additive_identity_and_inverse(f):
    assert f + zero() == f
    assert (f - f).is_zero()
    assert f + (-f) == zero()


@given(polys(max_terms=4), polys(max_terms=4), polys(max_terms=4))
@settings(max_examples=50)
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(polys(max_terms=4), polys(max_terms=4))
@settings(max_examples=50)
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(polys())
def test_scalar_mul_matches_poly_mul(f):
    assert 3 * f == constant(3) * f
    assert f.scale(Fraction(1, 2)) == constant(Fraction(1, 2)) * f
    assert (0 * f).is_zero()


@given(polys(max_terms=12), st.one_of(st.just(0), coeffs))
def test_scale_matches_term_by_term(f, scalar):
    expected = Poly({m: c * scalar for m, c in f.terms.items()})
    scaled = f.scale(scalar)
    assert scaled == expected
    assert all(
        type(c) is int or c.denominator != 1 for c in scaled.terms.values()
    )


def test_scale_by_zero_and_by_fractions():
    f = Poly({(1, 0, 0, 0, 0, 0): 24, (0, 1, 0, 0, 0, 0): 24, (0, 0, 1, 0, 0, 0): 5})
    assert f.scale(0).is_zero()
    assert f.scale(Fraction(0, 7)).is_zero()
    assert f.scale(Fraction(1, 24)).terms == {
        (1, 0, 0, 0, 0, 0): 1,
        (0, 1, 0, 0, 0, 0): 1,
        (0, 0, 1, 0, 0, 0): Fraction(5, 24),
    }
    assert f.scale(Fraction(-3, 2)).terms == {
        (1, 0, 0, 0, 0, 0): -36,
        (0, 1, 0, 0, 0, 0): -36,
        (0, 0, 1, 0, 0, 0): Fraction(-15, 2),
    }


@given(polys(max_terms=3), st.integers(min_value=0, max_value=4))
@settings(max_examples=40)
def test_pow_is_repeated_mul(f, k):
    expected = constant(1)
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


@given(polys(max_terms=4), polys(max_terms=4), points)
@settings(max_examples=60)
def test_evaluate_is_ring_homomorphism(f, g, u):
    assert (f + g).evaluate(u) == f.evaluate(u) + g.evaluate(u)
    assert (f * g).evaluate(u) == f.evaluate(u) * g.evaluate(u)


@given(polys(), points)
def test_evaluate_float_tracks_exact(f, u):
    exact = float(f.evaluate(u))
    approx = f.evaluate_float(tuple(float(q) for q in u))
    envelope = Poly({m: abs(c) for m, c in f.terms.items()}).evaluate_float(
        tuple(abs(float(q)) for q in u)
    )
    assert math.isfinite(approx)
    assert abs(approx - exact) <= 1e-12 * max(1.0, envelope)


def test_zero_coefficients_are_dropped():
    p = Poly({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 0})
    assert len(p.terms) == 1
    assert p == variable("a")


def test_fraction_coeffs_normalize_to_int():
    p = Poly({(1, 0, 0, 0, 0, 0): Fraction(4, 2)})
    ((mono, coeff),) = p.terms.items()
    assert coeff == 2 and isinstance(coeff, int)


def test_degree_and_homogeneity():
    a, b, c, x, y, z = variables()
    assert zero().degree() is None
    assert constant(5).degree() == 0
    assert (a * b + c * z).degree() == 2
    assert (a * b + c * z).is_homogeneous()
    assert (a * b + c * z).is_homogeneous(2)
    assert not (a + a * b).is_homogeneous()
    assert not (a * b).is_homogeneous(3)


def test_sorted_terms_graded_lex_descending():
    a, b, c, x, y, z = variables()
    p = a + z**2 + b * c + constant(7)
    keys = [mono_key(m) for m, _ in p.sorted_terms()]
    assert keys == sorted(keys, reverse=True)
    assert p.sorted_terms()[-1][0] == (0,) * 6


def test_variable_accepts_name_and_index():
    assert variable("x") == variable(3)
    with pytest.raises(ValueError):
        variable("q")
    with pytest.raises(ValueError):
        variable(6)


def test_monomial_and_from_terms():
    m = (1, 0, 2, 0, 0, 0)
    assert monomial(m, 3) == from_terms({m: 3})
    assert monomial(m, 0).is_zero()


def test_compositions_count_and_order():
    combos = list(compositions(6, 12))
    assert len(combos) == math.comb(6 + 11, 11)
    assert combos == sorted(combos, reverse=True)
    assert all(sum(c) == 6 and len(c) == 12 for c in combos)
    assert len(set(combos)) == len(combos)


def test_evaluate_requires_six_values():
    with pytest.raises(ValueError):
        variable("a").evaluate((1, 2, 3))


def test_repr_mentions_terms():
    assert "Poly" in repr(variable("a"))


def test_var_names_fixed():
    assert polyring.VAR_NAMES == ("a", "b", "c", "x", "y", "z")
