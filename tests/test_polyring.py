"""Ring axioms, evaluation and enumeration."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah4 import polyring
from atiyah4.polyring import (
    Poly,
    constant,
    mono_key,
    monomial,
    variable,
    variables,
)
from references import compositions


def zero():
    return Poly({})


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


@given(polys(), polys())
def test_sub_is_add_of_the_negation_term_for_term(f, g):
    # (f + g) - g and f - (f + g) make the merge cancel terms as well.
    for left, right in ((f, g), (f + g, g), (f, f + g)):
        expected = list((left + -right).terms.items())
        got = list((left - right).terms.items())
        assert got == expected
        assert [type(c) for _, c in got] == [type(c) for _, c in expected]


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


def test_pow_starts_from_the_first_factor(monkeypatch):
    products = []
    real = Poly._mul_poly

    def counting(self, other):
        products.append((len(self.terms), len(other.terms)))
        return real(self, other)

    monkeypatch.setattr(Poly, "_mul_poly", counting)
    f = variable("a") + variable("b")
    assert f**0 == constant(1) and products == []
    assert f**1 == f and products == []
    square = f**2
    assert products == [(2, 2)]  # no 1 x n product by constant(1)
    products.clear()
    f**5  # squarings to f^2 and f^4, then f * f^4
    assert products == [(2, 2), (3, 3), (2, 5)]
    monkeypatch.undo()
    assert square == Poly({(2, 0, 0, 0, 0, 0): 1, (1, 1, 0, 0, 0, 0): 2, (0, 2, 0, 0, 0, 0): 1})


# -- products on packed keys -------------------------------------------------

#: Exponents up to 300: past any narrow packed field.
wide_monos = st.tuples(*[st.integers(min_value=0, max_value=300)] * 6)


@st.composite
def wide_polys(draw, max_terms=5):
    # The cap varies, so the packed field width varies from pair to pair.
    cap = draw(st.sampled_from([1, 7, 40, 300]))
    exponents = st.integers(min_value=0, max_value=cap)
    n = draw(st.integers(min_value=0, max_value=max_terms))
    return Poly({draw(st.tuples(*[exponents] * 6)): draw(coeffs) for _ in range(n)})


def reference_product(f, g):
    """f * g on exponent tuples, one term pair at a time, zeros dropped."""
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return {mono: coeff for mono, coeff in terms.items() if coeff}


def assert_normalized(poly):
    for coeff in poly.terms.values():
        assert coeff
        assert type(coeff) is int or coeff.denominator != 1


@given(wide_polys(), wide_polys())
@settings(max_examples=150)
def test_mul_matches_a_tuple_key_reference(f, g):
    product = f * g
    assert product.terms == reference_product(f, g)
    assert_normalized(product)


@given(wide_monos, wide_monos)
def test_pack_round_trips_and_adds_monomials(m1, m2):
    total = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
    width = polyring.pack_width(max(total))
    assert polyring.unpack(polyring.pack(m1, width), width) == m1
    assert polyring.pack(m1, width) + polyring.pack(m2, width) == polyring.pack(total, width)


def test_mul_cancels_to_exact_zero_terms():
    a, b, x = variable("a"), variable("b"), variable("x")
    f = a**200 + Fraction(1, 3) * b**7 * x**300
    g = a**200 - Fraction(1, 3) * b**7 * x**300
    # The cross terms cancel; the Fraction squares sum to an int.
    assert (f * g).terms == {(400, 0, 0, 0, 0, 0): 1, (0, 14, 0, 600, 0, 0): Fraction(-1, 9)}
    h = Fraction(1, 2) * a**300 + Fraction(1, 2) * b
    assert (h * (2 * a**300 - 2 * b)).terms == {
        (600, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): -1
    }
    assert (f * g + (-f) * g).is_zero()


@given(polys(max_terms=4), polys(max_terms=4), points)
@settings(max_examples=60)
def test_evaluate_is_ring_homomorphism(f, g, u):
    assert (f + g).evaluate(u) == f.evaluate(u) + g.evaluate(u)
    assert (f * g).evaluate(u) == f.evaluate(u) * g.evaluate(u)


@given(polys(), points)
def test_evaluate_float_tracks_exact(f, u):
    exact = float(f.evaluate(u))
    approx = f.evaluate(tuple(float(q) for q in u))
    envelope = Poly({m: abs(c) for m, c in f.terms.items()}).evaluate(
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


def test_degree():
    a, b, c, x, y, z = variables()
    assert zero().degree() is None
    assert constant(5).degree() == 0
    assert (a * b + c * z).degree() == 2
    assert (a + a * b).degree() == 2


def test_sorted_terms_graded_lex_descending():
    a, b, c, x, y, z = variables()
    p = a + z**2 + b * c + constant(7)
    keys = [mono_key(m) for m, _ in p.sorted_terms()]
    assert keys == sorted(keys, reverse=True)
    assert p.sorted_terms()[-1][0] == (0,) * 6


def test_variable_takes_a_name():
    assert variable("x") == Poly({(0, 0, 0, 1, 0, 0): 1})
    for bad in ("q", 3):
        with pytest.raises(ValueError, match="unknown variable"):
            variable(bad)


def test_monomial_and_from_terms():
    m = (1, 0, 2, 0, 0, 0)
    assert monomial(m, 3) == Poly({m: 3})
    assert monomial(m, 0).is_zero()


def test_compositions_count_and_order():
    combos = list(compositions(6, 12))
    assert len(combos) == math.comb(6 + 11, 11)
    assert combos == sorted(combos, reverse=True)
    assert all(sum(c) == 6 and len(c) == 12 for c in combos)
    assert len(set(combos)) == len(combos)


@pytest.mark.parametrize("parts", range(1, 6))
@pytest.mark.parametrize("total", range(-1, 7))
def test_compositions_match_a_filtered_product(total, parts):
    reference = sorted(
        (c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total),
        reverse=True,
    )
    assert list(compositions(total, parts)) == reference


@pytest.mark.parametrize(
    "bad", [0.5, 2.0, 0.0, True, "1"], ids=["float", "whole float", "zero float", "bool", "str"]
)
def test_poly_refuses_inexact_coefficients(bad):
    mono = (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=r"term \(1, 0, 0, 0, 0, 0\) has coefficient"):
        Poly({mono: bad})
    with pytest.raises(ValueError, match="not an int or Fraction"):
        monomial(mono, bad)
    with pytest.raises(ValueError, match="not an int or Fraction"):
        variable("a").scale(bad)
    with pytest.raises(ValueError, match="not an int or Fraction"):
        constant(bad)


@pytest.mark.parametrize("bad", [1.0, True, "1", -1], ids=["float", "bool", "str", "negative"])
def test_poly_refuses_bad_exponents(bad):
    with pytest.raises(ValueError, match="bad exponent vector"):
        Poly({(bad, 0, 0, 0, 0, 0): 1})


def test_evaluate_requires_six_values():
    with pytest.raises(ValueError):
        variable("a").evaluate((1, 2, 3))


def test_repr_mentions_terms():
    assert "Poly" in repr(variable("a"))


def test_var_names_fixed():
    assert polyring.VAR_NAMES == ("a", "b", "c", "x", "y", "z")


# -- compiled float evaluation ---------------------------------------------


@st.composite
def low_degree_monos(draw):
    """Exponent vectors of total degree 0..12."""
    room = draw(st.integers(min_value=0, max_value=12))
    mono = []
    for _ in range(6):
        e = draw(st.integers(min_value=0, max_value=room))
        mono.append(e)
        room -= e
    return tuple(mono)


@st.composite
def degree_polys(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    return Poly({draw(low_degree_monos()): draw(coeffs) for _ in range(n)})


# Normal floats away from underflow, so the relative bound below applies.
magnitudes = st.floats(min_value=2.0**-60, max_value=4.0)
float_points = st.tuples(
    *[st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v))] * 6
)


def assert_within_rounding_bound(f, fast, u):
    """|fast(u) - f(u)| <= 2 (deg + 1) eps sum |c u^m|, both sides exact.

    Returns the envelope sum |c u^m| as a Fraction.
    """
    value = fast(u)
    exact_point = [Fraction(v) for v in u]
    exact = Fraction(f.evaluate(exact_point))
    envelope = Poly({m: abs(c) for m, c in f.terms.items()}).evaluate(
        [abs(v) for v in exact_point]
    )
    degree = f.degree() or 0
    eps = Fraction(sys.float_info.epsilon)
    assert type(value) is float
    assert abs(Fraction(value) - exact) <= 2 * (degree + 1) * eps * envelope
    return envelope


@given(degree_polys(), float_points)
@settings(max_examples=150)
def test_float_evaluator_tracks_exact(f, u):
    assert_within_rounding_bound(f, polyring.float_evaluator(f), u)


def test_float_evaluator_on_zero_and_constants():
    u = (1.5, -2.0, 0.25, 3.0, 0.0, 1.0)
    assert polyring.float_evaluator(zero())(u) == 0.0
    assert polyring.float_evaluator(constant(Fraction(-7, 3)))(u) == float(Fraction(-7, 3))
    assert polyring.float_evaluator(constant(5))(u) == 5.0
    # Exact int or Fraction input is read as floats.
    g = variable("a") * variable("x") ** 2 - constant(Fraction(1, 3))
    assert polyring.float_evaluator(g)((2, 0, 0, Fraction(1, 2), 0, 0)) == 0.5 - 1 / 3


def test_float_evaluator_on_every_named_polynomial(named):
    rng = random.Random(17)
    points = [
        tuple(rng.randint(200, 2000) / 1024 for _ in range(6)),
        tuple(rng.uniform(0.2, 2.0) for _ in range(6)),
        (0.0, 1.5, 0.5, 2.0, 0.0, 1.25),
    ]
    assert {"d4", "w4", "z4", "M4", "P4", "F4"} <= set(named)
    for f in named.values():
        fast = polyring.float_evaluator(f)
        for u in points:
            envelope = assert_within_rounding_bound(f, fast, u)
            # The term-by-term reference agrees to its own rounding.
            assert abs(fast(u) - f.evaluate(map(float, u))) <= 1e-12 * float(envelope)
