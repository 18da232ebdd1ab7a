"""LP solver behavior on small programs plus the ceiling argument.

The three full-size programs over the complete degree-6 column family run
in the acceptance suite; here the solver is exercised on programs small
enough to finish in milliseconds: the certified route, the exact fallback,
the certificate checker and the row reduction.
"""

import functools
import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atiyah4 import catalog, certify, lp
from atiyah4.linalg import gauss_jordan
from atiyah4.polyring import Poly, compositions, variable
from atiyah4.symmetry import orbit_canonical, orbit_sum, orbit_totals, spread
from atiyah4.lp import (
    WITNESS,
    build_program,
    combination_polynomial,
    solve,
    standard_basis,
    upper_bound_check,
    witness_values,
)


def test_gap_fixture_reaches_the_ceiling():
    gap = catalog.d4() - 64 * catalog.p4()
    problem = build_program([("gap", gap)])
    solution = solve(problem)
    assert solution.status == "optimal"
    assert solution.objective == 64
    assert solution.multipliers["gap"] == 1
    assert solution.reconstruction_ok
    assert solution.route == "certified" and solution.certificate == "verified"
    assert combination_polynomial([("gap", gap)], solution) == catalog.d4()


def test_single_z4_column_is_infeasible():
    problem = build_program([("z4", catalog.z4())])
    solution = solve(problem)
    assert solution.status == "infeasible"
    assert solution.objective is None
    assert solution.route == "exact-fallback"
    assert solution.pivots == solution.float_pivots + solution.exact_pivots


def test_unbounded_program_is_detected():
    basis = [("whole", catalog.d4()), ("negp4", -catalog.p4())]
    problem = build_program(basis)
    solution = solve(problem)
    assert solution.status == "unbounded"
    assert solution.route == "exact-fallback"


def sec3_basis():
    cert = certify.load_bundled("sec3-188/3")
    basis = [
        ("z4", catalog.z4()),
        ("n4", catalog.n4()),
        ("v4sq", catalog.v4() ** 2),
    ]
    for alpha, _ in cert.terms:
        basis.append((f"av[t^{catalog.format_alpha(alpha)}]", catalog.av_t_alpha(alpha)))
    return basis


def test_certificate_support_reproduces_the_best_bound():
    basis = sec3_basis()
    problem = build_program(basis)
    solution = solve(problem)
    assert solution.status == "optimal"
    assert solution.objective == Fraction(188, 3)
    assert solution.reconstruction_ok
    assert solution.route == "certified"
    assert solution.exact_pivots == 0 and solution.pivots == solution.float_pivots > 0
    assert combination_polynomial(basis, solution) == catalog.d4()
    assert all(v >= 0 for v in solution.multipliers.values())


def _singular_basis(rows, rhs):
    # alpha+ and alpha- are opposite columns, so any basis holding both is singular.
    return "optimal", [0, 1] + list(range(2, 2 + len(rows) - 2)), 0


@pytest.mark.parametrize("force", ["pivot cap 0", "singular basis"])
def test_bad_float_basis_takes_the_exact_fallback(force, monkeypatch):
    problem = build_program(sec3_basis())
    if force == "pivot cap 0":
        monkeypatch.setattr(lp, "FLOAT_PIVOT_CAP", 0)
        reason = "rejected: float pass ended pivot cap"
    else:
        monkeypatch.setattr(lp, "_float_basis", _singular_basis)
        reason = "rejected: float basis is singular"
    solution = solve(problem)
    assert solution.route == "exact-fallback"
    assert solution.certificate == reason
    assert solution.status == "optimal"
    assert solution.objective == Fraction(188, 3)
    assert solution.reconstruction_ok
    assert solution.float_pivots == 0 and solution.pivots == solution.exact_pivots > 0


@st.composite
def degenerate_programs(draw):
    """Small programs whose right-hand side is mostly zero, so pivots stall."""
    m = draw(st.integers(1, 4))
    width = draw(st.integers(2, 7))
    entries = st.integers(-3, 3)
    matrix = draw(st.lists(st.tuples(*[entries] * width), min_size=m, max_size=m))
    rhs = draw(st.lists(st.sampled_from((0, 0, 0, 0, -2, -1, 1, 3)), min_size=m, max_size=m))
    return lp.LpProblem(
        monomials=tuple((r,) * 6 for r in range(m)),
        column_names=("alpha",) + tuple(f"f{j}" for j in range(1, width)),
        matrix=tuple(matrix),
        rhs=tuple(rhs),
    )


@given(degenerate_programs())
@settings(max_examples=400, deadline=None)
def test_exact_simplex_ends_in_a_correct_verdict(problem):
    # Bland's rule alone must terminate, and every "optimal" it reports
    # must come with a basis whose exact certificate checks.
    rows, rhs = lp._independent_rows(problem.matrix, problem.rhs)
    assume(rows)
    state, basis, values, _ = lp._simplex(rows, rhs)
    assert state in ("optimal", "infeasible", "unbounded")
    if state == "optimal":
        solved = lp._basis_solution(rows, rhs, basis)
        assert solved is not None
        x, y = solved
        assert x == values
        assert lp._check_certificate(problem, rows, rhs, basis, x, y) == "verified"


@given(degenerate_programs())
@settings(max_examples=300, deadline=None)
def test_solve_agrees_with_the_exact_simplex(problem):
    # Whatever route solve takes, its verdict is the exact simplex's, and a
    # certified result carries a verified certificate.
    rows, rhs = lp._independent_rows(problem.matrix, problem.rhs)
    assume(rows)
    state, _, values, _ = lp._simplex(rows, rhs)
    solution = solve(problem)
    assert solution.status == state
    assert solution.objective == (values[0] - values[1] if state == "optimal" else None)
    if solution.route == "certified":
        assert solution.certificate == "verified" and solution.exact_pivots == 0


@pytest.fixture(scope="module")
def sec3_certificate():
    problem = build_program(sec3_basis())
    rows, rhs = lp._independent_rows(problem.matrix, problem.rhs)
    state, basis, _ = lp._float_basis(rows, rhs)
    assert state == "optimal"
    x, y = lp._basis_solution(rows, rhs, basis)
    assert lp._check_certificate(problem, rows, rhs, basis, x, y) == "verified"
    return problem, rows, rhs, basis, x, y


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dual_checker_rejects_any_perturbed_y(sec3_certificate, data):
    problem, rows, rhs, basis, x, y = sec3_certificate
    delta = data.draw(st.lists(st.fractions(max_denominator=10**6),
                               min_size=len(y), max_size=len(y)))
    if data.draw(st.booleans()):
        # keep b^T y unchanged, so that only the reduced costs can object
        pivot = next(i for i, b in enumerate(rhs) if b)
        delta[pivot] -= sum(b * d for b, d in zip(rhs, delta)) / rhs[pivot]
    assume(any(delta))
    moved = [v + d for v, d in zip(y, delta)]
    assert lp._check_certificate(problem, rows, rhs, basis, x, moved) != "verified"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dual_checker_rejects_a_negative_x(sec3_certificate, data):
    problem, rows, rhs, basis, x, y = sec3_certificate
    index = data.draw(st.integers(0, len(x) - 1))
    value = data.draw(st.fractions(max_denominator=10**6).filter(bool))
    moved = list(x)
    moved[index] = -abs(value)
    verdict = lp._check_certificate(problem, rows, rhs, basis, x=moved, y=y)
    assert verdict == "x has a negative entry"


def test_build_program_rejects_duplicate_names():
    with pytest.raises(ValueError):
        build_program([("f", catalog.z4()), ("f", catalog.n4())])


def test_build_program_rejects_wrong_degree():
    with pytest.raises(ValueError):
        build_program([("v4", catalog.v4())])
    with pytest.raises(ValueError):
        build_program([("mixed", catalog.z4() + catalog.v4())])


def test_standard_basis_validates_extras():
    with pytest.raises(ValueError):
        standard_basis(["w4"])
    with pytest.raises(ValueError, match="given twice"):
        standard_basis(["z4", "n4", "z4"])


def test_build_program_rejects_asymmetric_columns():
    with pytest.raises(ValueError, match="'a6' is not symmetric"):
        build_program([("a6", variable("a") ** 6)])
    z4 = catalog.z4()
    mono = next(m for m in z4.terms if orbit_canonical(m) != m)
    bumped = Poly({**z4.terms, mono: z4.terms[mono] + 1})
    assert bumped.is_homogeneous(6)
    with pytest.raises(ValueError, match="'bumped' is not symmetric"):
        build_program([("z4", z4), ("bumped", bumped)])


def test_t6_program_has_one_row_per_orbit(t6_columns):
    basis = [(catalog.format_alpha(alpha), poly) for alpha, poly in t6_columns]
    problem = build_program(basis)
    assert len(problem.matrix) == len(problem.rhs) == len(problem.monomials) == 32
    assert all(mono == orbit_canonical(mono) for mono in problem.monomials)
    assert len(set(problem.monomials)) == 32


def test_standard_basis_shape(t6_columns):
    basis = standard_basis(["z4", "n4"])
    assert basis[0][0] == "z4" and basis[1][0] == "n4"
    assert len(basis) == 2 + len(t6_columns)
    names = [name for name, _ in basis]
    assert len(set(names)) == len(names)


def test_ceiling_argument_applies_to_standard_columns(monkeypatch):
    basis = standard_basis(["z4", "n4", "v4sq"])

    def no_program(_basis):
        raise AssertionError("the ceiling must cover the basis it is given")

    monkeypatch.setattr(lp, "build_program", no_program)
    report = upper_bound_check(basis)
    assert report.applicable
    assert report.bound == 64
    assert report.witness == WITNESS
    assert report.negative_columns == ()


def test_ceiling_argument_voids_on_negative_columns():
    report = upper_bound_check([("bad", -catalog.p4())])
    assert not report.applicable
    assert report.bound is None
    assert report.negative_columns == ("bad",)
    report = upper_bound_check(
        [("ok", catalog.p4()), ("low", -variable("a")), ("bad", -catalog.p4())]
    )
    assert report.negative_columns == ("low", "bad")


#: 1/TINY is far below float resolution next to column values at the witness.
TINY = 10**15 + 37

ONE = Poly({(0,) * 6: 1})


def _fraction_column():
    """Mixed degrees and several denominators, none of them 1."""
    a, b, z = variable("a"), variable("b"), variable("z")
    return (catalog.p4().scale(Fraction(5, 7)) - (a * b * z).scale(Fraction(11, 3))
            + (a ** 4).scale(Fraction(-2, 9)))


def test_ceiling_names_a_fraction_column_just_below_zero():
    column = _fraction_column()
    assert all(coeff.denominator > 1 for coeff in column.terms.values())
    value = column.evaluate(WITNESS)
    low = column - ONE.scale(value + Fraction(1, TINY))
    zero = column - ONE.scale(value)
    assert low.evaluate(WITNESS) == Fraction(-1, TINY)
    assert zero.evaluate(WITNESS) == 0
    report = upper_bound_check([("zero", zero), ("low", low), ("p4", catalog.p4())])
    assert not report.applicable
    assert report.bound is None
    assert report.negative_columns == ("low",)
    report = upper_bound_check([("zero", zero), ("p4", catalog.p4())])
    assert report.applicable and report.bound == 64


coefficients = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)
exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * 6)


@st.composite
def witness_columns(draw):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=5))
    column = Poly(terms)
    # Shift some columns to land exactly on 0 or one TINY step either side.
    shift = draw(st.sampled_from([None, -1, 0, 1]))
    if shift is not None:
        column = column - ONE.scale(column.evaluate(WITNESS) + Fraction(shift, TINY))
    return column


@given(st.lists(witness_columns(), max_size=4))
@settings(max_examples=60, deadline=None)
def test_ceiling_applies_exactly_when_every_column_is_nonnegative(columns):
    basis = [(f"f{i}", column) for i, column in enumerate(columns)]
    report = upper_bound_check(basis)
    values = [column.evaluate(WITNESS) for column in columns]
    assert report.applicable == all(value >= 0 for value in values)
    assert report.negative_columns == tuple(
        name for (name, _), value in zip(basis, values) if value < 0
    )


def test_solution_support_matches_multipliers():
    gap = catalog.d4() - 64 * catalog.p4()
    solution = solve(build_program([("gap", gap)]))
    assert set(solution.support) == {
        name for name, value in solution.multipliers.items() if value
    }


def test_program_rows_are_deduplicated():
    # One row per orbit: no orbit appears twice and every monomial of d4,
    # p4 and the column has its orbit's row.  Distinct orbits may still
    # share a row's content (here 17 orbit rows carry 7 distinct contents);
    # the row reduction drops those.
    gap = catalog.d4() - 64 * catalog.p4()
    problem = build_program([("gap", gap)])
    rows, rhs = problem.matrix, problem.rhs
    assert len(rows) == len(rhs) == len(set(problem.monomials))
    support = set(catalog.d4().terms) | set(catalog.p4().terms) | set(gap.terms)
    assert {orbit_canonical(mono) for mono in support} == set(problem.monomials)
    assert len(rows) < len(support)
    kept, kept_rhs = lp._independent_rows(rows, rhs)
    assert len({tuple(r) + (v,) for r, v in zip(kept, kept_rhs)}) == len(kept)


def test_row_reduction_keeps_an_independent_spanning_set():
    # rows [p4 | gap | d4] with d4 = 64 p4 + gap: rank 2 however many rows
    problem = build_program([("gap", catalog.d4() - 64 * catalog.p4())])
    rows, rhs = problem.matrix, problem.rhs
    kept, kept_rhs = lp._independent_rows(rows, rhs)
    assert len(kept) == 2 < len(rows)
    assert all(row in rows for row in kept)
    full = [list(row) + [b] for row, b in zip(rows, rhs)]
    assert len(gauss_jordan(full)[1]) == len(gauss_jordan(
        [list(row) + [b] for row, b in zip(kept, kept_rhs)])[1])


#: sha256 over repr((monomials, column_names, matrix, rhs)) of the three full
#: programs build_program(standard_basis(extras)), as first computed with
#: the T6 columns written out as Polys over all 462 degree-6 monomials.
PROGRAM_DIGESTS = {
    (): "f9df7650c7009cd5c4740d8baa843d1d24f572dbf04167144296641942d9cb51",
    ("z4", "n4"): "112621b28b1a8e04e29443280c6bf8ee7b948533a5857216f0aea89a7eaba3fd",
    ("z4", "n4", "v4sq"): "53270608e9d4dd090f233d066e0b5b4276f10fd85486491b48b1d9765d7b6dbb",
}


@functools.cache
def full_program(extras):
    return build_program(standard_basis(extras))


@pytest.mark.parametrize("extras", list(PROGRAM_DIGESTS))
def test_full_programs_are_pinned(extras):
    # repr tells an int entry from an integral Fraction
    problem = full_program(extras)
    text = repr((problem.monomials, problem.column_names, problem.matrix, problem.rhs))
    assert hashlib.sha256(text.encode()).hexdigest() == PROGRAM_DIGESTS[extras]


@pytest.mark.parametrize("extras", list(PROGRAM_DIGESTS))
def test_full_programs_certify_within_few_float_pivots(extras):
    # Steepest-edge pricing takes 77-116 float pivots on these programs;
    # the largest-coefficient rule took 396, 793 and 1153.
    solution = solve(full_program(extras))
    assert solution.route == "certified" and solution.certificate == "verified"
    assert solution.objective == {0: 32, 2: 60, 3: Fraction(188, 3)}[len(extras)]
    assert solution.float_pivots <= 200


def test_188_3_vertex_passes_as_a_sec3_certificate():
    # The vertex depends on pricing, so its T6 multipliers are not pinned;
    # the extras are, because check_sec3 fixes them.
    solution = solve(full_program(("z4", "n4", "v4sq")))
    lam = solution.multipliers
    assert solution.objective == Fraction(188, 3)
    assert (lam["z4"], lam["n4"], lam["v4sq"]) == (Fraction(10, 3), Fraction(4, 3), Fraction(2, 3))
    alphas = {f"av[t^{catalog.format_alpha(alpha)}]": alpha for alpha, _ in catalog.enumerate_T(6)}
    terms = []
    for name, value in lam.items():
        if name in alphas and value:
            coeff = Fraction(3 * value)
            assert coeff.denominator == 1, (name, value)
            terms.append((alphas[name], int(coeff)))
    cert = certify.Certificate(
        cert_id="sec3-188/3",
        scale=3,
        slot_mapping="(t1 t2 t3)(t4 t5 t6)(t7 t8 t9)(t10 t11 t12)",
        source="the optimal vertex of the z4,n4,v4sq program",
        terms=tuple(terms),
    )
    report = certify.check_sec3(cert)
    assert report.passed, report.summary()


degree_six_polys = st.dictionaries(
    st.sampled_from(list(compositions(6, 6))), coefficients, min_size=1, max_size=8
).map(Poly)


def _solution_with(objective, multipliers):
    return lp.LpSolution(
        status="optimal", objective=objective, multipliers=multipliers,
        support=tuple(name for name, v in multipliers.items() if v), pivots=0,
        reconstruction_ok=True, route="certified", float_pivots=0, exact_pivots=0,
        certificate="verified",
    )


@given(degree_six_polys, coefficients, coefficients)
@settings(max_examples=80, deadline=None)
def test_orbit_form_and_poly_form_agree(f, alpha, lam):
    s = orbit_sum(f)
    assume(not s.is_zero())
    v = {c: s.terms[c] for c in orbit_totals(f)}
    assert spread(v) == s
    poly_program, vector_program = build_program([("f", s)]), build_program([("f", v)])
    assert poly_program == vector_program
    assert repr(poly_program) == repr(vector_program)
    assert upper_bound_check([("f", s)]) == upper_bound_check([("f", v)])
    solution = _solution_with(alpha, {"f": lam})
    assert combination_polynomial([("f", s)], solution) == combination_polynomial(
        [("f", v)], solution
    )


def test_t6_witness_values_match_the_written_out_columns():
    vectors = [vector for _, vector in catalog.enumerate_T(6)]
    assert witness_values(vectors) == [spread(v).evaluate(WITNESS) for v in vectors]


@pytest.mark.parametrize(
    "vector, message",
    [
        ({}, "'bad' is empty"),
        ({(0, 0, 0, 0, 0, 6): 1}, r"'bad' has \(0, 0, 0, 0, 0, 6\), not orbit-canonical"),
        ({(5, 0, 0, 0, 0, 0): 1}, r"'bad' has \(5, 0, 0, 0, 0, 0\), not a monomial of degree 6"),
    ],
    ids=["empty", "not canonical", "wrong degree"],
)
def test_build_program_rejects_malformed_orbit_vectors(vector, message, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a malformed column reached the simplex")

    monkeypatch.setattr(lp, "_simplex", no_solve)
    with pytest.raises(ValueError, match=message):
        solve(build_program([("z4", catalog.z4()), ("bad", vector)]))


@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_build_program_refuses_inexact_coefficients(bad):
    canonical = next(iter(orbit_totals(catalog.p4())))
    with pytest.raises(ValueError, match=r"column 'bad' has coefficient .* not an int or Fraction"):
        build_program([("z4", catalog.z4()), ("bad", {canonical: bad})])
    # A Poly that bypassed the constructor's check, as Poly._raw allows
    sneaked = Poly._raw(dict.fromkeys(catalog.p4().terms, bad))
    with pytest.raises(ValueError, match=r"column 'sneaked' has coefficient .* not an int or Fraction"):
        build_program([("sneaked", sneaked)])
