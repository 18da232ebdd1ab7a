"""LP solver behavior on small programs plus the ceiling argument.

The three full-size programs over the complete degree-6 column family run
in the acceptance suite; here the solver is exercised on programs small
enough to finish in milliseconds: the certified route, the exact fallback,
the certificate checker and the handling of redundant rows.
"""

import functools
import hashlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atiyah4 import catalog, certify, lp
from atiyah4.linalg import gauss_jordan
from atiyah4.polyring import Poly, compositions, normalize_coeff, variable
from atiyah4.symmetry import (
    average_of_totals,
    orbit,
    orbit_canonical,
    orbit_sum,
    orbit_totals,
    sym_average,
)
from atiyah4.lp import (
    WITNESS,
    build_program,
    combination_polynomial,
    solve,
    standard_basis,
    upper_bound_check,
)


def gap_basis():
    return [("gap", catalog.d4() - 64 * catalog.p4())]


def test_gap_fixture_reaches_the_ceiling():
    gap = catalog.d4() - 64 * catalog.p4()
    problem = build_program([("gap", gap)])
    solution = solve(problem)
    assert solution.status == "optimal"
    assert solution.objective == 64
    assert solution.multipliers["gap"] == 1
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
        average = sym_average(catalog.t_alpha_expand(alpha))
        basis.append((f"av[t^{catalog.format_alpha(alpha)}]", average))
    return basis


def test_certificate_support_reproduces_the_best_bound():
    basis = sec3_basis()
    problem = build_program(basis)
    solution = solve(problem)
    assert solution.status == "optimal"
    assert solution.objective == Fraction(188, 3)
    assert solution.route == "certified"
    assert solution.exact_pivots == 0 and solution.pivots == solution.float_pivots > 0
    assert combination_polynomial(basis, solution) == catalog.d4()
    assert all(v >= 0 for v in solution.multipliers.values())


def _singular_float_pass(simplex):
    # alpha+ and alpha- (columns 0 and 1) are opposite columns, so any basis
    # holding both is singular.  Only the float pass is replaced; the exact
    # one runs as is.
    def patched(matrix, rhs, cost, exact=True):
        if exact:
            return simplex(matrix, rhs, cost)
        return "optimal", [0, 1], 0
    return patched


@pytest.mark.parametrize("force", ["pivot cap 0", "singular basis"])
def test_bad_float_basis_takes_the_exact_fallback(force, monkeypatch):
    problem = build_program(sec3_basis())
    if force == "pivot cap 0":
        monkeypatch.setattr(lp, "FLOAT_PIVOT_CAP", 0)
        reason = "rejected: float pass ended pivot cap"
    else:
        monkeypatch.setattr(lp, "_simplex", _singular_float_pass(lp._simplex))
        reason = "rejected: float basis is singular"
    solution = solve(problem)
    assert solution.route == "exact-fallback"
    assert solution.certificate == reason
    assert solution.status == "optimal"
    assert solution.objective == Fraction(188, 3)
    assert solution.float_pivots == 0 and solution.pivots == solution.exact_pivots > 0


def test_exact_basis_that_fails_its_certificate_raises(monkeypatch):
    # The fallback's "optimal" is judged by the same certificate as the
    # float pass's; a rejected exact basis is a defect, not a result.
    monkeypatch.setattr(lp, "check_optimality", lambda *args: "x does not reproduce d4")
    problem = build_program(sec3_basis())
    with pytest.raises(RuntimeError, match="x does not reproduce d4"):
        solve(problem)


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


def _certificate(problem, solved):
    """(alpha, multipliers, y) of a ``_basis_solution`` result, as solve checks it."""
    x, y = solved
    multipliers = dict(zip(problem.column_names[1:], x[2:]))
    return x[0] - x[1], multipliers, dict(zip(problem.monomials, y))


@given(degenerate_programs())
@settings(max_examples=400, deadline=None)
def test_exact_simplex_ends_in_a_correct_verdict(problem):
    # Bland's rule alone must terminate, and every "optimal" it reports
    # must come with a basis whose exact certificate checks.
    matrix, rhs, cost = lp._standard_form(problem)
    state, basis, _ = lp._simplex(matrix, rhs, cost)
    assert state in ("optimal", "infeasible", "unbounded")
    if state == "optimal":
        solved = lp._basis_solution(matrix, rhs, cost, basis)
        assert solved is not None
        assert lp.check_optimality(problem, *_certificate(problem, solved)) == "verified"


@given(degenerate_programs())
@settings(max_examples=300, deadline=None)
def test_solve_agrees_with_the_exact_simplex(problem):
    # Whatever route solve takes, its verdict is the exact simplex's, and a
    # certified result carries a verified certificate.
    matrix, rhs, cost = lp._standard_form(problem)
    state, basis, _ = lp._simplex(matrix, rhs, cost)
    objective = None
    if state == "optimal":
        x, _ = lp._basis_solution(matrix, rhs, cost, basis)
        objective = x[0] - x[1]
    solution = solve(problem)
    assert solution.status == state
    assert solution.objective == objective
    if solution.route == "certified":
        assert solution.certificate == "verified" and solution.exact_pivots == 0


@pytest.fixture(scope="module")
def sec3_certificate():
    problem = build_program(sec3_basis())
    matrix, rhs, cost = lp._standard_form(problem)
    state, basis, _ = lp._simplex(matrix, rhs, cost, exact=False)
    assert state == "optimal"
    certificate = _certificate(problem, lp._basis_solution(matrix, rhs, cost, basis))
    assert lp.check_optimality(problem, *certificate) == "verified"
    return problem, *certificate


def _augmented_columns(problem):
    """The columns of [A | b]: one per program column, then the right-hand side."""
    return [*zip(*problem.matrix), problem.rhs]


def _left_null_space(problem):
    """A basis of the deltas, one entry per orbit row, with delta^T [A | b] = 0."""
    echelon, pivots, _ = gauss_jordan(_augmented_columns(problem))
    rows = len(problem.monomials)
    basis = []
    for free in sorted(set(range(rows)) - set(pivots)):
        delta = [Fraction(0)] * rows
        delta[free] = Fraction(1)
        for row, pivot in zip(echelon, pivots):
            delta[pivot] = -row[free]
        basis.append(delta)
    return basis


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dual_checker_rejects_any_perturbed_y(sec3_certificate, data):
    # Every multiplier of this vertex is positive, so a valid y must give
    # every column but alpha the value 0, alpha the value 1, and b^T y the
    # value alpha.  y is not unique: the sec3 program has 30 orbit rows of
    # rank 10, and a delta with delta^T [A | b] = 0 changes none of those
    # values.  So a delta that moves some y . A_j or b^T y is rejected, and
    # a nonzero delta from the left null space of [A | b] is accepted.
    problem, alpha, multipliers, y = sec3_certificate
    assert all(v > 0 for v in multipliers.values())
    rows = len(problem.monomials)
    delta = data.draw(st.lists(st.fractions(max_denominator=10**6),
                               min_size=rows, max_size=rows))
    if data.draw(st.booleans()):
        # keep b^T y unchanged, so that only the column values can object
        pivot = next(i for i, b in enumerate(problem.rhs) if b)
        delta[pivot] -= sum(b * d for b, d in zip(problem.rhs, delta)) / problem.rhs[pivot]
    columns = _augmented_columns(problem)
    assume(any(sum(d * v for d, v in zip(delta, column)) for column in columns))
    moved = {mono: y[mono] + d for mono, d in zip(problem.monomials, delta)}
    assert lp.check_optimality(problem, alpha, multipliers, moved) != "verified"

    null_space = _left_null_space(problem)
    assert len(null_space) == rows - 10
    weights = data.draw(st.lists(st.fractions(max_denominator=10**6),
                                 min_size=len(null_space), max_size=len(null_space)))
    assume(any(weights))
    shift = [sum(w * v[i] for w, v in zip(weights, null_space)) for i in range(rows)]
    assert all(sum(d * v for d, v in zip(shift, column)) == 0 for column in columns)
    moved = {mono: y[mono] + d for mono, d in zip(problem.monomials, shift)}
    assert moved != y
    assert lp.check_optimality(problem, alpha, multipliers, moved) == "verified"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dual_checker_rejects_a_negative_x(sec3_certificate, data):
    problem, alpha, multipliers, y = sec3_certificate
    name = data.draw(st.sampled_from(sorted(multipliers)))
    value = data.draw(st.fractions(max_denominator=10**6).filter(bool))
    moved = {**multipliers, name: -abs(value)}
    verdict = lp.check_optimality(problem, alpha, moved, y)
    assert verdict == "x has a negative entry"


def test_dual_checker_rejects_a_feasible_point_below_the_optimum():
    # alpha + lambda = 2 with lambda >= 0: y = 1 proves alpha <= 2, so it
    # certifies alpha = 2 but not the feasible alpha = 1.
    row = (6, 0, 0, 0, 0, 0)
    problem = lp.LpProblem(monomials=(row,), column_names=("alpha", "f"),
                           matrix=((1, 1),), rhs=(2,))
    assert lp.check_optimality(problem, 2, {"f": 0}, {row: 1}) == "verified"
    assert lp.check_optimality(problem, 1, {"f": 1}, {row: 1}) == "b^T y differs from alpha"


def _solve_recording_checks(problem, monkeypatch):
    """solve(problem), and the (alpha, multipliers, y) of each certificate check it made."""
    seen = []
    check = lp.check_optimality

    def spy(problem, alpha, multipliers, y):
        seen.append((alpha, multipliers, y))
        return check(problem, alpha, multipliers, y)

    monkeypatch.setattr(lp, "check_optimality", spy)
    solution = solve(problem)
    monkeypatch.undo()
    return solution, seen


@pytest.mark.parametrize("basis", [gap_basis, sec3_basis], ids=["gap", "sec3"])
def test_certificate_from_solve_checks_without_the_solver(basis, monkeypatch):
    # The (alpha, multipliers, y) that solve certifies prove the optimum on
    # a freshly built program, with no simplex state.
    solution, [(alpha, multipliers, y)] = _solve_recording_checks(build_program(basis()),
                                                                  monkeypatch)
    assert solution.route == "certified"
    assert (alpha, multipliers) == (solution.objective, solution.multipliers)
    fresh = build_program(basis())
    assert lp.check_optimality(fresh, alpha, multipliers, y) == "verified"
    doubled = {mono: 2 * v for mono, v in y.items()}
    assert lp.check_optimality(fresh, alpha, multipliers, doubled).startswith("column alpha ")
    p4_row = next(iter(catalog.p4().terms))
    assert p4_row in y
    dropped = {mono: v for mono, v in y.items() if mono != p4_row}
    assert lp.check_optimality(fresh, alpha, multipliers, dropped) != "verified"


def test_solve_weighs_every_orbit_row(monkeypatch):
    # The gap program has 17 orbit rows of rank 2.  No row is dropped before
    # the solve, so the certificate's y names all 17, not an independent 2.
    problem = build_program(gap_basis())
    assert len(problem.monomials) == 17
    assert len(gauss_jordan(_augmented_columns(problem))[1]) == 2
    solution, [(_, _, y)] = _solve_recording_checks(problem, monkeypatch)
    assert solution.route == "certified"
    assert set(y) == set(problem.monomials)


def test_checker_reads_a_missing_multiplier_as_zero_and_refuses_an_unknown_one(monkeypatch):
    # A certificate that stores only its support leaves the other columns out.
    problem = build_program([*gap_basis(), ("z4", catalog.z4())])
    assert lp.check_optimality(problem, 64, {"gap": 1}, {}) == "column alpha has y value 0"
    solution, seen = _solve_recording_checks(problem, monkeypatch)
    assert solution.objective == 64 and solution.certificate == "verified"
    y = seen[-1][2]
    assert lp.check_optimality(problem, 64, {"gap": 1}, y) == "verified"
    verdict = lp.check_optimality(problem, 64, {"gap": 1, "nope": 1}, y)
    assert verdict == "x has no column 'nope'"


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


def test_ceiling_argument_applies_to_standard_columns():
    report = upper_bound_check(full_program(("z4", "n4", "v4sq")))
    assert report.applicable
    assert report.bound == 64
    assert report.witness == WITNESS
    assert report.negative_columns == ()


def test_ceiling_argument_voids_on_negative_columns():
    report = upper_bound_check(build_program([("bad", -catalog.p4())]))
    assert not report.applicable
    assert report.bound is None
    assert report.negative_columns == ("bad",)
    low = -orbit_sum(variable("a") ** 6)
    report = upper_bound_check(
        build_program([("ok", catalog.p4()), ("low", low), ("bad", -catalog.p4())])
    )
    assert report.negative_columns == ("low", "bad")


#: 1/TINY is far below float resolution next to column values at the witness.
TINY = 10**15 + 37


def _at_witness(column, shift):
    """column minus the multiple of p4 that sets its witness value to shift."""
    p4 = catalog.p4()
    value = column.evaluate(WITNESS)
    return column - p4.scale(Fraction(value - shift) / p4.evaluate(WITNESS))


def _fraction_column():
    """Symmetric, of degree 6, with several denominators, none of them 1."""
    a, b, z = variable("a"), variable("b"), variable("z")
    return orbit_sum(catalog.p4().scale(Fraction(5, 7)) - (a * b * z ** 4).scale(Fraction(11, 13))
                     + (a ** 6).scale(Fraction(-2, 17)))


def test_ceiling_names_a_fraction_column_just_below_zero():
    column = _fraction_column()
    assert all(coeff.denominator > 1 for coeff in column.terms.values())
    low = _at_witness(column, Fraction(-1, TINY))
    zero = _at_witness(column, 0)
    assert low.evaluate(WITNESS) == Fraction(-1, TINY)
    assert zero.evaluate(WITNESS) == 0
    report = upper_bound_check(
        build_program([("zero", zero), ("low", low), ("p4", catalog.p4())])
    )
    assert not report.applicable
    assert report.bound is None
    assert report.negative_columns == ("low",)
    report = upper_bound_check(build_program([("zero", zero), ("p4", catalog.p4())]))
    assert report.applicable and report.bound == 64


coefficients = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)
degree_six_polys = st.dictionaries(
    st.sampled_from(list(compositions(6, 6))), coefficients, min_size=1, max_size=8
).map(Poly)


@st.composite
def witness_columns(draw):
    column = orbit_sum(draw(degree_six_polys))
    # Shift some columns to land exactly on 0 or one TINY step either side.
    shift = draw(st.sampled_from([None, -1, 0, 1]))
    if shift is not None:
        column = _at_witness(column, Fraction(shift, TINY))
    return column


@given(st.lists(witness_columns(), max_size=4))
@settings(max_examples=60, deadline=None)
def test_ceiling_applies_exactly_when_every_column_is_nonnegative(columns):
    assume(not any(column.is_zero() for column in columns))
    basis = [(f"f{i}", column) for i, column in enumerate(columns)]
    report = upper_bound_check(build_program(basis))
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
    # phase 1 of the simplex drops the rows that go redundant.
    gap = catalog.d4() - 64 * catalog.p4()
    problem = build_program([("gap", gap)])
    rows, rhs = problem.matrix, problem.rhs
    assert len(rows) == len(rhs) == len(set(problem.monomials))
    support = set(catalog.d4().terms) | set(catalog.p4().terms) | set(gap.terms)
    assert {orbit_canonical(mono) for mono in support} == set(problem.monomials)
    assert len(rows) < len(support)


#: sha256 over repr((monomials, column_names, matrix, rhs)) of the three full
#: programs build_program(standard_basis(extras)), as first computed with
#: the T6 columns written out as Polys over all 462 degree-6 monomials and
#: one row per orbit holding the coefficients at its canonical monomial.
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
    # The rows hold orbit totals, all ints; row c divided by |orbit(c)| is
    # the row of coefficients that was pinned.  repr tells an int entry
    # from an integral Fraction.
    problem = full_program(extras)
    assert all(type(v) is int for row in problem.matrix for v in row)
    assert all(type(v) is int for v in problem.rhs)
    sizes = [len(orbit(c)) for c in problem.monomials]
    matrix = tuple(
        tuple(normalize_coeff(Fraction(v, size)) for v in row)
        for row, size in zip(problem.matrix, sizes)
    )
    rhs = tuple(normalize_coeff(Fraction(b, size)) for b, size in zip(problem.rhs, sizes))
    text = repr((problem.monomials, problem.column_names, matrix, rhs))
    assert hashlib.sha256(text.encode()).hexdigest() == PROGRAM_DIGESTS[extras]


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.cache
def _benchmark_workloads():
    # The benchmark's workload module, loaded read-only; its dataclasses
    # need the module registered while it runs.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("extras", list(PROGRAM_DIGESTS))
def test_cut_programs_certify_on_the_float_route(extras):
    # The benchmark's cut programs have 32 orbit rows of rank 31, so phase 1
    # of the float pass drops one row, not necessarily the one an exact
    # reduction would pick.  The basis solve runs over all 32 rows and needs
    # only independent basic columns, so the float basis still certifies.
    problem = build_program(_benchmark_workloads()._restricted(standard_basis(extras)))
    assert len(problem.monomials) == 32
    assert len(gauss_jordan(_augmented_columns(problem))[1]) == 31
    solution = solve(problem)
    assert solution.route == "certified" and solution.exact_pivots == 0
    assert solution.objective == {0: 32, 2: 60, 3: Fraction(188, 3)}[len(extras)]
    ceiling = upper_bound_check(problem)
    assert ceiling.applicable and ceiling.bound == 64


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


def _solution_with(objective, multipliers):
    return lp.LpSolution(
        status="optimal", objective=objective, multipliers=multipliers,
        support=tuple(name for name, v in multipliers.items() if v), pivots=0,
        route="certified", float_pivots=0, exact_pivots=0,
        certificate="verified",
    )


@given(degree_six_polys, coefficients, coefficients)
@settings(max_examples=80, deadline=None)
def test_orbit_form_and_poly_form_agree(f, alpha, lam):
    s = orbit_sum(f)
    assume(not s.is_zero())
    v = orbit_totals(s)
    assert average_of_totals(v) == s
    poly_program, vector_program = build_program([("f", s)]), build_program([("f", v)])
    assert poly_program == vector_program
    assert repr(poly_program) == repr(vector_program)
    assert upper_bound_check(poly_program) == upper_bound_check(vector_program)
    solution = _solution_with(alpha, {"f": lam})
    assert combination_polynomial([("f", s)], solution) == combination_polynomial(
        [("f", v)], solution
    )


def test_witness_y_gives_each_t6_column_its_written_out_value(monkeypatch):
    # The ceiling's y gives each column f the value f(w) / p4(w); the
    # reference writes each T6 column out and evaluates it at the witness.
    seen = []
    dual_values = lp._dual_values

    def recorded(problem, y):
        seen.append(dual_values(problem, y))
        return seen[-1]

    monkeypatch.setattr(lp, "_dual_values", recorded)
    vectors = [vector for _, vector in catalog.enumerate_T(6)]
    report = upper_bound_check(build_program([(str(i), v) for i, v in enumerate(vectors)]))
    assert report.applicable
    [(values, objective)] = seen
    p4_value = catalog.p4().evaluate(WITNESS)
    assert values == [1] + [
        Fraction(average_of_totals(v).evaluate(WITNESS), p4_value) for v in vectors
    ]
    assert objective == 64


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
