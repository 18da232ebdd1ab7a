"""Exact linear programming over the degree-6 identity space.

The program: maximize alpha subject to d4 = alpha p4 + sum lambda_j f_j
with every lambda_j >= 0, where the f_j are symmetric homogeneous
degree-6 polynomials nonnegative on geometric input.  Matching
coefficients monomial by monomial turns the polynomial constraint into
ordinary linear equations, one per degree-6 monomial.  The free variable
alpha is split into a difference of two nonnegative variables.

The reported optima (32, 60, 188/3, 64) are exact rational statements,
not floating-point estimates.  A solve takes three steps:

1. Rows by orbit.  Every side of the identity is symmetric: the T6
   columns are orbit vectors (``symmetry.OrbitVector``), symmetric by
   construction, and d4, p4 and every column given as a Poly are checked
   with ``is_symmetric``.  So each side has one coefficient per orbit of
   the 24-element action, and one row per orbit-canonical monomial says
   all (32 rows at degree 6 instead of 462).  Exact elimination then keeps a
   maximal independent set of the rows [row | rhs]; every dropped row is
   an exact combination of the kept ones, right-hand side included, so
   the feasible set does not change.
2. Float basis.  The tableau simplex runs in float, with steepest-edge
   pricing (Goldfarb & Reid, Math. Programming 1977), a zero tolerance
   and a pivot cap, to find a candidate optimal basis B.
3. Exact certificate.  B x = b and B^T y = c_B are solved in Fraction.
   The result is accepted only if x >= 0, x reproduces d4 on every
   orbit row, every column has nonpositive reduced cost under y (zero
   on the basis) and b^T y = alpha.  By weak duality no feasible point has
   a larger alpha, so optimality is proved, not taken on the float
   solver's word.

If any step fails (float status not optimal, pivot cap hit, singular
basis, a failed check), the same tableau code runs over Fraction as an
exact two-phase simplex on the same rows, entering by Bland's
lowest-index rule, which cannot cycle and so always ends in a verdict.
"infeasible" and "unbounded" only ever come from this exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import catalog
from .catalog import enumerate_T, format_alpha
from .linalg import gauss_jordan
from .polyring import EXACT_TYPES, N_VARS, Coeff, Mono, Poly, mono_key
from .symmetry import OrbitVector, is_symmetric, orbit, orbit_canonical, spread

DEGREE = 6

#: Tableau entries: Fraction in the exact simplex, float in the float pass.
Num = Union[Fraction, float]


@dataclass(frozen=True)
class LpProblem:
    """Coefficient-matching formulation of the degree-6 program.

    Row r states: rhs[r] = alpha * matrix[r][0] + sum_j lambda_j * matrix[r][j]
    for the coefficients of monomials[r], an orbit-canonical monomial (one
    row per orbit).  Column 0 is the alpha column (coefficients of p4); the
    rhs holds the coefficients of d4.
    """

    monomials: tuple[Mono, ...]
    column_names: tuple[str, ...]
    matrix: tuple[tuple[Coeff, ...], ...]
    rhs: tuple[Coeff, ...]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    multipliers: dict[str, Fraction]
    support: tuple[str, ...]
    pivots: int  # float_pivots + exact_pivots
    reconstruction_ok: bool
    route: str  # "certified" | "exact-fallback"
    float_pivots: int
    exact_pivots: int
    certificate: str  # "verified", or "rejected: <first failed condition>"


@dataclass(frozen=True)
class BoundReport:
    """Result of the ceiling argument at the witness vector."""

    applicable: bool
    bound: Fraction | None
    witness: tuple[int, ...]
    negative_columns: tuple[str, ...]


WITNESS = (9, 8, 1, 1, 7, 8)


#: An LP column: a Poly, or a symmetric polynomial in orbit form.
Column = Union[Poly, OrbitVector]


def _orbit_form(name: str, column: Column) -> OrbitVector:
    """The column's coefficient on each orbit-canonical monomial it meets.

    Every coefficient must be an int or a Fraction, so nothing inexact
    reaches the exact rows.  A Poly must be nonzero, homogeneous of degree
    6 and symmetric.  An orbit vector is symmetric by construction, so it
    is only checked to be well formed: nonempty, with nonzero coefficients
    on orbit-canonical degree-6 monomials.
    """
    terms = column.terms if isinstance(column, Poly) else column
    for mono, coeff in terms.items():
        if type(coeff) not in EXACT_TYPES:
            raise ValueError(
                f"column {name!r} has coefficient {coeff!r} on {mono}, not an int or Fraction"
            )
    if isinstance(column, Poly):
        if column.is_zero() or not column.is_homogeneous(DEGREE):
            raise ValueError(f"basis column {name!r} is not homogeneous of degree {DEGREE}")
        if not is_symmetric(column):
            raise ValueError(f"column {name!r} is not symmetric")
        return {orbit_canonical(mono): coeff for mono, coeff in column.terms.items()}
    if not column:
        raise ValueError(f"orbit vector {name!r} is empty")
    for mono, coeff in column.items():
        if len(mono) != N_VARS or min(mono) < 0 or sum(mono) != DEGREE:
            raise ValueError(
                f"orbit vector {name!r} has {mono}, not a monomial of degree {DEGREE}"
            )
        if orbit_canonical(mono) != mono:
            raise ValueError(f"orbit vector {name!r} has {mono}, not orbit-canonical")
        if not coeff:
            raise ValueError(f"orbit vector {name!r} has a zero coefficient on {mono}")
    return column


def build_program(basis: Sequence[tuple[str, Column]]) -> LpProblem:
    """Assemble the coefficient-matching rows for the given basis columns.

    Every basis column must be symmetric and homogeneous of degree 6 (see
    :func:`_orbit_form`); rows cover the orbits meeting d4, p4 or the
    basis, one row per orbit-canonical monomial, in descending graded-lex
    order.
    """
    names = [name for name, _ in basis]
    if len(set(names)) != len(names):
        raise ValueError("duplicate column names in basis")
    # Soundness of one row per orbit: each side of d4 = alpha p4 + sum
    # lambda_j f_j is symmetric (checked or by construction), so each side
    # is constant on every orbit of the action, and so is their difference.
    # Equality on an orbit's canonical monomial is therefore equality on
    # every monomial of the orbit, and the rows below state the full
    # polynomial identity.
    d4, *columns = (  # columns[0] is p4, the alpha column
        _orbit_form(name, column)
        for name, column in (("d4", catalog.d4()), ("p4", catalog.p4()), *basis)
    )
    support = set(d4).union(*columns)
    monomials = tuple(sorted(support, key=mono_key, reverse=True))
    matrix = tuple(
        tuple(column.get(mono, 0) for column in columns) for mono in monomials
    )
    rhs = tuple(d4.get(mono, 0) for mono in monomials)
    return LpProblem(
        monomials=monomials,
        column_names=tuple(["alpha"] + names),
        matrix=matrix,
        rhs=rhs,
    )


def _independent_rows(rows: Sequence[tuple[Coeff, ...]], rhs: Sequence[Coeff]
                      ) -> tuple[list[tuple[Coeff, ...]], list[Coeff]]:
    # A maximal independent set of the rows [row | rhs], in their original
    # order.  Every dropped row is an exact combination of the kept ones,
    # right-hand side included, so the kept rows have the same solutions.
    _, _, sources, _ = gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)])
    keep = sorted(sources)
    return [rows[i] for i in keep], [rhs[i] for i in keep]


def _pivot(tableau: list[list[Num]], obj: list[Num], basis: list[int],
           row: int, col: int) -> None:
    pivot_row = tableau[row]
    inv = 1 / pivot_row[col]
    if inv != 1:
        tableau[row] = pivot_row = [v * inv for v in pivot_row]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [
                a - factor * b if b else a for a, b in zip(other, pivot_row)
            ]
    factor = obj[col]
    if factor:
        obj[:] = [a - factor * b if b else a for a, b in zip(obj, pivot_row)]
    basis[row] = col


#: Zero tolerance of the float pass: reduced costs and pivot candidates at
#: or below it count as zero.  The float pass only proposes a basis, so the
#: tolerance can cost speed (a rejected basis) but never correctness.
FLOAT_TOL = 1e-9

#: Pivots the float pass may take before the exact simplex takes over.
FLOAT_PIVOT_CAP = 5000


def _iterate(tableau: list[list[Num]], obj: list[Num], basis: list[int],
             n_cols: int, exact: bool, budget: float) -> tuple[str, int]:
    """Pivot until optimal or unbounded, or until ``budget`` pivots are used.

    The exact pass enters by Bland's rule, the lowest-index column with a
    positive reduced cost; with the lowest-index tie-break of the ratio
    test it cannot cycle, so it terminates without a budget.  The float
    pass prices by steepest edge: among the columns whose reduced cost
    d_j is above FLOAT_TOL it enters the one maximising
    d_j^2 / (1 + sum_i a_ij^2), the squared rate of improvement per unit
    length of the edge it moves along (Goldfarb & Reid 1977; Forrest &
    Goldfarb, Math. Programming 1992), ties to the lowest index.  The
    weights are read from the dense tableau, for the candidate columns
    only.  That takes far fewer pivots than the largest reduced cost, and
    the budget bounds the run instead of an anti-cycling rule.
    """
    tol = 0 if exact else FLOAT_TOL
    done = 0
    while done < budget:
        if exact:
            col = next((j for j in range(n_cols) if obj[j] > 0), -1)
        else:
            col, best = -1, 0.0
            for j in range(n_cols):
                d = obj[j]
                if d > tol:
                    # hypot is one C call for the column's Euclidean norm
                    norm = math.hypot(*[row[j] for row in tableau])
                    score = d * d / (1 + norm * norm)
                    if score > best:
                        col, best = j, score
        if col < 0:
            return "optimal", done
        # Leaving: minimum ratio, ties broken by lowest basis variable index.
        best_ratio = None
        row = -1
        for i, tab_row in enumerate(tableau):
            coeff = tab_row[col]
            if coeff > tol:
                ratio = tab_row[-1] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[row]
                ):
                    best_ratio = ratio
                    row = i
        if row < 0:
            return "unbounded", done
        _pivot(tableau, obj, basis, row, col)
        done += 1
    return "pivot cap", done


def _simplex(rows: list[tuple[Coeff, ...]], rhs: list[Coeff], exact: bool = True
             ) -> tuple[str, list[int], list[Num], int]:
    """Two-phase primal simplex: maximize alpha+ - alpha- over rows, x >= 0.

    Exact runs in Fraction with zero tolerance, Bland's rule and no pivot
    budget; otherwise in float with FLOAT_TOL, steepest-edge pricing and
    at most FLOAT_PIVOT_CAP pivots (see :func:`_iterate`).  Returns ``(status, basis, values,
    pivots)``: status is "optimal", "infeasible", "unbounded" or "pivot
    cap"; basis lists the basic columns (0 alpha+, 1 alpha-, 2 + j
    lambda_j); values is the vertex when optimal.
    """
    num, tol = (Fraction, 0) if exact else (float, FLOAT_TOL)
    budget = math.inf if exact else FLOAT_PIVOT_CAP
    m = len(rows)
    k = len(rows[0]) - 1  # lambda count
    n = 2 + k  # alpha+ alpha- lambda_1..lambda_k
    zero = num(0)

    # Constraint rows with nonnegative right-hand sides.
    tableau: list[list[Num]] = []
    for row, b in zip(rows, rhs):
        sign = -1 if b < 0 else 1
        body = [num(sign * row[0]), num(-sign * row[0])]
        body.extend(num(sign * v) for v in row[1:])
        tableau.append(body + [zero] * m + [num(sign * b)])
    for i in range(m):
        tableau[i][n + i] = num(1)
    basis = [n + i for i in range(m)]

    # Phase 1: maximize minus the sum of artificials.
    obj = [sum((row[j] for row in tableau), zero) for j in range(n + m + 1)]
    for i in range(m):
        obj[n + i] = zero
    state, pivots = _iterate(tableau, obj, basis, n + m, exact, budget)
    if state == "pivot cap":
        return state, basis, [], pivots
    if state == "unbounded":  # cannot happen: objective bounded by 0
        raise RuntimeError("phase 1 reported unbounded")
    if abs(obj[-1]) > tol:
        return "infeasible", basis, [], pivots

    # Drive artificials out of the basis; drop rows that went redundant.
    for i in range(m - 1, -1, -1):
        if basis[i] < n:
            continue
        pivot_col = next((j for j in range(n) if abs(tableau[i][j]) > tol), None)
        if pivot_col is None:
            del tableau[i]
            del basis[i]
        else:
            _pivot(tableau, obj, basis, i, pivot_col)
            pivots += 1

    # Phase 2 on the real columns only.
    tableau = [row[:n] + [row[-1]] for row in tableau]
    cost = [num(1), num(-1)] + [zero] * k
    obj = [zero] * (n + 1)
    for j in range(n + 1):
        total = zero
        for i, tab_row in enumerate(tableau):
            c = cost[basis[i]]
            if c:
                total += c * tab_row[j]
        obj[j] = (cost[j] if j < n else zero) - total
    state, done = _iterate(tableau, obj, basis, n, exact, budget - pivots)
    pivots += done
    if state != "optimal":
        return state, basis, [], pivots

    values = [zero] * n
    for i, var in enumerate(basis):
        values[var] = tableau[i][-1]
    return "optimal", basis, values, pivots


def _float_basis(rows: list[tuple[Coeff, ...]], rhs: list[Coeff]
                 ) -> tuple[str, list[int], int]:
    """Candidate optimal basis from the simplex in float: (status, basis, pivots)."""
    status, basis, _, pivots = _simplex(rows, rhs, exact=False)
    return status, basis, pivots


def _standard_form(rows: list[tuple[Coeff, ...]]) -> tuple[list[list[Coeff]], list[int]]:
    # Constraint rows over alpha+, alpha-, lambda_1..lambda_k and the cost
    # vector of the objective alpha+ - alpha-.
    matrix = [[row[0], -row[0], *row[1:]] for row in rows]
    cost = [1, -1] + [0] * (len(rows[0]) - 1)
    return matrix, cost


def _basis_solution(rows: list[tuple[Coeff, ...]], rhs: list[Coeff], basis: list[int]
                    ) -> tuple[list[Fraction], list[Fraction]] | None:
    """Exact primal x (zero off the basis) and dual y of a basis.

    Solves B x_B = b and B^T y = c_B over Fraction; None when the basis is
    not a nonsingular square submatrix.
    """
    matrix, cost = _standard_form(rows)
    m = len(matrix)
    if len(basis) != m:
        return None
    primal, pivots, _, _ = gauss_jordan(
        [[row[j] for j in basis] + [b] for row, b in zip(matrix, rhs)], m
    )
    if len(pivots) < m:
        return None
    dual, _, _, _ = gauss_jordan(
        [[row[j] for row in matrix] + [cost[j]] for j in basis], m
    )
    x = [Fraction(0)] * len(cost)
    for r, j in enumerate(basis):
        x[j] = primal[r][-1]
    return x, [r[-1] for r in dual]


def _check_certificate(problem: LpProblem, rows: list[tuple[Coeff, ...]],
                       rhs: list[Coeff], basis: list[int],
                       x: Sequence[Fraction], y: Sequence[Fraction]) -> str:
    """"verified" when (x, y) proves x optimal, else the first failed condition.

    x must be nonnegative and reproduce d4 on every orbit row; under y
    every column must have nonpositive reduced cost, zero on the basis
    (which pins y to the basis), and b^T y must equal alpha.  Weak duality
    then bounds the alpha of every feasible point by b^T y.
    """
    matrix, cost = _standard_form(rows)
    if any(v < 0 for v in x):
        return "x has a negative entry"
    alpha = x[0] - x[1]
    if not _reconstructs(problem, alpha, _multipliers(problem, x)):
        return "x does not reproduce d4"
    basic = set(basis)
    labels = ("alpha+", "alpha-") + problem.column_names[1:]
    for j, c in enumerate(cost):
        reduced = c - sum(v * row[j] for v, row in zip(y, matrix) if row[j])
        if reduced > 0 or (reduced and j in basic):
            return f"column {labels[j]} has reduced cost {reduced}"
    if sum(b * v for b, v in zip(rhs, y)) != alpha:
        return "b^T y differs from alpha"
    return "verified"


def _multipliers(problem: LpProblem, x: Sequence[Num]) -> dict[str, Num]:
    return {name: x[2 + j] for j, name in enumerate(problem.column_names[1:])}


def solve(problem: LpProblem) -> LpSolution:
    """Float-guided exact solve with an exact fallback; deterministic."""
    rows, rhs = _independent_rows(problem.matrix, problem.rhs)
    state, basis, float_pivots = _float_basis(rows, rhs)
    verdict = f"float pass ended {state}"
    if state == "optimal":
        solved = _basis_solution(rows, rhs, basis)
        verdict = "float basis is singular" if solved is None else _check_certificate(
            problem, rows, rhs, basis, *solved
        )
    if verdict == "verified":
        return _solution(problem, "optimal", solved[0], True, "certified",
                         float_pivots, 0, verdict)

    state, _, values, exact_pivots = _simplex(rows, rhs)
    ok = state == "optimal" and _reconstructs(
        problem, values[0] - values[1], _multipliers(problem, values)
    )
    return _solution(problem, state, values, ok, "exact-fallback",
                     float_pivots, exact_pivots, f"rejected: {verdict}")


def _solution(problem: LpProblem, status: str, values: list[Fraction], ok: bool,
              route: str, float_pivots: int, exact_pivots: int,
              certificate: str) -> LpSolution:
    multipliers = _multipliers(problem, values) if status == "optimal" else {}
    return LpSolution(
        status=status,
        objective=values[0] - values[1] if status == "optimal" else None,
        multipliers=multipliers,
        support=tuple(name for name, v in multipliers.items() if v > 0),
        pivots=float_pivots + exact_pivots,
        reconstruction_ok=ok,
        route=route,
        float_pivots=float_pivots,
        exact_pivots=exact_pivots,
        certificate=certificate,
    )


def _reconstructs(problem: LpProblem, alpha: Fraction,
                  multipliers: dict[str, Fraction]) -> bool:
    lam = [multipliers[name] for name in problem.column_names[1:]]
    for row, b in zip(problem.matrix, problem.rhs):
        total = alpha * row[0]
        for v, l in zip(row[1:], lam):
            if v and l:
                total += l * v
        if total != b:
            return False
    return True


def combination_polynomial(basis: Sequence[tuple[str, Column]],
                           solution: LpSolution) -> Poly:
    """alpha p4 + sum lambda_j f_j, for an independent equality check.

    Only the columns with a nonzero multiplier are written out; orbit
    vectors go through ``symmetry.spread``, not through the program rows,
    so comparing the result with d4 on every monomial checks the row build.
    """
    if solution.objective is None:
        raise ValueError("solution has no objective value")
    result = catalog.p4().scale(solution.objective)
    for name, column in basis:
        lam = solution.multipliers.get(name, Fraction(0))
        if lam:
            poly = column if isinstance(column, Poly) else spread(column)
            result = result + poly.scale(lam)
    return result


def standard_basis(extras: Sequence[str] = ()) -> list[tuple[str, Column]]:
    """Named extra columns (z4 | n4 | v4sq, as Polys) then the T6 orbit vectors."""
    allowed = {"z4": catalog.z4, "n4": catalog.n4, "v4sq": lambda: catalog.v4() ** 2}
    basis: list[tuple[str, Column]] = []
    for name in extras:
        if name not in allowed:
            raise ValueError(f"unknown extra column {name!r}; choose from z4, n4, v4sq")
        if name in dict(basis):
            raise ValueError(f"extra column {name!r} given twice")
        basis.append((name, allowed[name]()))
    for alpha, vector in enumerate_T(DEGREE):
        basis.append((f"av[t^{format_alpha(alpha)}]", vector))
    return basis


def witness_values(columns: Iterable[Column]) -> list[Coeff]:
    """The exact value of each column at WITNESS.

    A Poly column is evaluated term by term.  An orbit vector is evaluated
    as sum(coeff_c * W_c), where W_c is the sum of w^m over m in orbit(c).
    """
    powers: dict[Mono, int] = {}  # witness monomial -> its value there
    orbit_powers: dict[Mono, int] = {}  # canonical monomial c -> W_c

    def power(mono: Mono) -> int:
        value = powers.get(mono)
        if value is None:
            value = powers[mono] = math.prod(w ** e for w, e in zip(WITNESS, mono))
        return value

    def orbit_power(canonical: Mono) -> int:
        value = orbit_powers.get(canonical)
        if value is None:
            value = orbit_powers[canonical] = sum(map(power, orbit(canonical)))
        return value

    def at_witness(column: Column) -> Coeff:
        # Exact, but in ints: ints and Fractions both carry numerator and
        # denominator, so numerator * value is added into one int per
        # denominator (a column has few; averages divide by orbit sizes) and
        # one Fraction per denominator is formed at the end, in place of two
        # Fraction operations per term.
        if isinstance(column, Poly):
            items, value_of = column.terms.items(), power
        else:
            items, value_of = column.items(), orbit_power
        by_denominator: dict[int, int] = {}
        get = by_denominator.get
        for mono, coeff in items:
            denominator = coeff.denominator
            by_denominator[denominator] = get(denominator, 0) + coeff.numerator * value_of(mono)
        return sum(Fraction(total, denominator)
                   for denominator, total in by_denominator.items())

    return [at_witness(column) for column in columns]


def upper_bound_check(basis: Sequence[tuple[str, Column]]) -> BoundReport:
    """Ceiling for the objective from the witness vector (9, 8, 1, 1, 7, 8).

    d4 equals 64 p4 at the witness while p4 is positive there, so any
    feasible combination with all basis columns nonnegative at the witness
    forces alpha <= 64.  Columns that go negative at the witness void the
    argument; they are reported rather than raised.
    """
    d4_value, p4_value, *values = witness_values(
        [catalog.d4(), catalog.p4(), *(column for _, column in basis)]
    )
    if d4_value != 64 * p4_value or p4_value <= 0:
        raise RuntimeError("witness vector lost the d4 = 64 p4 anchor")
    negative = tuple(name for (name, _), value in zip(basis, values) if value < 0)
    if negative:
        return BoundReport(
            applicable=False, bound=None, witness=WITNESS, negative_columns=negative
        )
    return BoundReport(
        applicable=True, bound=Fraction(64), witness=WITNESS, negative_columns=()
    )
