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
   with ``is_symmetric``.  So each side is fixed by its orbit totals
   (``symmetry.orbit_totals``), and one row per orbit-canonical monomial,
   stating that both sides have the same total on that orbit, says all
   (32 rows at degree 6 instead of 462).  Every entry is an int for the
   standard columns.  Every orbit row goes to the simplex; rows that are
   combinations of others need no removal first, as phase 1 drops each
   row left without a pivot.
2. Float basis.  The tableau simplex runs in float, with steepest-edge
   pricing (Goldfarb & Reid, Math. Programming 1977), a zero tolerance
   and a pivot cap, to find a candidate optimal basis B.
3. Exact certificate.  B x = b and B^T y = c_B are solved in Fraction
   over every orbit row.  x gives alpha and the multipliers lambda, y
   one weight per orbit row.  They are accepted only if lambda >= 0,
   they reproduce d4 on every orbit row, y gives p4 the value 1 and every
   other column at least 0, and b^T y = alpha (:func:`check_optimality`,
   which needs no basis).  By weak duality no feasible point has a larger
   alpha, so optimality is proved, not taken on the float solver's word.

If any step fails (float status not optimal, pivot cap hit, singular
basis, a failed check), the same tableau code runs over Fraction as an
exact two-phase simplex on the same rows, entering by Bland's
lowest-index rule, which cannot cycle and so always ends in a verdict.
An optimal basis from this fallback goes through the same certificate
(step 3), and one that fails it raises ``RuntimeError``, so "optimal"
always means a verified certificate.  "infeasible" and "unbounded" only
ever come from the exact path and carry no certificate (a Farkas
certificate for them is out of scope).

The ceiling 64 that no program of this shape can pass is the second use
of the same dual check (:func:`upper_bound_check`): y comes from the
witness vector, not from a basis (the orbit mean of each monomial at the
witness), and the columns it gives a negative value void the bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import catalog
from .catalog import enumerate_T, format_alpha
from .linalg import gauss_jordan
from .polyring import EXACT_TYPES, N_VARS, Coeff, Mono, Poly, mono_key
from .symmetry import (
    OrbitVector,
    average_of_totals,
    is_symmetric,
    orbit,
    orbit_canonical,
    orbit_totals,
)

DEGREE = 6

#: Tableau entries: Fraction in the exact simplex, float in the float pass.
Num = Union[Fraction, float]


@dataclass(frozen=True)
class LpProblem:
    """Coefficient-matching formulation of the degree-6 program.

    Row r states: rhs[r] = alpha * matrix[r][0] + sum_j lambda_j * matrix[r][j]
    for the orbit totals at monomials[r], an orbit-canonical monomial (one
    row per orbit).  Column 0 is the alpha column (the totals of p4); the
    rhs holds the totals of d4.
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


#: An LP column: a Poly, or a symmetric polynomial by its orbit totals.
Column = Union[Poly, OrbitVector]


def _orbit_form(name: str, column: Column) -> OrbitVector:
    """The column's orbit totals.

    Every coefficient must be an int or a Fraction, so nothing inexact
    reaches the exact rows.  A Poly must be nonzero, homogeneous of degree
    6 and symmetric.  An orbit vector is symmetric by construction, so it
    is only checked to be well formed: nonempty, with nonzero totals on
    orbit-canonical degree-6 monomials.
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
        return orbit_totals(column)
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
    # The orbit total of a side is |orbit(c)| times its coefficient on each
    # member of orbit(c), so equal totals mean equal coefficients on every
    # monomial of the orbit, and the rows below state the full polynomial
    # identity.
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


def _simplex(matrix: Sequence[Sequence[Coeff]], rhs: Sequence[Coeff],
             cost: Sequence[Coeff], exact: bool = True) -> tuple[str, list[int], int]:
    """Two-phase primal simplex: maximize cost . x over matrix x = rhs, x >= 0.

    Exact runs in Fraction with zero tolerance, Bland's rule and no pivot
    budget; otherwise in float with FLOAT_TOL, steepest-edge pricing and
    at most FLOAT_PIVOT_CAP pivots (see :func:`_iterate`).  Returns
    ``(status, basis, pivots)``: status is "optimal", "infeasible",
    "unbounded" or "pivot cap"; basis lists the basic columns of matrix.
    """
    num, tol = (Fraction, 0) if exact else (float, FLOAT_TOL)
    budget = math.inf if exact else FLOAT_PIVOT_CAP
    m = len(matrix)
    n = len(cost)
    zero = num(0)

    # Constraint rows with nonnegative right-hand sides.
    tableau: list[list[Num]] = []
    for row, b in zip(matrix, rhs):
        sign = -1 if b < 0 else 1
        tableau.append([num(sign * v) for v in row] + [zero] * m + [num(sign * b)])
    for i in range(m):
        tableau[i][n + i] = num(1)
    basis = [n + i for i in range(m)]

    # Phase 1: maximize minus the sum of artificials.
    obj = [sum((row[j] for row in tableau), zero) for j in range(n + m + 1)]
    for i in range(m):
        obj[n + i] = zero
    state, pivots = _iterate(tableau, obj, basis, n + m, exact, budget)
    if state == "pivot cap":
        return state, basis, pivots
    if state == "unbounded":  # cannot happen: objective bounded by 0
        raise RuntimeError("phase 1 reported unbounded")
    if abs(obj[-1]) > tol:
        return "infeasible", basis, pivots

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
    obj = [num(c) for c in cost] + [zero]
    for i, tab_row in enumerate(tableau):
        c = cost[basis[i]]
        if c:
            obj = [a - c * v for a, v in zip(obj, tab_row)]
    state, done = _iterate(tableau, obj, basis, n, exact, budget - pivots)
    return state, basis, pivots + done


def _standard_form(problem: LpProblem) -> tuple[list[list[Coeff]], list[Coeff], list[int]]:
    # Every orbit row over alpha+, alpha-, lambda_1..lambda_k, its
    # right-hand side, and the cost vector of the objective alpha+ - alpha-.
    matrix = [[row[0], -row[0], *row[1:]] for row in problem.matrix]
    cost = [1, -1] + [0] * (len(problem.column_names) - 1)
    return matrix, list(problem.rhs), cost


def _basis_solution(matrix: list[list[Coeff]], rhs: list[Coeff], cost: list[int],
                    basis: list[int]) -> tuple[list[Fraction], list[Fraction]] | None:
    """Exact primal x (zero off the basis) and dual y of a basis, on every row.

    Solves B x_B = b and B^T y = c_B over Fraction; None when the basic
    columns are dependent.  B need not be square, as phase 1 drops the rows
    that went redundant.  y is 0 on rows without a pivot of B^T: when B
    spans A and b, any y solving B^T y = c_B gives the same y A and b^T y.
    """
    primal, pivots, _ = gauss_jordan(
        [[row[j] for j in basis] + [b] for row, b in zip(matrix, rhs)], len(basis)
    )
    if len(pivots) < len(basis):
        return None
    dual, pivot_rows, _ = gauss_jordan(
        [[row[j] for row in matrix] + [cost[j]] for j in basis], len(matrix)
    )
    x = [Fraction(0)] * len(cost)
    for r, j in enumerate(basis):
        x[j] = primal[r][-1]
    y = [Fraction(0)] * len(matrix)
    for r, i in zip(dual, pivot_rows):
        y[i] = r[-1]
    return x, y


def check_optimality(problem: LpProblem, alpha: Fraction, multipliers: dict[str, Fraction],
                     y: dict[Mono, Fraction]) -> str:
    """"verified" when y proves (alpha, multipliers) optimal, else the first failed condition.

    y is keyed by orbit-canonical monomial; a row it does not name weighs 0.
    The multipliers are keyed by column name; a column they do not name
    takes 0, and a name that is not a column is refused.  They must be
    nonnegative (alpha is free) and, with alpha, reproduce d4 on every
    orbit row; y must give the alpha column (p4) 1 and every other column
    at least 0; and b^T y must equal alpha.  Weak duality then bounds the
    alpha of every feasible point by b^T y.
    """
    unknown = sorted(set(multipliers).difference(problem.column_names[1:]))
    if unknown:
        return f"x has no column {unknown[0]!r}"
    if any(v < 0 for v in multipliers.values()):
        return "x has a negative entry"
    if not _reconstructs(problem, alpha, multipliers):
        return "x does not reproduce d4"
    values, objective = _dual_values(problem, y)
    for j, (name, value) in enumerate(zip(problem.column_names, values)):
        if value < 0 or (j == 0 and value != 1):
            return f"column {name} has y value {value}"
    if objective != alpha:
        return "b^T y differs from alpha"
    return "verified"


def _dual_values(problem: LpProblem, y: dict[Mono, Coeff]) -> tuple[list[Fraction], Fraction]:
    """The value y (keyed as in :func:`check_optimality`) gives each column, and b^T y."""
    # Exact, and in ints for int entries: y is brought to one denominator,
    # so each value is one sum of weight * entry, divided once.
    weights = [y.get(mono, 0) for mono in problem.monomials]
    denominator = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (denominator // w.denominator) for w in weights]

    def dot(entries: Iterable[Coeff]) -> Fraction:
        return Fraction(sum(map(operator.mul, scaled, entries)), denominator)

    return [dot(column) for column in zip(*problem.matrix)], dot(problem.rhs)


def solve(problem: LpProblem) -> LpSolution:
    """Float-guided exact solve with an exact fallback; deterministic.

    Whichever pass found it, an optimal basis is reported only once its
    exact certificate is verified.
    """
    matrix, rhs, cost = _standard_form(problem)

    def check_basis(basis: list[int], origin: str
                    ) -> tuple[str, tuple[Fraction, dict[str, Fraction]] | None]:
        solved = _basis_solution(matrix, rhs, cost, basis)
        if solved is None:
            return f"{origin} basis is singular", None
        x, y = solved
        point = x[0] - x[1], dict(zip(problem.column_names[1:], x[2:]))
        return check_optimality(problem, *point, dict(zip(problem.monomials, y))), point

    state, basis, float_pivots = _simplex(matrix, rhs, cost, exact=False)
    verdict = f"float pass ended {state}"
    if state == "optimal":
        verdict, point = check_basis(basis, "float")
    if verdict == "verified":
        return _solution("optimal", point, "certified", float_pivots, 0, verdict)

    state, basis, exact_pivots = _simplex(matrix, rhs, cost)
    point = None
    if state == "optimal":
        exact_verdict, point = check_basis(basis, "exact")
        if exact_verdict != "verified":
            raise RuntimeError(f"exact simplex basis failed its certificate: {exact_verdict}")
    return _solution(state, point, "exact-fallback",
                     float_pivots, exact_pivots, f"rejected: {verdict}")


def _solution(status: str, point: tuple[Fraction, dict[str, Fraction]] | None, route: str,
              float_pivots: int, exact_pivots: int, certificate: str) -> LpSolution:
    alpha, multipliers = point or (None, {})
    return LpSolution(
        status=status,
        objective=alpha,
        multipliers=multipliers,
        support=tuple(name for name, v in multipliers.items() if v > 0),
        pivots=float_pivots + exact_pivots,
        route=route,
        float_pivots=float_pivots,
        exact_pivots=exact_pivots,
        certificate=certificate,
    )


def _reconstructs(problem: LpProblem, alpha: Fraction,
                  multipliers: dict[str, Fraction]) -> bool:
    lam = [multipliers.get(name, 0) for name in problem.column_names[1:]]
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
    vectors go through ``symmetry.average_of_totals``, not through the
    program rows, so comparing the result with d4 on every monomial checks
    the row build.
    """
    if solution.objective is None:
        raise ValueError("solution has no objective value")
    result = catalog.p4().scale(solution.objective)
    for name, column in basis:
        lam = solution.multipliers.get(name, Fraction(0))
        if lam:
            poly = column if isinstance(column, Poly) else average_of_totals(column)
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


def upper_bound_check(problem: LpProblem) -> BoundReport:
    """Ceiling for the objective from the witness vector (9, 8, 1, 1, 7, 8).

    The witness w gives a dual point of every program: with W_c the sum of
    w^m over the orbit of c, y_c = W_c / (|orbit(c)| p4(w)) is the orbit
    mean of w^m over p4(w).  A symmetric column f with orbit totals F_c has
    the coefficient F_c / |orbit(c)| on each of the W_c terms, so y gives
    it the value f(w) / p4(w): p4 gets 1 and b^T y = d4(w) / p4(w) = 64.
    Weak duality (as in :func:`check_optimality`) then bounds alpha by 64,
    unless columns go negative at the witness: they void the argument and
    are reported rather than raised.
    """
    p4_value = math.prod(WITNESS)  # p4 = abcxyz
    if p4_value <= 0:
        raise RuntimeError("witness vector lost the d4 = 64 p4 anchor")

    def orbit_mean(members: Sequence[Mono]) -> Fraction:
        return Fraction(sum(math.prod(map(pow, WITNESS, m)) for m in members), len(members))

    y = {c: orbit_mean(orbit(c)) / p4_value for c in problem.monomials}
    (_, *values), objective = _dual_values(problem, y)
    if objective != 64:
        raise RuntimeError("witness vector lost the d4 = 64 p4 anchor")
    negative = tuple(name for name, value in zip(problem.column_names[1:], values) if value < 0)
    return BoundReport(applicable=not negative, bound=None if negative else Fraction(64),
                       witness=WITNESS, negative_columns=negative)
