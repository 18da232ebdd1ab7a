"""The named distance polynomials and the triangular-variable basis.

This module builds, once and exactly, the cast of polynomials the rest of
the package reasons about:

* ``d4``: the real part of the 4-point determinant, degree 6, symmetric.
* ``p4 = abcxyz`` and the correction terms ``n4``, ``z4`` (``z4`` equals
  144 times the squared volume of the tetrahedron on geometric input).
* the skew-symmetric cubics ``w4`` and ``v4``; ``F4 = w4^2 z4`` is the
  square of the imaginary part.
* ``m4``, ``P4``, ``M4``: the pieces of the degree-12 identities behind
  the inequality |At|^2 >= product of the four 3-point determinants.
* the twelve triangular variables ``t1 .. t12`` (triangle-inequality slack
  in each face), monomials ``t^alpha``, combinations sum(lam t^alpha)
  over a table, their symmetric averages, and the family ``T_ell`` of all
  averaged order-``ell`` monomials, as orbit vectors.

All constructions are cached; treat every returned Poly as immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from . import polyring, symmetry
from .polyring import Coeff, Poly, normalize_coeff
from .symmetry import (
    GROUP_ORDER,
    OrbitTable,
    OrbitVector,
    apply_perm,
    orbit,
    orbit_totals,
    sym_average,
)
from .symmetry import orbit_sum  # noqa: F401  (perfbench/spans.py traces it here)

A, B, C, X, Y, Z = polyring.variables()

#: Longest multi-index order :func:`enumerate_T` will expand.  The count of
#: order-L multi-indices grows like C(L+11, 11); 6 is what the degree-6
#: linear programs need and already means 12376 candidates.
MAX_ENUMERATION_ORDER = 6

N_TRIANGULAR = 12


def triple_factor(p: Poly, q: Poly, r: Poly) -> Poly:
    """(-p+q+r) (p-q+r) (p+q-r), the shared shape of the face products."""
    return (-p + q + r) * (p - q + r) * (p + q - r)


def make_d3(first: str, second: str, third: str) -> Poly:
    """Triangle polynomial of three distinct distance variables.

    ``make_d3('x', 'y', 'z')`` is 16 times the squared Heron area of a
    triangle with side lengths x, y, z, up to the usual factor; what
    matters downstream is only that it is nonnegative exactly when the
    three lengths satisfy the triangle inequality.
    """
    names = (first, second, third)
    if len(set(names)) != 3:
        raise ValueError(f"d3 needs three distinct variables, got {names}")
    p, q, r = (polyring.variable(name) for name in names)
    return triple_factor(p, q, r)


@cache
def d3() -> Poly:
    """The default triangle polynomial in (x, y, z)."""
    return make_d3("x", "y", "z")


@cache
def p4() -> Poly:
    """The product of all six distances: a b c x y z."""
    return A * B * C * X * Y * Z


@cache
def n4() -> Poly:
    """p4 minus the triple factor of the opposite-edge products xc, ay, bz."""
    return p4() - triple_factor(X * C, A * Y, B * Z)


@cache
def z4() -> Poly:
    """144 (volume)^2 of the tetrahedron, as a polynomial in the distances."""
    sq = {name: polyring.variable(name) ** 2 for name in polyring.VAR_NAMES}
    a2, b2, c2 = sq["a"], sq["b"], sq["c"]
    x2, y2, z2 = sq["x"], sq["y"], sq["z"]
    pair_part = (
        a2 * y2 * (b2 + c2 + x2 + z2)
        + b2 * z2 * (a2 + c2 + x2 + y2)
        + c2 * x2 * (a2 + b2 + y2 + z2)
    )
    quartic_part = a2 * a2 * y2 + a2 * y2 * y2 + b2 * b2 * z2 + b2 * z2 * z2 + c2 * c2 * x2 + c2 * x2 * x2
    triple_part = a2 * b2 * x2 + a2 * c2 * z2 + b2 * c2 * y2 + x2 * y2 * z2
    return pair_part - quartic_part - triple_part


@cache
def w4() -> Poly:
    """Skew-symmetric cubic whose square times z4 is (Im At)^2."""
    return (
        (A * A + Y * Y) * (B - C - X + Z)
        + (B * B + Z * Z) * (-A + C + X - Y)
        + (C * C + X * X) * (A - B + Y - Z)
        + 2 * (C * X + Y * Z) * (-A + B)
        + 2 * (A * Y + X * Z) * (-B + C)
        + 2 * (B * Z + X * Y) * (A - C)
    )


@cache
def v4() -> Poly:
    """Skew-symmetric cubic vanishing on the 21 collinear touch vectors."""
    return (B + Z - C - X) * (C + X - A - Y) * (A + Y - B - Z)


@cache
def d4() -> Poly:
    """Real part of the 4-point determinant in the six distances."""
    g = A * ((B + C) ** 2 - Y * Y) * d3()
    return 60 * p4() + 4 * n4() + 2 * z4() + 12 * sym_average(g)


@cache
def m4() -> Poly:
    """The slack d4 - (64 p4 + 4 z4 + v4^2)."""
    return d4() - (64 * p4() + 4 * z4() + v4() ** 2)


@cache
def big_p4() -> Poly:
    """Product of the four 3-point determinants, one per face."""
    return (
        (8 * X * Y * Z + make_d3("x", "y", "z"))
        * (8 * A * B * X + make_d3("a", "b", "x"))
        * (8 * A * C * Z + make_d3("a", "c", "z"))
        * (8 * B * C * Y + make_d3("b", "c", "y"))
    )


@cache
def big_m4() -> Poly:
    """(64 p4 + m4)^2 + 32 p4 (4 z4 + v4^2) - P4, the degree-12 slack."""
    head = 64 * p4() + m4()
    return head * head + 32 * p4() * (4 * z4() + v4() ** 2) - big_p4()


@cache
def f4() -> Poly:
    """The square of the imaginary part: w4^2 z4."""
    return w4() ** 2 * z4()


@cache
def named_polynomials() -> dict[str, Poly]:
    """Registry used by the command-line ``eval`` and ``dump`` commands."""
    registry = {
        "d3": d3(),
        "p4": p4(),
        "n4": n4(),
        "z4": z4(),
        "w4": w4(),
        "v4": v4(),
        "v4sq": v4() ** 2,
        "d4": d4(),
        "m4": m4(),
        "P4": big_p4(),
        "M4": big_m4(),
        "F4": f4(),
    }
    for k, t in enumerate(triangular_basis(), start=1):
        registry[f"t{k}"] = t
    return registry


# -- triangular variables ---------------------------------------------------


@cache
def triangular_basis() -> tuple[Poly, ...]:
    """The twelve triangle-inequality slacks, in their standard order.

    Slots 1-3 belong to the face with sides (a, b, x), slots 4-6 to
    (b, c, y), slots 7-9 to (a, c, z) and slots 10-12 to (x, y, z); inside
    a face the minus sign visits the sides in that face's fixed order.
    """
    return (
        -A + B + X,
        A - B + X,
        A + B - X,
        -B + C + Y,
        B - C + Y,
        B + C - Y,
        -A + C + Z,
        A - C + Z,
        A + C - Z,
        -X + Y + Z,
        X - Y + Z,
        X + Y - Z,
    )


@cache
def t_slot_action() -> tuple[tuple[int, ...], ...]:
    """How each of the 24 distance permutations permutes t1 .. t12.

    Derived, not tabulated: row i maps slot k to the unique slot whose
    polynomial equals the permuted image of t_{k+1}.  If some image were
    not again a triangular variable this would raise, so the derivation
    doubles as a proof that the action is well defined (and sign-free).
    """
    basis = triangular_basis()
    index = {basis[j].canonical_key(): j for j in range(N_TRIANGULAR)}
    action = []
    for i in range(GROUP_ORDER):
        row = []
        for k in range(N_TRIANGULAR):
            image = apply_perm(basis[k], i)
            j = index.get(image.canonical_key())
            if j is None:
                raise RuntimeError(
                    f"permutation {i} does not permute the triangular variables"
                )
            row.append(j)
        if sorted(row) != list(range(N_TRIANGULAR)):
            raise RuntimeError(f"permutation {i} induces a non-bijective slot map")
        action.append(tuple(row))
    return tuple(action)


MultiIndex = tuple[int, ...]


def check_multi_index(alpha: Sequence[int]) -> MultiIndex:
    """Validate and normalize a 12-slot multi-index."""
    alpha = tuple(alpha)
    if len(alpha) != N_TRIANGULAR:
        raise ValueError(f"multi-index needs {N_TRIANGULAR} slots, got {len(alpha)}")
    if any(not isinstance(e, int) or e < 0 for e in alpha):
        raise ValueError(f"multi-index entries must be non-negative ints: {alpha}")
    return alpha


def t_alpha_expand(alpha: Sequence[int]) -> Poly:
    """Expand the monomial t^alpha into the six distance variables."""
    alpha = check_multi_index(alpha)
    basis = triangular_basis()
    result = polyring.constant(1)
    for k, exponent in enumerate(alpha):
        for _ in range(exponent):
            result = result * basis[k]
    return result


def t_combination(terms: Iterable[tuple[Sequence[int], Coeff]]) -> Poly:
    """Expand sum(lam * t^alpha) over a table as a Horner scheme over faces.

    The faces (a b x), (b c y), (a c z), (x y z) own slots 1-3, 4-6, 7-9
    and 10-12.  Rows are grouped by their face-1 exponents (e1, e2, e3),
    each group's faces 2-4 are summed the same way, and that inner sum is
    multiplied once by the face block t1^e1 t2^e2 t3^e3, so a block shared
    by many rows costs one product instead of one per row.  Each block is
    expanded once per call; groups keep the order rows first appear in.
    """
    blocks: dict[tuple[int, ...], Poly] = {}

    def block(face: int, exponents: tuple[int, ...]) -> Poly:
        alpha = (0,) * (3 * face) + exponents + (0,) * (9 - 3 * face)
        poly = blocks.get(alpha)
        if poly is None:
            poly = blocks[alpha] = t_alpha_expand(alpha)
        return poly

    def horner(rows: list[tuple[MultiIndex, Coeff]], face: int) -> Poly:
        groups: dict[tuple[int, ...], list[tuple[MultiIndex, Coeff]]] = {}
        for row in rows:
            groups.setdefault(row[0][3 * face : 3 * face + 3], []).append(row)
        if face == 3:  # the last face: each group's rows share one alpha
            return sum(
                (
                    block(face, exponents).scale(sum(lam for _, lam in group))
                    for exponents, group in groups.items()
                ),
                polyring.zero(),
            )
        return polyring.sum_of_products(
            (block(face, exponents), horner(group, face + 1))
            for exponents, group in groups.items()
        )

    return horner([(check_multi_index(alpha), lam) for alpha, lam in terms], 0)


def av_t_alpha(alpha: Sequence[int]) -> Poly:
    """The symmetric average of t^alpha."""
    return sym_average(t_alpha_expand(alpha))


def alpha_orbit_canonical(alpha: Sequence[int]) -> MultiIndex:
    """Lexicographically maximal image of alpha under the slot action."""
    return OrbitTable(t_slot_action()).canonical(check_multi_index(alpha))


def enumerate_T(order: int) -> list[tuple[MultiIndex, OrbitVector]]:
    """All distinct averaged monomials av[t^alpha] with |alpha| = order.

    Returns (alpha, orbit vector) pairs where alpha is the orbit-canonical
    representative, deduplicated so that no two returned averages are
    equal, in a deterministic order.  The orbit vector maps each
    orbit-canonical monomial c of degree ``order`` to the coefficient of
    av[t^alpha] on every member of orbit(c), totals[c] / |orbit(c)|;
    ``symmetry.spread`` writes it out as a Poly.  Multi-indices in the same
    orbit of the slot action provably average to the same polynomial, so
    only one representative per orbit is expanded.

    Equality is decided on the integer orbit totals of t^alpha
    (``symmetry.orbit_totals``), at most one per orbit of degree-order
    monomials.  This is exact: two alphas have equal averages exactly
    when they have equal totals.

    The compositions arrive in descending lex order, so the first member
    of each orbit to arrive is its canonical form: keeping exactly the
    canonical alphas keeps the first-arrival order.  Consecutive canonical
    alphas share leading slots, so t^alpha is expanded through a prefix
    stack: ``prefix[k]`` is the product of t_j^alpha_j over the slots
    j < k of the last alpha expanded, and only the slots from the first
    one where the new alpha differs are multiplied out again.
    """
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a non-negative int")
    if order > MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"refusing to enumerate order {order}: "
            f"the guard is {MAX_ENUMERATION_ORDER}"
        )
    orbits = OrbitTable(t_slot_action())
    basis = triangular_basis()
    prefix = [polyring.constant(1)] * (N_TRIANGULAR + 1)
    previous: MultiIndex | None = None
    by_totals: dict[tuple, tuple[MultiIndex, dict]] = {}
    for alpha in polyring.compositions(order, N_TRIANGULAR):
        if orbits.canonical(alpha) != alpha:
            continue
        start = 0
        if previous is not None:
            while alpha[start] == previous[start]:
                start += 1
        for k in range(start, N_TRIANGULAR):
            product = prefix[k]
            for _ in range(alpha[k]):
                product = product * basis[k]
            prefix[k + 1] = product
        previous = alpha
        totals = orbit_totals(prefix[N_TRIANGULAR])
        by_totals.setdefault(tuple(sorted(totals.items())), (alpha, totals))
    return [
        (alpha, {c: normalize_coeff(Fraction(total, len(orbit(c))))
                 for c, total in totals.items()})
        for alpha, totals in by_totals.values()
    ]


def format_alpha(alpha: Sequence[int]) -> str:
    """Render a multi-index as four 3-digit groups, e.g. '011,021,201,112'."""
    alpha = check_multi_index(alpha)
    groups = ["".join(str(e) for e in alpha[i : i + 3]) for i in range(0, 12, 3)]
    return ",".join(groups)


def sym_average_of_values(values: Sequence[Coeff], exponents: Sequence[int]) -> Coeff:
    """Numeric av[t^alpha] at a concrete point, bypassing expansion.

    Evaluates the twelve slacks at the point, then averages the monomial
    over the 24 permuted points.  Serves as an independent route when
    testing the expanded polynomials.
    """
    alpha = check_multi_index(exponents)
    basis = triangular_basis()
    total: Coeff = 0
    for i in range(GROUP_ORDER):
        point = symmetry.permute_tuple(values, i)
        slacks = [t.evaluate(point) for t in basis]
        term: Coeff = 1
        for slack, exponent in zip(slacks, alpha):
            if exponent:
                term *= slack ** exponent
        total += term
    return polyring.normalize_coeff(Fraction(total) / 24)
