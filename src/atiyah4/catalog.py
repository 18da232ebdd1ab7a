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
  over a table, and the family ``T_ell`` of all averaged order-``ell``
  monomials, as orbit vectors.

All constructions are cached; treat every returned Poly as immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from . import polyring
from .polyring import Coeff, Mono, Poly
from .symmetry import (
    GROUP_ORDER,
    OrbitTable,
    OrbitVector,
    apply_perm,
    orbit,
    orbit_canonical,
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
    """(-p+q+r) (p-q+r) (p+q-r), the shared shape of the face products.

    On side lengths p, q, r it is 16 (area)^2 / (p + q + r) by Heron's
    formula; what matters downstream is only that it is nonnegative exactly
    when the triangle inequality holds.
    """
    return (-p + q + r) * (p - q + r) * (p + q - r)


@cache
def d3() -> Poly:
    """The triangle polynomial of the face (x, y, z)."""
    return triple_factor(X, Y, Z)


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
    v = polyring.variables()
    return math.prod(
        8 * v[i] * v[j] * v[k] + triple_factor(v[i], v[j], v[k]) for i, j, k in polyring.FACES
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
    """Registry of every named polynomial, for the command-line ``eval``."""
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

    Three slots per face of ``polyring.FACES``: (a, b, x), (b, c, y),
    (a, c, z), then (x, y, z).  Inside a face, the slack that negates a
    side is the sum of the face's sides minus twice that side, taken in
    the face's order.
    """
    v = polyring.variables()
    return tuple(
        v[i] + v[j] + v[k] - 2 * v[negated] for i, j, k in polyring.FACES for negated in (i, j, k)
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
    if any(type(e) is not int or e < 0 for e in alpha):
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
    """Expand sum(lam * t^alpha) over a table as a Horner scheme over slots.

    Rows are grouped by their slot-1 exponent and each group's slots 2-12
    are summed the same way.  Walking the exponents downwards, each step
    down multiplies the running sum by t1 and the next group's sum is
    added after the step's last multiply; the final sum is multiplied by
    t1 to the least exponent.  For exponents 3 and 1 that is
    (S3 t1^2 + S1) t1: t_k is multiplied in once per unit step, never once
    per row.  All products run on packed keys at the width of the largest
    row order (``_times_form``, which adds a step's last product straight
    into the next group's sum), and the total is unpacked once.
    """
    rows = [(check_multi_index(alpha), lam) for alpha, lam in terms]
    if not rows:
        return polyring.zero()
    width = polyring.pack_width(max(sum(alpha) for alpha, _ in rows))
    forms = _packed_forms(width)

    def horner(rows: list[tuple[MultiIndex, Coeff]], slot: int) -> dict[int, Coeff]:
        if slot == N_TRIANGULAR:  # the rows left share one alpha
            return {0: sum(lam for _, lam in rows)}
        groups: dict[int, list[tuple[MultiIndex, Coeff]]] = {}
        for row in rows:
            groups.setdefault(row[0][slot], []).append(row)
        form = forms[slot]
        exponents = sorted(groups, reverse=True)
        above = exponents[0]
        total = horner(groups[above], slot + 1)
        for exponent in exponents[1:]:
            for _ in range(above - exponent - 1):
                total = _times_form(total, form)
            total = _times_form(total, form, horner(groups[exponent], slot + 1))
            above = exponent
        for _ in range(above):
            total = _times_form(total, form)
        return total

    return Poly._raw(polyring.unpacked(horner(rows, 0), width))


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

    The canonical alphas are found by walking ``polyring.compositions``
    in descending lex order through one ``symmetry.OrbitTable``: the first
    member of each orbit to arrive is its canonical form, so keeping
    exactly the alphas the table maps to themselves keeps the
    first-arrival order.

    Products are taken on packed monomial keys (``polyring.pack``) at the
    width that holds every exponent up to ``order``, so adding two keys
    multiplies two monomials without a carry.  Each t_k is a 3-term
    linear form of key offsets, and t^alpha is expanded through a prefix
    stack: ``prefix[k]`` is the product of t_j^alpha_j over the slots
    j < k of the last alpha expanded, and only the slots from the first
    one where the new alpha differs are multiplied out again.

    Equality is decided on the integer orbit totals of t^alpha, summed
    straight from the packed keys through a map from each degree-order
    key to its packed canonical key, built once per call.  This is
    exact: two alphas have equal averages exactly when they have equal
    totals.  A coefficient totals[c] / |orbit(c)| is an int when it
    divides and a Fraction otherwise, formed once per (total, c).
    """
    if type(order) is not int or order < 0:
        raise ValueError("order must be a non-negative int")
    if order > MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"refusing to enumerate order {order}: "
            f"the guard is {MAX_ENUMERATION_ORDER}"
        )
    orbits = OrbitTable(t_slot_action())
    width = polyring.pack_width(order)
    forms = _packed_forms(width)
    canonical_of: dict[int, int] = {}  # packed monomial -> packed canonical
    monomial_of: dict[int, Mono] = {}  # packed canonical -> canonical monomial
    for mono in polyring.compositions(order, polyring.N_VARS):
        canonical = orbit_canonical(mono)
        key = canonical_of[polyring.pack(mono, width)] = polyring.pack(canonical, width)
        monomial_of[key] = canonical
    prefix: list[dict[int, int]] = [{0: 1}] * (N_TRIANGULAR + 1)
    previous: MultiIndex | None = None
    by_totals: dict[tuple[tuple[int, int], ...], MultiIndex] = {}
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
                product = _times_form(product, forms[k])
            prefix[k + 1] = product
        previous = alpha
        totals: dict[int, int] = {}
        get = totals.get
        for key, coeff in prefix[N_TRIANGULAR].items():
            canonical = canonical_of[key]
            totals[canonical] = get(canonical, 0) + coeff
        signature = tuple(sorted(item for item in totals.items() if item[1]))
        by_totals.setdefault(signature, alpha)

    values: dict[tuple[int, int], Coeff] = {}

    def value(total: int, canonical: int) -> Coeff:
        coeff = values.get((total, canonical))
        if coeff is None:
            size = len(orbit(monomial_of[canonical]))
            coeff = total // size if total % size == 0 else Fraction(total, size)
            values[total, canonical] = coeff
        return coeff

    return [
        (alpha, {monomial_of[canonical]: value(total, canonical)
                 for canonical, total in signature})
        for signature, alpha in by_totals.items()
    ]


def _packed_forms(width: int) -> list[tuple[tuple[int, int], ...]]:
    """t1 .. t12 as 3-term linear forms of (packed key, coefficient)."""
    return [
        tuple((polyring.pack(mono, width), coeff) for mono, coeff in t.terms.items())
        for t in triangular_basis()
    ]


def _times_form(
    poly: dict[int, Coeff],
    form: tuple[tuple[int, int], ...],
    result: dict[int, Coeff] | None = None,
) -> dict[int, Coeff]:
    """A packed-key polynomial times a 3-term linear form.

    The product is added into ``result`` when it is given, else into a
    new dict; the dict written to is returned.
    """
    (d1, c1), (d2, c2), (d3, c3) = form
    if result is None:
        result = {}
    get = result.get
    for key, coeff in poly.items():
        k = key + d1
        result[k] = get(k, 0) + c1 * coeff
        k = key + d2
        result[k] = get(k, 0) + c2 * coeff
        k = key + d3
        result[k] = get(k, 0) + c3 * coeff
    return result


def format_alpha(alpha: Sequence[int]) -> str:
    """Render a multi-index as four 3-digit groups, e.g. '011,021,201,112'."""
    alpha = check_multi_index(alpha)
    groups = ["".join(str(e) for e in alpha[i : i + 3]) for i in range(0, 12, 3)]
    return ",".join(groups)
