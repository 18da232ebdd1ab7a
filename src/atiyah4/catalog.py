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
  monomials, the last two by their orbit totals (the orbit form of
  ``symmetry.orbit_totals``), which fix their averages.

All constructions are cached; treat every returned Poly as immutable.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from . import polyring
from .polyring import Coeff, Mono, Poly
from .symmetry import ROWS, OrbitTable, OrbitVector, orbit_canonical, packed_totals, sym_average
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
    when the triangle inequality holds.  It also evaluates at numbers.
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


def face_product(v: Sequence) -> Poly:
    """Product over the faces of 8pqr + triple_factor(p, q, r), at Polys or numbers."""
    return math.prod(
        8 * v[i] * v[j] * v[k] + triple_factor(v[i], v[j], v[k]) for i, j, k in polyring.FACES
    )


@cache
def big_p4() -> Poly:
    """Product of the four 3-point determinants, one per face."""
    return face_product(polyring.variables())


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

    Derived from the four points, as ``symmetry.ROWS`` is from the edges:
    slot k is a face of ``polyring.FACES`` with the side its slack negates,
    in the order of :func:`triangular_basis`.  A relabelling carries a face
    to a face and a side to a side, so row i sends the slot (face, side) to
    the slot (ROWS[i] of the face, ROWS[i][side]).
    """
    slots = [(frozenset(face), side) for face in polyring.FACES for side in face]
    index = {slot: k for k, slot in enumerate(slots)}
    return tuple(
        tuple(index[frozenset(row[v] for v in face), row[side]] for face, side in slots)
        for row in ROWS
    )


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


def t_combination(terms: Iterable[tuple[Sequence[int], Coeff]]) -> OrbitVector:
    """The orbit totals of sum(lam * t^alpha) over a table, by a Horner scheme over slots.

    Rows are grouped by their slot-1 exponent and each group's slots 2-12
    are summed the same way.  Walking the exponents downwards, each step
    down multiplies the running sum by t1 and the next group's sum is
    added after the step's last multiply; the final sum is multiplied by
    t1 to the least exponent.  For exponents 3 and 1 that is
    (S3 t1^2 + S1) t1: t_k is multiplied in once per unit step, never once
    per row.  All products run on packed keys at the width of the largest
    row order (``_times_form``, which adds a step's last product straight
    into the next group's sum), and the sum is folded by orbit on its
    packed keys (``symmetry.packed_totals``).
    """
    rows = [(check_multi_index(alpha), lam) for alpha, lam in terms]
    if not rows:
        return {}
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

    return packed_totals(horner(rows, 0), width)


def enumerate_T(order: int) -> list[tuple[MultiIndex, OrbitVector]]:
    """All distinct averaged monomials av[t^alpha] with |alpha| = order.

    Returns (alpha, orbit vector) pairs where alpha is the orbit-canonical
    representative, deduplicated so that no two returned averages are
    equal, in a deterministic order.  The orbit vector holds the int orbit
    totals of t^alpha, which av[t^alpha] shares: each orbit-canonical
    monomial c of degree ``order`` maps to sum(t^alpha[m] for m in
    orbit(c)), zero totals left out, as in ``symmetry.orbit_totals``;
    ``symmetry.average_of_totals`` writes av[t^alpha] out as a Poly.
    Multi-indices in the same orbit of the slot action provably average to
    the same polynomial, so only one representative per orbit is expanded.

    The walk lists each alpha as a multiset of ``order`` slots, in the
    ascending order of ``itertools.combinations_with_replacement``: that
    is descending lex order of alpha, since where two multisets first
    differ the earlier holds one more of the smaller slot.  So through one
    ``symmetry.OrbitTable`` each orbit arrives first at its canonical (lex
    largest) alpha, and keeping the alphas the table fixes keeps the
    first-arrival order.  The slot action is transitive, so a canonical
    alpha holds slot 0 and the walk stops at the first multiset without it.

    Products are taken on packed monomial keys (``polyring.pack``) at the
    width that holds every exponent up to ``order``, so adding two keys
    multiplies two monomials without a carry.  Each t_k is a 3-term
    linear form of key offsets, and the product of all but the last slot's
    forms is kept on a prefix stack: ``prefix[i]`` is the product over the
    first i slots of the last multiset expanded, and only the positions
    from the first one where the new multiset differs are multiplied out
    again.

    The last slot is never multiplied out: each term of ``prefix[order -
    1]`` adds its three shifted coefficients straight into a list of orbit
    totals, through a map from each degree-order key to its orbit's index,
    built once per call.  Equality is decided on that list, which is
    exact: two alphas have equal averages exactly when they have equal
    totals.
    """
    if type(order) is not int or order < 0:
        raise ValueError("order must be a non-negative int")
    if order > MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"refusing to enumerate order {order}: "
            f"the guard is {MAX_ENUMERATION_ORDER}"
        )
    if order == 0:
        return [((0,) * N_TRIANGULAR, {(0,) * polyring.N_VARS: 1})]
    orbits = OrbitTable(t_slot_action())
    width = polyring.pack_width(order)
    forms = _packed_forms(width)
    canonical_of: dict[int, int] = {}  # packed monomial -> packed canonical
    monomial_of: dict[int, Mono] = {}  # packed canonical -> canonical monomial
    for factors in combinations_with_replacement(range(polyring.N_VARS), order):
        mono = _counts(factors, polyring.N_VARS)
        canonical = orbit_canonical(mono)
        key = canonical_of[polyring.pack(mono, width)] = polyring.pack(canonical, width)
        monomial_of[key] = canonical
    keys = sorted(monomial_of)
    position = {key: i for i, key in enumerate(keys)}
    orbit_of = {key: position[canonical] for key, canonical in canonical_of.items()}
    prefix: list[dict[int, int]] = [{0: 1}] * order
    previous: tuple[int, ...] = ()
    by_totals: dict[tuple[int, ...], MultiIndex] = {}
    for slots in combinations_with_replacement(range(N_TRIANGULAR), order):
        if slots[0]:
            break  # the rest hold no t1, so none is canonical
        alpha = _counts(slots, N_TRIANGULAR)
        if orbits.canonical(alpha) != alpha:
            continue
        start = 0
        while start < len(previous) and slots[start] == previous[start]:
            start += 1
        for i in range(start, order - 1):
            prefix[i + 1] = _times_form(prefix[i], forms[slots[i]])
        previous = slots
        (d1, c1), (d2, c2), (d3, c3) = forms[slots[-1]]
        totals = [0] * len(keys)
        for key, coeff in prefix[order - 1].items():
            totals[orbit_of[key + d1]] += c1 * coeff
            totals[orbit_of[key + d2]] += c2 * coeff
            totals[orbit_of[key + d3]] += c3 * coeff
        by_totals.setdefault(tuple(totals), alpha)
    return [
        (alpha, {monomial_of[key]: total for key, total in zip(keys, totals) if total})
        for totals, alpha in by_totals.items()
    ]


def _counts(slots: tuple[int, ...], parts: int) -> tuple[int, ...]:
    """How often each of ``parts`` slots occurs in a multiset of slots."""
    counts = [0] * parts
    for slot in slots:
        counts[slot] += 1
    return tuple(counts)


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
