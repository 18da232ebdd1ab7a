"""The permutation action of relabelling the four points.

Relabelling the four points permutes the six pairwise distances
(a, b, c, x, y, z), whose edges are ``polyring.EDGES``.  The 24 rows are
derived from the 24 orderings sigma of the points, in
``itertools.permutations(range(4))`` order, the identity first: the row
of sigma sends the slot of the edge {p, q} to the slot of the edge
{sigma(p), sigma(q)}.  A row acts as the relabelling itself, not its
inverse: if u holds the distances of points P0..P3, then
``permute_tuple(u, i)`` holds the distances of P[sigma(0)]..P[sigma(3)].
(The inverses give the same 24 rows in another order.)

Each row's sign is the parity of its sigma.  Re At = d4 is fixed by every
relabelling and Im At changes sign under an odd one, so a polynomial is
*symmetric* when every row fixes it and *skew-symmetric* when each row
multiplies it by the row's sign, as w4 and v4 do.  ``self_test`` checks
the group structure of the derived rows (closure, inverses, sign
homomorphism).

``OrbitTable`` is the one place orbit canonical forms are computed, for
the six distance exponents here and for the twelve triangular-variable
exponents in ``catalog``.  A symmetric polynomial is fixed by its orbit
totals, one per orbit-canonical monomial (Gatermann & Parrilo, "Symmetry
groups, semidefinite programs, and sums of squares", 2004): they are the
one orbit form of the package, which ``certify`` compares and the linear
programs of ``lp`` are written in (:func:`orbit_totals`).  They stand
for the polynomial itself only when it is symmetric, so a polynomial
taken as symmetric enters orbit form through one door,
:func:`symmetric_totals`.  Products are taken in that form too
(:func:`product_totals`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from operator import itemgetter
from typing import Callable, Mapping, Sequence, TypeVar

from .polyring import EDGES, Coeff, Mono, N_VARS, Poly, normalize_coeff
from .polyring import pack_width, packed_product, unpack

_T = TypeVar("_T")

_SLOT_OF_EDGE = {frozenset(edge): k for k, edge in enumerate(EDGES)}
_RELABELLINGS = tuple(permutations(range(4)))

#: ROWS[i][k] = index of the variable occupying slot k after the i-th
#: relabelling sigma: the edge {sigma(p), sigma(q)} for slot k's edge {p, q}.
ROWS: tuple[tuple[int, ...], ...] = tuple(
    tuple(_SLOT_OF_EDGE[frozenset((sigma[p], sigma[q]))] for p, q in EDGES)
    for sigma in _RELABELLINGS
)

#: Sign of row i: the parity of its relabelling sigma.  EDGES lists each
#: pair p < q once, so its inversions are the edges sigma puts out of order.
SIGNS: tuple[int, ...] = tuple(
    (-1) ** sum(sigma[p] > sigma[q] for p, q in EDGES) for sigma in _RELABELLINGS
)

GROUP_ORDER = 24


def _check_row_index(index: int) -> None:
    if not 0 <= index < GROUP_ORDER:
        raise IndexError(f"permutation index {index} out of range 0..23")


def permute_mono(mono: tuple[int, ...], row: tuple[int, ...]) -> tuple[int, ...]:
    """Push an exponent vector through one row: slot k moves to slot row[k].

    Works for any number of slots, so the same routine moves the six
    distance exponents and the twelve triangular-variable exponents.
    """
    out = [0] * len(row)
    for k, target in enumerate(row):
        out[target] = mono[k]
    return tuple(out)


def permute_tuple(values: Sequence[_T], index: int) -> tuple[_T, ...]:
    """Numeric counterpart of :func:`apply_perm`.

    Returns the tuple whose k-th entry is the value of the variable named
    in slot k of the row, so that
    ``apply_perm(p, i).evaluate(u) == p.evaluate(permute_tuple(u, i))``.
    """
    _check_row_index(index)
    row = ROWS[index]
    return tuple(values[row[k]] for k in range(N_VARS))


def apply_perm(poly: Poly, index: int) -> Poly:
    """Substitute variables according to row ``index`` of the table."""
    _check_row_index(index)
    row = ROWS[index]
    result: dict[Mono, Coeff] = {}
    for mono, coeff in poly.terms.items():
        result[permute_mono(mono, row)] = coeff
    return Poly._raw(result)


class OrbitTable:
    """Orbits of exponent vectors under a group of slot permutations.

    ``rows`` lists the group elements in the form :func:`permute_mono`
    takes.  The canonical form of an orbit is its lexicographically largest
    member (for monomials of one degree that is also the graded-lex
    largest).  The table is filled lazily, one whole orbit per miss, so an
    orbit costs one image per row once and each later lookup one dict get.
    """

    __slots__ = ("rows", "images", "canonical_of", "members")

    def __init__(self, rows: Sequence[tuple[int, ...]]) -> None:
        self.rows = rows
        self.images: list[Callable[[tuple[int, ...]], tuple[int, ...]]] = []
        self.canonical_of: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.members: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def canonical(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical form of the orbit of ``point``."""
        canonical = self.canonical_of.get(point)
        if canonical is None:
            if not self.images:
                # permute_mono moves slot k to slot row[k], so slot t of an
                # image reads slot inverse[t]: one itemgetter per row fetches
                # a whole image in one call (rows move at least two slots,
                # so each getter returns a tuple).
                self.images = [
                    itemgetter(*sorted(range(len(row)), key=row.__getitem__))
                    for row in self.rows
                ]
            images = {image(point) for image in self.images}
            canonical = max(images)
            self.members[canonical] = tuple(images)
            for image in images:
                self.canonical_of[image] = canonical
        return canonical


# The orbits of the six distance exponents.  A pure function of ROWS, so
# every caller sees the same answers; importing builds nothing.
_MONOMIALS = OrbitTable(ROWS)


def orbit_canonical(mono: Mono) -> Mono:
    """Graded-lex-maximal exponent vector in the orbit of ``mono``."""
    return _MONOMIALS.canonical(mono)


#: A polynomial in orbit form: orbit-canonical monomial c -> its orbit
#: total sum(p[m] for m in orbit(c)), zero totals left out.
OrbitVector = dict[Mono, Coeff]


def orbit_totals(poly: Poly) -> OrbitVector:
    """The orbit-compressed form of ``poly``.

    Maps each orbit-canonical monomial c to sum(p[m] for m in orbit(c));
    orbits whose total is zero are left out.  Every orbit sum and every
    symmetric average of ``poly`` is a function of these totals alone
    (Gatermann & Parrilo, 2004): see :func:`orbit_sum` and
    :func:`average_of_totals`.  So a symmetric T equals the average of P
    exactly when the two have equal totals, which is how ``certify``
    checks its identities without writing an average out.
    """
    totals: dict[Mono, Coeff] = {}
    get = totals.get
    for mono, coeff in poly.terms.items():
        canonical = orbit_canonical(mono)
        totals[canonical] = get(canonical, 0) + coeff
    return {c: normalize_coeff(total) for c, total in totals.items() if total}


class ConstructionError(ValueError):
    """A polynomial taken as symmetric is not: a fault in how it was built, not in the input."""


def symmetric_totals(label: str, poly: Poly) -> OrbitVector:
    """``orbit_totals(poly)``, the one door into orbit form for a polynomial taken as symmetric.

    An asymmetric ``poly`` is refused with ``"<label> is not symmetric"``:
    its totals fix only its average, so a skew part averaging to zero
    would pass unseen.
    """
    if not is_symmetric(poly):
        raise ConstructionError(f"{label} is not symmetric")
    return orbit_totals(poly)


def packed_totals(terms: Mapping[int, Coeff], width: int) -> OrbitVector:
    """The orbit totals of a polynomial on keys packed at ``width``, each key unpacked once."""
    totals: dict[Mono, Coeff] = {}
    get = totals.get
    for key, coeff in terms.items():
        canonical = orbit_canonical(unpack(key, width))
        totals[canonical] = get(canonical, 0) + coeff
    return {c: normalize_coeff(total) for c, total in totals.items() if total}


def product_totals(f_totals: Mapping[Mono, Coeff], g_totals: Mapping[Mono, Coeff]) -> OrbitVector:
    """``orbit_totals(f * g)`` from ``orbit_totals(f)`` and the totals of a symmetric g.

    g is written out as ``average_of_totals(g_totals)``, symmetric by
    construction.  Each orbit of f stands in for all its members: for every
    canonical r of ``f_totals`` and every term m of g, f_totals[r] * g[m]
    is added into the total of orbit(r + m).  Only g must be symmetric.

    Why this is exact: the total of orbit(c) in f g sums f[m1] g[m2] over
    the pairs with m1 + m2 in orbit(c).  Take a pair with m1 = sigma r,
    r canonical.  Applying sigma^-1 sends it to the pair (r, sigma^-1 m2):
    the orbit of the sum is kept, and so is g's coefficient, because g is
    symmetric.  As m2 runs over all monomials so does sigma^-1 m2, so the
    pairs led by m1 contribute f[m1] times the same sum S(r, c) of g over
    {m : r + m in orbit(c)} as the pairs led by r.  Summed over orbit(r),
    f contributes f_totals[r] * S(r, c), which is what the loop adds.

    So a product costs (orbits of f) x (terms of g) pair products on packed
    keys, against (terms of f) x (terms of g) to expand it, and the product
    itself is never built (:func:`packed_totals`).  When both factors are
    symmetric, the caller puts the one with fewer orbits on the f side.
    """
    if not f_totals or not g_totals:
        return {}
    g = average_of_totals(g_totals)
    width = pack_width(max(map(sum, f_totals)) + g.degree())
    return packed_totals(packed_product(f_totals, g.terms, width), width)


def orbit(mono: Mono) -> tuple[Mono, ...]:
    """Every monomial in the orbit of ``mono``, ``mono`` included."""
    members = _MONOMIALS.members.get(mono)  # found at once for a canonical mono
    if members is None:
        members = _MONOMIALS.members[orbit_canonical(mono)]
    return members


def orbit_sum(poly: Poly) -> Poly:
    """Sum of the 24 permuted images of ``poly`` (24 times the average).

    Computed by orbit rather than by image: for a monomial n whose orbit
    has canonical monomial c,

        orbit_sum(p)[n] = |Stab(c)| * sum(p[m] for m in orbit(c)),

    with |Stab(c)| = 24 / |orbit(c)|, because the 24 rows carry each
    monomial of the orbit onto n exactly |Stab(c)| times.  That is 24
    times the symmetric average, which is computed by orbit.
    """
    return sym_average(poly).scale(GROUP_ORDER)


def average_of_totals(totals: Mapping[Mono, Coeff]) -> Poly:
    """The symmetric average whose :func:`orbit_totals` are ``totals``.

    The average is orbit_sum / 24, so member n of orbit(c) gets
    |Stab(c)| * totals[c] / 24 = totals[c] / |orbit(c)|.
    """
    result: dict[Mono, Coeff] = {}
    for canonical, total in totals.items():
        members = orbit(canonical)
        value = normalize_coeff(Fraction(total, len(members)))
        for mono in members:
            result[mono] = value
    return Poly._raw(result)


def sym_average(poly: Poly) -> Poly:
    """The symmetric average: mean of the 24 permuted images."""
    return average_of_totals(orbit_totals(poly))


def is_symmetric(poly: Poly) -> bool:
    """True iff every table row fixes the polynomial.

    The rows fix a polynomial exactly when its coefficient is constant on
    each orbit, so this compares every member of each orbit the support
    meets with that orbit's canonical coefficient: one lookup per term of
    a symmetric input instead of 24 permuted images.
    """
    terms = poly.terms
    canonicals = {orbit_canonical(mono) for mono in terms}
    return all(
        terms.get(mono) == terms.get(canonical)
        for canonical in canonicals
        for mono in _MONOMIALS.members[canonical]
    )


def is_skew_symmetric(poly: Poly) -> bool:
    """True iff row i carries the polynomial to sign(i) times itself."""
    neg = -poly
    for i in range(GROUP_ORDER):
        expected = poly if SIGNS[i] == 1 else neg
        if apply_perm(poly, i) != expected:
            return False
    return True


_ROW_LOOKUP = {row: i for i, row in enumerate(ROWS)}


def self_test() -> dict[str, int]:
    """Re-derive the group structure from the table; raise on any defect.

    Checks: the 24 rows are distinct bijections of the six slots, the set
    is closed under composition, every row has an inverse in the set, the
    signs form a homomorphism to {+1, -1}, and exactly half the rows carry
    each sign.  Returns a small summary for reporting.
    """
    if len(_ROW_LOOKUP) != GROUP_ORDER:
        raise ValueError("permutation table contains duplicate rows")
    for i, row in enumerate(ROWS):
        if sorted(row) != list(range(N_VARS)):
            raise ValueError(f"row {i} is not a permutation of the six slots")
    if SIGNS.count(1) != 12 or SIGNS.count(-1) != 12:
        raise ValueError("signs must split 12 even / 12 odd")
    identity_hits = 0
    for i in range(GROUP_ORDER):
        inverse_found = False
        for j in range(GROUP_ORDER):
            combined = tuple(ROWS[j][ROWS[i][k]] for k in range(N_VARS))
            if combined not in _ROW_LOOKUP:
                raise ValueError(f"composition of rows {i} and {j} leaves the table")
            k = _ROW_LOOKUP[combined]
            if SIGNS[k] != SIGNS[i] * SIGNS[j]:
                raise ValueError(f"sign homomorphism fails on rows {i} and {j}")
            if k == 0:
                inverse_found = True
                identity_hits += 1
        if not inverse_found:
            raise ValueError(f"row {i} has no inverse in the table")
    return {
        "order": GROUP_ORDER,
        "even_rows": SIGNS.count(1),
        "identity_compositions": identity_hits,
    }
