"""The permutation action of relabelling the four points.

Relabelling the four points permutes the six pairwise distances
(a, b, c, x, y, z).  The 24 resulting distance permutations are tabulated
below, together with a sign for each row; a polynomial is *symmetric* when
every row fixes it and *skew-symmetric* when row i multiplies it by the
row's sign.

The signs are table data, not the parity of the 6-letter permutation: a
transposition of two points is odd even though the induced permutation of
the six distances can be even.  ``self_test`` re-derives the group
structure (closure, inverses, sign homomorphism) from the table itself, so
a transcription slip in either the rows or the signs cannot survive the
test suite.

``OrbitTable`` is the one place orbit canonical forms are computed, for
the six distance exponents here and for the twelve triangular-variable
exponents in ``catalog``.  A symmetric polynomial is fixed by its
coefficients on the orbit-canonical monomials (Gatermann & Parrilo,
"Symmetry groups, semidefinite programs, and sums of squares", 2004).
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Sequence, TypeVar

from .polyring import Coeff, Mono, N_VARS, Poly, normalize_coeff

_T = TypeVar("_T")

# Row i lists which distance lands in each slot after the i-th relabelling
# of the points; slot order is (a, b, c, x, y, z).
_ROW_SPEC = (
    "a b c x y z",
    "a x z b y c",
    "b c a y z x",
    "x b y a c z",
    "c a b z x y",
    "z y c x b a",
    "y z c x a b",
    "c b a y x z",
    "x y b z c a",
    "a c b z y x",
    "z x a y b c",
    "b a c x z y",
    "z c y a b x",
    "x z a y c b",
    "x a z b c y",
    "y x b z a c",
    "y b x c a z",
    "y c z b a x",
    "c y z b x a",
    "z a x c b y",
    "b x y a z c",
    "c z y a x b",
    "a z x c y b",
    "b y x c z a",
)

_NAME_TO_INDEX = {"a": 0, "b": 1, "c": 2, "x": 3, "y": 4, "z": 5}

#: ROWS[i][k] = index of the variable occupying slot k in row i.
ROWS: tuple[tuple[int, ...], ...] = tuple(
    tuple(_NAME_TO_INDEX[name] for name in spec.split()) for spec in _ROW_SPEC
)

#: Sign attached to row i: +1 for even i, -1 for odd i.
SIGNS: tuple[int, ...] = tuple(1 if i % 2 == 0 else -1 for i in range(24))

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


def orbit_totals(poly: Poly) -> dict[Mono, Coeff]:
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


#: A symmetric polynomial in orbit form: orbit-canonical monomial -> its
#: coefficient there, which is the coefficient on every member of the orbit.
OrbitVector = dict[Mono, Coeff]


def orbit(mono: Mono) -> tuple[Mono, ...]:
    """Every monomial in the orbit of ``mono``, ``mono`` included."""
    members = _MONOMIALS.members.get(mono)  # found at once for a canonical mono
    if members is None:
        members = _MONOMIALS.members[orbit_canonical(mono)]
    return members


def _spread(totals: Mapping[Mono, Coeff], weight: Callable[[int], Coeff]) -> Poly:
    """Write weight(|orbit(c)|) * totals[c] to every member of each orbit c."""
    result: dict[Mono, Coeff] = {}
    for canonical, total in totals.items():
        members = orbit(canonical)
        value = normalize_coeff(weight(len(members)) * total)
        for mono in members:
            result[mono] = value
    return Poly._raw(result)


def spread(vector: Mapping[Mono, Coeff]) -> Poly:
    """Write out an orbit vector: vector[c] on every member of each orbit c."""
    return _spread(vector, lambda size: 1)


def orbit_sum(poly: Poly) -> Poly:
    """Sum of the 24 permuted images of ``poly`` (24 times the average).

    Computed by orbit rather than by image: for a monomial n whose orbit
    has canonical monomial c,

        orbit_sum(p)[n] = |Stab(c)| * sum(p[m] for m in orbit(c)),

    with |Stab(c)| = 24 / |orbit(c)|, because the 24 rows carry each
    monomial of the orbit onto n exactly |Stab(c)| times.  So each input
    term costs one table lookup and one add, and each orbit one write per
    member.
    """
    return _spread(orbit_totals(poly), lambda size: GROUP_ORDER // size)


def average_of_totals(totals: Mapping[Mono, Coeff]) -> Poly:
    """The symmetric average whose :func:`orbit_totals` are ``totals``.

    The average is orbit_sum / 24, so member n of orbit(c) gets
    |Stab(c)| * totals[c] / 24 = totals[c] / |orbit(c)|.
    """
    return _spread(totals, lambda size: Fraction(1, size))


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
