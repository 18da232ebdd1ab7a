"""Exact sparse polynomial arithmetic in the six distance variables.

Everything downstream works in the ring Q[a, b, c, x, y, z], where the six
variables stand for the pairwise distances of four labelled points: a, b, c
are the distances from the fourth point to the first three, and x, y, z are
the distances among the first three.  A polynomial is stored as a mapping
from exponent vectors (6-tuples of non-negative ints, fixed variable order
``a b c x y z``) to nonzero rational coefficients.

Coefficients are plain Python ints whenever the value is integral and
``fractions.Fraction`` otherwise; arithmetic is exact, nothing ever rounds.
The int fast path matters: the certificate residuals push tens of millions
of coefficient merges through these dicts, and integer adds are several
times cheaper than Fraction adds.

``Poly`` values are immutable by convention: no public operation mutates an
existing instance, and the ``terms`` dict of a constructed polynomial must
be treated as read-only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Coeff = Union[int, Fraction]
Mono = tuple[int, int, int, int, int, int]

N_VARS = 6
VAR_NAMES = ("a", "b", "c", "x", "y", "z")
_VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
_ZERO_MONO: Mono = (0, 0, 0, 0, 0, 0)


def normalize_coeff(value: Coeff) -> Coeff:
    """Collapse a Fraction with denominator 1 to a plain int."""
    if type(value) is Fraction:
        if value.denominator == 1:
            return value.numerator
        return value
    return value


def mono_key(mono: Mono) -> tuple[int, Mono]:
    """Graded-lexicographic sort key: total degree first, then exponents."""
    return (sum(mono), mono)


class Poly:
    """An element of Q[a, b, c, x, y, z], stored sparsely.

    Supports ``+``, ``-``, ``*`` (by polynomial or scalar) and ``**`` with a
    non-negative int exponent.  Construct via :func:`variable`,
    :func:`constant` or :func:`from_terms` rather than calling the
    constructor with a raw dict.
    """

    __slots__ = ("terms", "_key")

    def __init__(self, terms: Mapping[Mono, Coeff] | None = None):
        normalized: dict[Mono, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != N_VARS or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono!r}")
                coeff = normalize_coeff(coeff)
                if coeff:
                    normalized[mono] = coeff
        self.terms = normalized
        self._key: tuple | None = None

    @classmethod
    def _raw(cls, terms: dict[Mono, Coeff]) -> "Poly":
        """Wrap an already-normalized dict without copying.  Internal."""
        poly = cls.__new__(cls)
        poly.terms = terms
        poly._key = None
        return poly

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True if every term has the same total degree.

        The zero polynomial counts as homogeneous of every degree.  When
        ``degree`` is given, additionally require that common degree to
        equal it.
        """
        if not self.terms:
            return True
        degrees = {sum(m) for m in self.terms}
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

    def sorted_terms(self) -> list[tuple[Mono, Coeff]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda item: mono_key(item[0]), reverse=True)

    def canonical_key(self) -> tuple:
        """A hashable value equal for equal polynomials; cached."""
        if self._key is None:
            self._key = tuple(self.sorted_terms())
        return self._key

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        result = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = result.get(mono, 0) + coeff
            if total:
                result[mono] = normalize_coeff(total)
            elif mono in result:
                del result[mono]
        return Poly._raw(result)

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        result = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = result.get(mono, 0) - coeff
            if total:
                result[mono] = normalize_coeff(total)
            elif mono in result:
                del result[mono]
        return Poly._raw(result)

    def __mul__(self, other: "Poly | Coeff") -> "Poly":
        if isinstance(other, Poly):
            return self._mul_poly(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: "Coeff") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar: Coeff) -> "Poly":
        # Symmetric polynomials repeat few coefficient values over many
        # monomials, so each distinct product is computed once.
        scalar = normalize_coeff(scalar)
        if not scalar:
            return Poly._raw({})
        products: dict[Coeff, Coeff] = {}
        result: dict[Mono, Coeff] = {}
        for mono, coeff in self.terms.items():
            product = products.get(coeff)
            if product is None:
                product = products[coeff] = normalize_coeff(coeff * scalar)
            result[mono] = product
        return Poly._raw(result)

    def _mul_poly(self, other: "Poly") -> "Poly":
        # Iterate the smaller factor on the outside: fewer dict rebuilds.
        left, right = self.terms, other.terms
        if len(left) > len(right):
            left, right = right, left
        result: dict[Mono, Coeff] = {}
        get = result.get
        for m1, c1 in left.items():
            e1 = m1
            for m2, c2 in right.items():
                mono = (
                    e1[0] + m2[0],
                    e1[1] + m2[1],
                    e1[2] + m2[2],
                    e1[3] + m2[3],
                    e1[4] + m2[4],
                    e1[5] + m2[5],
                )
                total = get(mono, 0) + c1 * c2
                if total:
                    result[mono] = total
                elif mono in result:
                    del result[mono]
        for mono, coeff in result.items():
            if type(coeff) is Fraction and coeff.denominator == 1:
                result[mono] = coeff.numerator
        return Poly._raw(result)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take a non-negative int exponent")
        result = constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation ------------------------------------------------------

    def evaluate(self, values: Iterable[Coeff]) -> Coeff:
        """Exact evaluation at rational values, order ``a b c x y z``."""
        point = tuple(values)
        if len(point) != N_VARS:
            raise ValueError(f"expected {N_VARS} values, got {len(point)}")
        total: Coeff = 0
        for mono, coeff in self.terms.items():
            term = coeff
            for base, exp in zip(point, mono):
                if exp:
                    term *= base ** exp
            total += term
        return normalize_coeff(total)

    def evaluate_float(self, values: Iterable[float]) -> float:
        """Floating-point evaluation, order ``a b c x y z``."""
        point = tuple(float(v) for v in values)
        if len(point) != N_VARS:
            raise ValueError(f"expected {N_VARS} values, got {len(point)}")
        total = 0.0
        for mono, coeff in self.terms.items():
            term = float(coeff)
            for base, exp in zip(point, mono):
                if exp:
                    term *= base ** exp
            total += term
        return total

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        parts = []
        for mono, coeff in self.sorted_terms()[:4]:
            factors = [
                f"{VAR_NAMES[i]}^{e}" if e > 1 else VAR_NAMES[i]
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{coeff}*{body}")
        tail = " + ..." if len(self.terms) > 4 else ""
        return f"Poly({' + '.join(parts)}{tail})"


# -- constructors ----------------------------------------------------------


def zero() -> Poly:
    return Poly._raw({})


def constant(value: Coeff) -> Poly:
    value = normalize_coeff(value)
    if not value:
        return Poly._raw({})
    return Poly._raw({_ZERO_MONO: value})


def variable(name_or_index: str | int) -> Poly:
    """The polynomial for a single variable, by name ('a'..'z') or index."""
    if isinstance(name_or_index, str):
        if name_or_index not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name_or_index!r}")
        index = _VAR_INDEX[name_or_index]
    else:
        index = name_or_index
        if not 0 <= index < N_VARS:
            raise ValueError(f"variable index {index} out of range")
    mono = tuple(1 if i == index else 0 for i in range(N_VARS))
    return Poly._raw({mono: 1})


def variables() -> tuple[Poly, ...]:
    """The six variable polynomials in order (a, b, c, x, y, z)."""
    return tuple(variable(i) for i in range(N_VARS))


def from_terms(terms: Mapping[Mono, Coeff]) -> Poly:
    return Poly(terms)


def monomial(mono: Mono, coeff: Coeff = 1) -> Poly:
    return Poly({tuple(mono): coeff})


# -- enumeration -----------------------------------------------------------


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to ``total``.

    Emitted in lexicographically descending order with the leftmost slot
    most significant, so the output order is deterministic.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail
