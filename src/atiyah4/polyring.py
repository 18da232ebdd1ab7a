"""Exact sparse polynomial arithmetic in the six distance variables.

Everything downstream works in the ring Q[a, b, c, x, y, z], where the six
variables stand for the pairwise distances of four labelled points: a, b, c
are the distances from the fourth point to the first three, and x, y, z are
the distances among the first three.  A polynomial is stored as a mapping
from exponent vectors (6-tuples of non-negative ints, fixed variable order
``a b c x y z``) to nonzero rational coefficients.

Coefficients are plain Python ints whenever the value is integral and
``fractions.Fraction`` otherwise; arithmetic is exact, nothing ever rounds.

Products are taken on packed keys: :func:`pack` writes a monomial as one
int, ``width`` bits per exponent, so that adding two keys multiplies two
monomials.  A product packs each factor once, at a width taken from the
degree bound ``deg f + deg g`` (:func:`pack_width`), so no exponent sum
can carry into the next field at any degree; its inner loop is then an
int add and an int-keyed dict merge per term pair instead of a 6-tuple
built and hashed (:func:`packed_product`, which ``symmetry.product_totals``
runs as well).  The sum is unpacked to exponent tuples once, and zero
and integral-Fraction coefficients are dropped or collapsed there.

``Poly`` values are immutable by convention: no public operation mutates an
existing instance, and the ``terms`` dict of a constructed polynomial must
be treated as read-only.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Callable, Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]
Mono = tuple[int, int, int, int, int, int]

#: The coefficient types a Poly accepts, matched by exact type so that a
#: bool (an int subclass) is refused along with floats and strings.
EXACT_TYPES = (int, Fraction)

N_VARS = 6
VAR_NAMES = ("a", "b", "c", "x", "y", "z")
#: The pair of labelled points (A, B, C, D = 0..3) each variable joins, in
#: VAR_NAMES order: a = |AD|, b = |BD|, c = |CD|, x = |AB|, y = |BC|, z = |AC|.
EDGES = ((0, 3), (1, 3), (2, 3), (0, 1), (1, 2), (0, 2))
#: The three variable slots of each face (three of the four points): the
#: faces {p, q, D} over the edges among A, B, C in EDGES order (x, y, z),
#: then {A, B, C}.  So ((0, 1, 3), (1, 2, 4), (0, 2, 5), (3, 4, 5)).
FACES = tuple(
    tuple(k for k, edge in enumerate(EDGES) if set(edge) <= face)
    for face in [{p, q, 3} for p, q in EDGES if 3 not in (p, q)] + [{0, 1, 2}]
)
_ZERO_MONO: Mono = (0, 0, 0, 0, 0, 0)


def _require_exact(value: object, what: str) -> None:
    """Refuse a coefficient whose type is not exactly int or Fraction."""
    if type(value) not in EXACT_TYPES:
        raise ValueError(f"{what} {value!r}, not an int or Fraction")


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
    non-negative int exponent.  The constructor takes a mapping from
    exponent vectors to coefficients and refuses bad exponents and any
    coefficient that is not exactly an int or a Fraction; :func:`variable`,
    :func:`constant` and :func:`monomial` build the common cases.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Coeff] | None = None):
        normalized: dict[Mono, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != N_VARS or any(type(e) is not int or e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono!r}")
                _require_exact(coeff, f"term {mono!r} has coefficient")
                coeff = normalize_coeff(coeff)
                if coeff:
                    normalized[mono] = coeff
        self.terms = normalized

    @classmethod
    def _raw(cls, terms: dict[Mono, Coeff]) -> "Poly":
        """Wrap an already-normalized dict without copying.  Internal."""
        poly = cls.__new__(cls)
        poly.terms = terms
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
        return max(map(sum, self.terms))

    def sorted_terms(self) -> list[tuple[Mono, Coeff]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda item: mono_key(item[0]), reverse=True)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._merged(other, add)

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._merged(other, sub)

    def _merged(self, other: "Poly", combine: Callable[[Coeff, Coeff], Coeff]) -> "Poly":
        """``combine`` (``operator.add`` or ``sub``) of self and other, term by term.

        Other's terms are merged into a copy of self's as they stand: the
        right operand of a difference is never negated into a copy.
        """
        result = dict(self.terms)
        get = result.get
        for mono, coeff in other.terms.items():
            total = combine(get(mono, 0), coeff)
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

    __rmul__ = __mul__

    def scale(self, scalar: Coeff) -> "Poly":
        # Symmetric polynomials repeat few coefficient values over many
        # monomials, so each distinct product is computed once.
        _require_exact(scalar, "scale takes")
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
        """The product, merged on packed keys and unpacked once.

        The width holds every exponent up to ``deg f + deg g``, so no
        exponent sum carries.  The smaller factor goes on the outside; the
        larger is packed once.
        """
        outer, inner = self.terms, other.terms
        if not outer or not inner:
            return Poly._raw({})
        if len(outer) > len(inner):
            outer, inner = inner, outer
        width = pack_width(self.degree() + other.degree())
        return Poly._raw(unpacked(packed_product(outer, inner, width), width))

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take a non-negative int exponent")
        if exponent == 0:
            return constant(1)
        # Square and multiply, starting from the first factor taken.
        result = None
        base = self
        n = exponent
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- evaluation ------------------------------------------------------

    def evaluate(self, values: Iterable[Coeff]) -> Coeff:
        """Evaluation at ``a b c x y z``: exact at rational values.

        At floats it runs term by term in float, the reference of :func:`float_evaluator`.
        """
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

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

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


# -- packed keys -------------------------------------------------------------


def pack_width(degree: int) -> int:
    """Bits per exponent field that hold every exponent up to ``degree``."""
    return degree.bit_length()


def pack(mono: Sequence[int], width: int) -> int:
    """A monomial as an int key, ``width`` bits per exponent, ``a`` lowest.

    While every exponent of a product fits in ``width`` bits, the key of
    the product is the sum of the keys of the factors.  At any such width
    keys order as the exponent vectors read from ``z`` down to ``a``.
    """
    return (
        mono[0]
        | mono[1] << width
        | mono[2] << 2 * width
        | mono[3] << 3 * width
        | mono[4] << 4 * width
        | mono[5] << 5 * width
    )


def unpack(key: int, width: int) -> Mono:
    """The exponent vector of a key packed at ``width`` (inverse of pack)."""
    mask = (1 << width) - 1
    return (
        key & mask,
        key >> width & mask,
        key >> 2 * width & mask,
        key >> 3 * width & mask,
        key >> 4 * width & mask,
        key >> 5 * width,
    )


def packed_product(
    outer: Mapping[Mono, Coeff], inner: Mapping[Mono, Coeff], width: int
) -> dict[int, Coeff]:
    """Every pair product c1 * c2, summed at the key pack(m1) + pack(m2).

    ``width`` must hold every exponent of every sum.  The coefficients are
    left unnormalized: a sum may be 0 or an integral Fraction.  The inner
    terms are packed once and the loop runs over them for each outer term.
    """
    keys = [pack(m, width) for m in inner]
    coeffs = inner.values()
    terms: dict[int, Coeff] = {}
    get = terms.get
    for m1, c1 in outer.items():
        k1 = pack(m1, width)
        for k2, c2 in zip(keys, coeffs):
            k = k1 + k2
            terms[k] = get(k, 0) + c1 * c2
    return terms


def unpacked(terms: Mapping[int, Coeff], width: int) -> dict[Mono, Coeff]:
    """Packed-key ``terms`` on exponent tuples, ready for ``Poly._raw``.

    A packed sum merges coefficients unnormalized; here a zero is dropped
    and a Fraction with denominator 1 becomes an int.
    """
    result: dict[Mono, Coeff] = {}
    for key, coeff in terms.items():
        if coeff:
            if type(coeff) is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
            result[unpack(key, width)] = coeff
    return result


# -- constructors ----------------------------------------------------------


def constant(value: Coeff) -> Poly:
    _require_exact(value, "constant takes")
    value = normalize_coeff(value)
    if not value:
        return Poly._raw({})
    return Poly._raw({_ZERO_MONO: value})


def variable(name: str) -> Poly:
    """The polynomial for one variable, by name (one of ``VAR_NAMES``)."""
    if name not in VAR_NAMES:
        raise ValueError(f"unknown variable {name!r}")
    mono = tuple(int(v == name) for v in VAR_NAMES)
    return Poly._raw({mono: 1})


def variables() -> tuple[Poly, ...]:
    """The six variable polynomials in order (a, b, c, x, y, z)."""
    return tuple(map(variable, VAR_NAMES))


def monomial(mono: Mono, coeff: Coeff = 1) -> Poly:
    return Poly({tuple(mono): coeff})


# -- float evaluation --------------------------------------------------------


def float_evaluator(poly: Poly) -> Callable[[Iterable[float]], float]:
    """Compile ``poly`` into a fast float function of a point ``a b c x y z``.

    The terms are nested as a multivariate Horner scheme on a, then b, c,
    x, y, z: P = a^e0 (P_0 + a^d1 (P_1 + a^d2 (P_2 + ...))) with the P_k
    in the remaining variables, which costs about one multiply-add per
    term instead of one power per exponent.  Each power a^d the scheme
    needs is a local computed once per call.  Coefficients are written as
    ``repr(float(c))``, which reads back as the same double; a factor 1.0
    is left out, which is exact.  The source text is built only from
    variable names, ints and float reprs, and is compiled once.  Its
    reference is :meth:`Poly.evaluate` at the same floats.
    """
    powers: set[tuple[str, int]] = set()
    body = _horner_text(list(poly.terms.items()), 0, powers) if poly.terms else "0.0"
    lines = ["def evaluate(u):", f"    {', '.join(VAR_NAMES)} = map(float, u)"]
    for name, exponent in sorted(powers):
        lines.append(f"    {name}{exponent} = {'*'.join([name] * exponent)}")
    lines.append(f"    return {body}")
    namespace: dict = {"__builtins__": {}, "map": map, "float": float}
    exec(compile("\n".join(lines), "<float_evaluator>", "exec"), namespace)
    return namespace["evaluate"]


def _horner_text(
    terms: list[tuple[Mono, Coeff]], level: int, powers: set[tuple[str, int]]
) -> str:
    if level == N_VARS:  # one term left: its monomial is used up
        return repr(float(terms[0][1]))
    groups: dict[int, list[tuple[Mono, Coeff]]] = {}
    for term in terms:
        groups.setdefault(term[0][level], []).append(term)
    exponents = sorted(groups)
    name = VAR_NAMES[level]

    def times_power(exponent: int, text: str) -> str:
        if exponent > 1:
            powers.add((name, exponent))
            factor = f"{name}{exponent}"
        else:
            factor = name
        return factor if text == "1.0" else f"{factor}*({text})"

    text = _horner_text(groups[exponents[-1]], level + 1, powers)
    for low, high in zip(exponents[-2::-1], exponents[:0:-1]):
        inner = _horner_text(groups[low], level + 1, powers)
        text = f"{inner} + {times_power(high - low, text)}"
    if exponents[0]:
        text = times_power(exponents[0], text)
    return text
