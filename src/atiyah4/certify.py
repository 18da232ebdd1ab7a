"""Certificate files and exact residual checks for the central identities.

A certificate stores the data half of an identity: the multi-indices and
positive integer coefficients of averaged triangular monomials whose
combination is claimed to reproduce a target polynomial.  The structural
half (which target, which fixed cocktail of named polynomials, which
scale) is owned by the matching ``check_*`` function, so a certificate
cannot redefine what it is supposed to prove.

Each check compares orbit totals, never expanded averages.  A
certificate check proves ``fixed side = av(table side)``, av being the
average over the 24 relabellings: a symmetric T equals av(P) exactly
when ``orbit_totals(T) == orbit_totals(P)`` (Gatermann & Parrilo, 2004).
eq52 claims a plain polynomial identity between symmetric sides, so it
holds exactly when their orbit totals balance.  The residual is the
average of the differences (for eq52, the residual itself), and a check
passes only when there are none.  A side is reduced to its totals as
soon as it is built, so no two sides are alive at once.  A report reads
no clock, so it repeats exactly; ``cli`` times each check.

Every named side and every factor whose symmetry a check relies on
enters orbit form through ``symmetry.symmetric_totals``, under a label
that names it; an asymmetric one raises ``symmetry.ConstructionError``.
The degree-12 products are never expanded: ``symmetry.product_totals``
multiplies two orbit vectors, the second of a symmetric factor.  eq53
multiplies the mu table by 4 z4 + v4^2 that way, and eq52 takes d4 * d4
and (4 z4 + v4^2)(d4 + 32 p4 + m4) that way.

A coefficient table, sum(coeff * t^alpha), goes straight to its orbit
totals by ``catalog.t_combination``: a Horner scheme over the twelve
slots on packed keys that multiplies t_k in once per exponent step rather
than once per row.  Only its average enters a check, so the table side
needs no symmetry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from . import catalog, polyring
from .catalog import MultiIndex
from .catalog import t_alpha_expand  # noqa: F401  (perfbench/spans.py traces it here)
from .polyring import Coeff, Mono, Poly, mono_key
from .symmetry import OrbitVector, average_of_totals, product_totals, symmetric_totals
from .symmetry import orbit_sum  # noqa: F401  (perfbench/spans.py traces it here)

WORST_MONOMIALS_SHOWN = 10

_HEADER_KEYS = ("id", "scale", "slot_mapping", "source", "note")


@dataclass(frozen=True)
class Certificate:
    """Parsed certificate: header fields plus the coefficient tables."""

    cert_id: str
    scale: int
    slot_mapping: str
    source: str
    terms: tuple[tuple[MultiIndex, int], ...]
    multiplier_terms: tuple[tuple[MultiIndex, int], ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check."""

    identity: str
    passed: bool
    residual: Poly
    worst_monomials: tuple[tuple[Mono, Coeff], ...] = field(default=())

    def summary(self) -> str:
        if self.passed:
            return f"{self.identity}: PASS (residual 0, exact)"
        worst = ", ".join(
            f"{_format_mono(m)}: {c}" for m, c in self.worst_monomials[:3]
        )
        return (
            f"{self.identity}: FAIL (residual has {len(self.residual.terms)} "
            f"monomials; worst {worst})"
        )


def _format_mono(mono: Mono) -> str:
    parts = [
        f"{name}^{e}" if e > 1 else name
        for name, e in zip(polyring.VAR_NAMES, mono)
        if e
    ]
    return " ".join(parts) if parts else "1"


# -- file format -------------------------------------------------------------

_ALPHA_RE = re.compile(r"^alpha\s*=\s*\[([0-9,\s]*)\]$")


def load_certificate(path: str | Path) -> Certificate:
    """Parse a certificate file; all errors cite the offending line.

    An error about something missing cites the line where the header
    ended (for a header field) or where the file ended.
    """
    path = Path(path)
    header: dict[str, str] = {}
    notes: list[str] = []
    sections: dict[str, list[tuple[MultiIndex, int]]] = {}
    current: list[tuple[MultiIndex, int]] | None = None
    pending_alpha: MultiIndex | None = None
    seen: set[MultiIndex] = set()
    header_end: int | None = None

    def fail(lineno: int, message: str):
        raise ValueError(f"{path.name}:{lineno}: {message}")

    def integer(lineno: int, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # past the interpreter's digit limit
            fail(lineno, f"number with {len(digits)} digits is too long")

    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        fail(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text")
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            if pending_alpha is not None:
                fail(lineno, "alpha record without a coeff")
            name = line[1:-1]
            if name not in ("terms", "multiplier_terms"):
                fail(lineno, f"unknown section [{name}]")
            if name in sections:
                fail(lineno, f"duplicate section [{name}]")
            if header_end is None:
                header_end = lineno
            sections[name] = []
            current = sections[name]
            continue
        if "=" not in line:
            fail(lineno, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            if key not in _HEADER_KEYS:
                fail(lineno, f"unknown header field {key!r}")
            if key == "note":
                notes.append(value)
            elif key in header:
                fail(lineno, f"duplicate header field {key!r}")
            elif key == "scale" and (not re.fullmatch(r"[0-9]+", value)
                                     or integer(lineno, value) < 1):
                fail(lineno, f"scale must be a positive integer, got {value!r}")
            else:
                header[key] = value
            continue
        if key == "alpha":
            if pending_alpha is not None:
                fail(lineno, "two alpha lines in a row")
            match = _ALPHA_RE.match(line)
            if match is None:
                fail(lineno, f"cannot parse alpha line {line!r}")
            entries = [p for p in match.group(1).replace(",", " ").split() if p]
            if len(entries) != 12:
                fail(lineno, f"alpha needs 12 entries, got {len(entries)}")
            pending_alpha = tuple(integer(lineno, p) for p in entries)
            if pending_alpha in seen:
                fail(lineno, f"duplicate multi-index {pending_alpha}")
            seen.add(pending_alpha)
        elif key == "coeff":
            if pending_alpha is None:
                fail(lineno, "coeff line without a preceding alpha")
            if not re.fullmatch(r"-?[0-9]+", value):
                fail(lineno, f"coeff must be a decimal integer, got {value!r}")
            coeff = integer(lineno, value)
            if coeff <= 0:
                fail(lineno, f"coefficients must be positive, got {coeff}")
            assert current is not None
            current.append((pending_alpha, coeff))
            pending_alpha = None
        else:
            fail(lineno, f"unknown record field {key!r}")

    if pending_alpha is not None:
        fail(lineno, "file ends inside an alpha record")
    for required in ("id", "scale", "slot_mapping", "source"):
        if required not in header:
            fail(header_end or lineno, f"missing header field {required!r}")
    if "terms" not in sections:
        fail(lineno, "missing [terms] section")
    terms = sections["terms"]
    return Certificate(
        cert_id=header["id"],
        scale=int(header["scale"]),
        slot_mapping=header["slot_mapping"],
        source=header["source"],
        terms=tuple(terms),
        multiplier_terms=tuple(sections.get("multiplier_terms", [])),
        notes=tuple(notes),
    )


def bundled_certificate_dir() -> Path:
    """Directory of the certificate files shipped inside the package."""
    return Path(__file__).resolve().parent / "data" / "certificates"


# -- residual machinery ------------------------------------------------------


#: The slot order of ``catalog.triangular_basis``, three slots per face.
_SLOT_MAPPING = "(t1 t2 t3)(t4 t5 t6)(t7 t8 t9)(t10 t11 t12)"


def _require_shape(cert: Certificate, cert_id: str, scale: int, order: int,
                   multiplier_order: int | None = None) -> None:
    """Refuse a certificate whose header or tables do not fit identity ``cert_id``.

    A ``[multiplier_terms]`` section is required when the identity reads
    one (of order ``multiplier_order``) and refused when it does not.
    """
    if cert.cert_id != cert_id:
        raise ValueError(f"certificate id mismatch: expected {cert_id!r}, got {cert.cert_id!r}")
    if cert.slot_mapping != _SLOT_MAPPING:
        raise ValueError(
            f"slot mapping mismatch: expected {_SLOT_MAPPING!r}, got {cert.slot_mapping!r}"
        )
    if cert.scale != scale:
        raise ValueError(f"{cert_id} certificate must have scale {scale}, got {cert.scale}")
    if bool(cert.multiplier_terms) != (multiplier_order is not None):
        need = "takes no" if multiplier_order is None else "needs a"
        raise ValueError(f"{cert_id} certificate {need} [multiplier_terms] section")
    for label, terms, want in ((cert_id, cert.terms, order),
                               (f"{cert_id} multiplier", cert.multiplier_terms, multiplier_order)):
        for alpha, _ in terms:
            if sum(alpha) != want:
                raise ValueError(
                    f"{label} multi-index {alpha} has order {sum(alpha)}, expected {want}"
                )


# Not used by the checks; perfbench/spans.py traces it here.
def combination_orbit_sum(terms: tuple[tuple[MultiIndex, int], ...]) -> Poly:
    """Integer polynomial sum of coeff * (24 av[t^alpha]) over the table."""
    return orbit_sum(average_of_totals(catalog.t_combination(terms)))


def _residual(fixed: OrbitVector, *sides: OrbitVector) -> Poly:
    """av(fixed - sum of the sides), from the orbit totals of each.

    A caller builds each side in the argument list and passes only its
    totals, so a side's polynomial is gone before the next is built.
    """
    totals = dict(fixed)
    for side in sides:
        for canonical, total in side.items():
            totals[canonical] = totals.get(canonical, 0) - total
    return average_of_totals({c: total for c, total in totals.items() if total})


def _report(identity: str, residual: Poly) -> ResidualReport:
    worst = sorted(
        residual.terms.items(),
        key=lambda item: (abs(item[1]), mono_key(item[0])),
        reverse=True,
    )[:WORST_MONOMIALS_SHOWN]
    return ResidualReport(
        identity=identity,
        passed=residual.is_zero(),
        residual=residual,
        worst_monomials=tuple(worst),
    )


def check_sec3(cert: Certificate) -> ResidualReport:
    """Degree-6 identity: 3 d4 = 188 p4 + 10 z4 + 4 n4 + 2 v4^2 + sum."""
    _require_shape(cert, "sec3-188/3", 3, 6)
    residual = _residual(
        symmetric_totals(
            "sec3 fixed side",
            3 * catalog.d4()
            - 188 * catalog.p4()
            - 10 * catalog.z4()
            - 4 * catalog.n4()
            - 2 * catalog.v4() ** 2,
        ),
        catalog.t_combination(cert.terms),
    )
    return _report("sec3-188/3", residual)


def check_eq42(cert: Certificate) -> ResidualReport:
    """Degree-12 identity: 64 p4 m4 equals the averaged combination."""
    _require_shape(cert, "eq42", 64, 12)
    residual = _residual(
        symmetric_totals("eq42 fixed side", 64 * (catalog.p4() * catalog.m4())),
        catalog.t_combination(cert.terms),
    )
    return _report("eq42", residual)


def check_eq53(cert: Certificate) -> ResidualReport:
    """Degree-12 identity: 128 M4 = (4 z4 + v4^2) sum_mu + sum_nu.

    The multiplier M is symmetric, so av(M P) = M av(P) for the mu table
    P, and the totals of M P come from those of P and M by
    ``product_totals``: the degree-12 product is never expanded.
    """
    _require_shape(cert, "eq53", 128, 12, multiplier_order=6)
    multiplier = symmetric_totals("eq53 multiplier 4 z4 + v4^2",
                                  4 * catalog.z4() + catalog.v4() ** 2)
    residual = _residual(
        symmetric_totals("eq53 fixed side", 128 * catalog.big_m4()),
        product_totals(catalog.t_combination(cert.multiplier_terms), multiplier),
        catalog.t_combination(cert.terms),
    )
    return _report("eq53", residual)


def check_eq52() -> ResidualReport:
    """Bookkeeping identity d4^2 = P4 + (4 z4 + v4^2)(d4 + 32 p4 + m4) + M4.

    Takes no certificate: every ingredient is a named polynomial, so the
    identity is forced by the definitions of m4 and M4 and the check
    guards the constructions rather than any table.  It is a polynomial
    identity, not an averaged one, so every side and both factors of each
    product enter orbit form through ``symmetric_totals``; then the sides
    balance exactly when their orbit totals do, and the products are taken
    by ``product_totals``.  The multiplier has 26 orbits and the cofactor
    28, so the multiplier goes on the f side.
    """
    d4 = catalog.d4()
    d4_totals = symmetric_totals("eq52 d4", d4)
    multiplier = symmetric_totals("eq52 multiplier 4 z4 + v4^2",
                                  4 * catalog.z4() + catalog.v4() ** 2)
    cofactor = symmetric_totals("eq52 cofactor d4 + 32 p4 + m4",
                                d4 + 32 * catalog.p4() + catalog.m4())
    residual = _residual(
        product_totals(d4_totals, d4_totals),
        symmetric_totals("eq52 P4", catalog.big_p4()),
        product_totals(multiplier, cofactor),
        symmetric_totals("eq52 M4", catalog.big_m4()),
    )
    return _report("eq52", residual)


CHECKS_WITH_CERTIFICATES = {
    "sec3": ("sec3-188/3", check_sec3),
    "eq42": ("eq42", check_eq42),
    "eq53": ("eq53", check_eq53),
}


def run_certificate_check(name: str, cert_dir: str | Path | None = None) -> ResidualReport:
    """Check ``name`` (sec3 | eq42 | eq53) against ``<name>.cert`` in ``cert_dir``.

    ``cert_dir`` defaults to the bundled certificates.
    """
    if name not in CHECKS_WITH_CERTIFICATES:
        raise ValueError(f"unknown certificate check {name!r}")
    _, checker = CHECKS_WITH_CERTIFICATES[name]
    directory = bundled_certificate_dir() if cert_dir is None else Path(cert_dir)
    return checker(load_certificate(directory / f"{name}.cert"))
