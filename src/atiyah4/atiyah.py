"""Floating-point Atiyah determinant and distance-geometry helpers.

For n distinct points the construction lifts every direction P_j - P_i
(i < j) through the Hopf map to a spinor (z, w), hands the reversed pair
the partner lift (-conj(w), conj(z)), and forms, for each observer j, the
binary form prod_{k != j} (z_k xi + w_k eta).  The coefficient vectors of
those forms are the columns of an n x n complex matrix; its determinant
is the quantity all the conjectures are about.

For four points the real part of the determinant matches d4 on the
distance vector and the squared imaginary part matches w4^2 * z4, which
is what the sampling campaigns in this module cross-check against the
exact catalog.  Everything here is double precision; the exact modules
never import this one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Sequence

from . import catalog
from .linalg import gauss_jordan
from .polyring import float_evaluator, normalize_coeff

Point3 = tuple[float, float, float]
Spinor = tuple[complex, complex]

#: Generic sampling rejects configurations with a closer pair than this.
SEPARATION_FLOOR = 1e-2

#: Degenerate sampling modes place points within this distance of the
#: named degeneracy, and never exactly on it.
DEGENERACY_OFFSET = 1e-3

MODES = ("generic", "near-planar", "near-collinear", "near-coincident")

_TINY = 1e-300


def hopf_map(spinor: Spinor) -> Point3:
    """Map a spinor (z, w) to ((|z|^2 - |w|^2)/2, Re(z conj w), Im(z conj w))."""
    z, w = spinor
    zeta = z * w.conjugate()
    return (0.5 * (abs(z) ** 2 - abs(w) ** 2), zeta.real, zeta.imag)


def hopf_lift(vector: Sequence[float]) -> Spinor:
    """Lift a nonzero 3-vector to a spinor, choosing a stable branch.

    Writing the vector as (t, zeta) with t real and zeta complex, the
    branch picked by the sign of t avoids cancellation near the poles:
    for t >= 0 take z = sqrt(r + t) and w = conj(zeta)/z, otherwise take
    w = sqrt(r - t) and z = zeta/w.  Raises ValueError on the zero
    vector, which signals coincident points upstream.
    """
    t, p, q = map(float, vector)
    r = math.hypot(t, p, q)
    if r == 0.0:
        raise ValueError("cannot lift the zero vector (coincident points)")
    zeta = complex(p, q)
    if t >= 0.0:
        z = complex(math.sqrt(r + t))
        w = zeta.conjugate() / z
    else:
        w = complex(math.sqrt(r - t))
        z = zeta / w
    return (z, w)


def paired_lift(i: int, j: int, lift_ij: Spinor) -> Spinor:
    """Partner lift for the reversed pair: (z, w) becomes (-conj(w), conj(z)).

    The convention applies to pairs taken with i < j; the returned spinor
    lifts the opposite direction, h(paired) = -h(lift).
    """
    if not i < j:
        raise ValueError("pairing convention expects i < j")
    z, w = lift_ij
    return (-w.conjugate(), z.conjugate())


def atiyah_matrix(
    points: Sequence[Point3], pair_phases: Sequence[complex] | None = None
) -> list[list[complex]]:
    """Matrix whose column j holds the coefficients of observer j's form.

    Column j is the plain (unweighted) coefficient vector of
    prod_{k != j} (z_k xi + w_k eta) in the basis xi^(n-1), xi^(n-2) eta,
    ..., eta^(n-1).  Lifts are built once per unordered pair i < j and
    kept in an n x n table: entry [i][j] is the lift, entry [j][i] its
    partner for the reversed direction.

    ``pair_phases`` optionally multiplies the lift of each pair (in
    combinations order) by a unit-modulus factor; the determinant must not
    care, which is exactly what the phase-invariance tests exercise.
    """
    n = len(points)
    if not 2 <= n <= 6:
        raise ValueError("supported point counts are 2..6")
    if not all(map(math.isfinite, chain.from_iterable(points))):
        raise ValueError("point coordinates must be finite")
    pairs = list(combinations(range(n), 2))
    if pair_phases is not None and len(pair_phases) != len(pairs):
        raise ValueError(f"expected {len(pairs)} pair phases, got {len(pair_phases)}")
    lifts: list[list[Spinor | None]] = [[None] * n for _ in range(n)]
    for index, (i, j) in enumerate(pairs):
        p, q = points[i], points[j]
        try:
            z, w = hopf_lift((q[0] - p[0], q[1] - p[1], q[2] - p[2]))
        except ValueError:
            raise ValueError(f"points {i} and {j} coincide") from None
        if pair_phases is not None:
            lam = complex(pair_phases[index])
            z, w = lam * z, lam * w
        lifts[i][j] = (z, w)
        lifts[j][i] = paired_lift(i, j, (z, w))
    columns = []
    for j, row_lifts in enumerate(lifts):
        coeffs = [complex(1.0)]
        for k, lift in enumerate(row_lifts):
            if k == j:
                continue
            z, w = lift
            grown = [complex(0.0)] * (len(coeffs) + 1)
            for row, value in enumerate(coeffs):
                grown[row] += z * value
                grown[row + 1] += w * value
            coeffs = grown
        columns.append(coeffs)
    return [list(row) for row in zip(*columns)]


def _det_complex(matrix: list[list[complex]]) -> complex:
    """Determinant by Gaussian elimination with partial pivoting."""
    work = [list(row) for row in matrix]
    n = len(work)
    det = complex(1.0)
    for col in range(n):
        pivot_row, largest = col, abs(work[col][col])
        for r in range(col + 1, n):
            size = abs(work[r][col])
            if size > largest:
                pivot_row, largest = r, size
        if work[pivot_row][col] == 0:
            return complex(0.0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            if factor == 0:
                continue
            row = work[r]
            upper = work[col]
            for c in range(col + 1, n):
                row[c] -= factor * upper[c]
    return det


@dataclass(frozen=True)
class AtiyahResult:
    """Determinant value and the number of points it was taken over."""

    value: complex
    n: int


def atiyah_det(
    points: Sequence[Point3], pair_phases: Sequence[complex] | None = None
) -> AtiyahResult:
    matrix = atiyah_matrix(points, pair_phases)
    return AtiyahResult(value=_det_complex(matrix), n=len(points))


def _min_separation(points: Sequence[Point3]) -> float:
    return min(math.dist(p, q) for p, q in combinations(points, 2))


def distance_vector(a_pt, b_pt, c_pt, d_pt):
    """Six pairwise distances (a, b, c, x, y, z) of four labeled points.

    The labeling: a = |AD|, b = |BD|, c = |CD|, x = |AB|, y = |BC|,
    z = |AC|.  Degenerate inputs are allowed; zeros simply show up in the
    vector.
    """
    return (
        math.dist(a_pt, d_pt),
        math.dist(b_pt, d_pt),
        math.dist(c_pt, d_pt),
        math.dist(a_pt, b_pt),
        math.dist(b_pt, c_pt),
        math.dist(a_pt, c_pt),
    )


def triangle_slacks(u):
    """The twelve triangular variables evaluated at u, in catalog order."""
    return tuple(form.evaluate(u) for form in catalog.triangular_basis())


def cayley_menger_det(u):
    """Cayley-Menger determinant of the squared distances; equals 288 V^2.

    Exact (int or Fraction) entries get an exact determinant; anything
    else falls back to double precision with partial pivoting.
    """
    if len(u) != 6:
        raise ValueError("expected six distances")
    a, b, c, x, y, z = u
    a2, b2, c2, x2, y2, z2 = (v * v for v in (a, b, c, x, y, z))
    matrix = [
        [0, 1, 1, 1, 1],
        [1, 0, x2, z2, a2],
        [1, x2, 0, y2, b2],
        [1, z2, y2, 0, c2],
        [1, a2, b2, c2, 0],
    ]
    if all(isinstance(v, (int, Fraction)) for v in u):
        return normalize_coeff(gauss_jordan(matrix)[2])
    return _det_complex([[complex(float(e)) for e in row] for row in matrix]).real


def is_geometric_candidate(u, tol: float = 1e-9) -> bool:
    """True when u passes every triangle inequality and the volume test.

    All twelve triangular variables must be nonnegative (up to tol
    relative slack for rounded input) and the Cayley-Menger determinant
    must be >= -tol relative to the natural sixth-power scale.
    """
    if len(u) != 6 or any(v < 0 for v in u):
        return False
    scale = float(max(u))
    if scale == 0.0:
        return True
    slack = -tol * scale
    if any(t < slack for t in triangle_slacks(u)):
        return False
    return cayley_menger_det(u) >= -tol * scale**6


def volume_squared_scaled(u):
    """144 V^2 for the tetrahedron with distance vector u.

    Exact input produces an exact rational; float input a float.  Raises
    ValueError when u is not realizable by four points.
    """
    if not is_geometric_candidate(u):
        raise ValueError("distance vector is not realizable by four points in 3-space")
    det = cayley_menger_det(u)
    if isinstance(det, float):
        return 0.5 * det
    return normalize_coeff(Fraction(det) / 2)


#: Distance vectors on which d4 = 64 p4 exactly; the first fifteen
#: (row-major) have d4 = p4 = 0, the remaining six do not.
_SPECIAL = (
    (0, 1, 4, 1, 4, 4),
    (0, 4, 8, 4, 7, 8),
    (0, 6, 0, 6, 6, 0),
    (0, 1, 1, 1, 2, 1),
    (0, 5, 5, 5, 5, 5),
    (0, 8, 8, 8, 1, 8),
    (0, 1, 3, 1, 4, 3),
    (0, 6, 3, 6, 8, 3),
    (0, 6, 7, 6, 3, 7),
    (0, 6, 6, 6, 9, 6),
    (0, 1, 1, 1, 0, 1),
    (0, 5, 3, 5, 3, 3),
    (3, 3, 1, 0, 2, 2),
    (9, 9, 7, 0, 2, 2),
    (13, 13, 7, 0, 6, 6),
    (19, 11, 7, 8, 4, 12),
    (17, 13, 4, 4, 9, 13),
    (15, 8, 7, 7, 1, 8),
    (9, 8, 1, 1, 7, 8),
    (11, 9, 8, 2, 1, 3),
    (17, 9, 2, 8, 7, 15),
)

SPECIAL_FLAT_COUNT = 15


def special_vectors():
    """The twenty-one exact distance vectors where the bound 64 is tight."""
    return _SPECIAL


def sample_config(n: int, seed, mode: str = "generic") -> list[Point3]:
    """Reproducible pseudo-random configuration of n points.

    generic keeps every pair at least SEPARATION_FLOOR apart inside
    [-1, 1]^3.  The degenerate modes park the configuration within
    DEGENERACY_OFFSET of a plane, a line, or a coincidence, always
    strictly off the exact degeneracy.
    """
    if not 2 <= n <= 6:
        raise ValueError("n must be in 2..6")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {', '.join(MODES)}")
    rng = random.Random(seed)
    if mode == "generic":
        return _sample_generic(rng, n)
    if mode == "near-planar":
        return _sample_near_planar(rng, n)
    if mode == "near-collinear":
        return _sample_near_collinear(rng, n)
    return _sample_near_coincident(rng, n)


def _sample_generic(rng: random.Random, n: int) -> list[Point3]:
    while True:
        points = [
            (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(n)
        ]
        if _min_separation(points) >= SEPARATION_FLOOR:
            return points


def _tiny_offset(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(1e-6, DEGENERACY_OFFSET)


def _sample_near_planar(rng: random.Random, n: int) -> list[Point3]:
    while True:
        flat = [(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0) for _ in range(n)]
        if _min_separation(flat) >= SEPARATION_FLOOR:
            break
    return [(px, py, _tiny_offset(rng)) for px, py, _ in flat]


def _sample_near_collinear(rng: random.Random, n: int) -> list[Point3]:
    while True:
        stations = sorted(rng.uniform(-1, 1) for _ in range(n))
        gaps = [b - a for a, b in zip(stations, stations[1:])]
        if min(gaps) >= SEPARATION_FLOOR:
            break
    return [(s, _tiny_offset(rng), _tiny_offset(rng)) for s in stations]


def _sample_near_coincident(rng: random.Random, n: int) -> list[Point3]:
    points = _sample_generic(rng, n)
    radius = rng.uniform(1e-6, DEGENERACY_OFFSET)
    direction = _unit_direction(rng)
    anchor = points[0]
    points[1] = (
        anchor[0] + radius * direction[0],
        anchor[1] + radius * direction[1],
        anchor[2] + radius * direction[2],
    )
    return points


def _unit_direction(rng: random.Random) -> Point3:
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.hypot(*v)
        if norm > 1e-12:
            return (v[0] / norm, v[1] / norm, v[2] / norm)


def geometric_distance_samples(
    count: int, seed: int = 0, volume_floor: float = 1e-3
) -> list[tuple[float, ...]]:
    """Distance vectors of random tetrahedra with a conditioning floor.

    Generic configurations are rejected when 144 V^2 falls below
    ``volume_floor`` times the sixth power of the mean distance; below
    that, the volume is dominated by rounding noise and relative
    comparisons between the exact catalog and the Cayley-Menger route
    stop being meaningful.  The floor rejects a few percent of samples.
    """
    vectors: list[tuple[float, ...]] = []
    index = 0
    while len(vectors) < count:
        points = sample_config(4, _config_seed(seed, index), "generic")
        index += 1
        u = distance_vector(*points)
        mean = sum(u) / 6
        if volume_squared_scaled(u) < volume_floor * mean**6:
            continue
        vectors.append(u)
    return vectors


@lru_cache(maxsize=None)
def _float_fn(name: str):
    """Compiled float evaluator of d4, w4 or z4, built on first use.

    Only these three are built, so sampling never pays for the degree-12
    entries of ``catalog.named_polynomials``.
    """
    return float_evaluator({"d4": catalog.d4, "w4": catalog.w4, "z4": catalog.z4}[name]())


def _d3_float(p: float, q: float, r: float) -> float:
    return (-p + q + r) * (p - q + r) * (p + q - r)


def _face_product(u) -> float:
    """Product of the four 3-point determinants, from the factored form."""
    a, b, c, x, y, z = (float(v) for v in u)
    total = 1.0
    for p, q, r in ((x, y, z), (x, b, a), (y, c, b), (z, c, a)):
        total *= 8.0 * p * q * r + _d3_float(p, q, r)
    return total


def _pairwise_product(points: Sequence[Point3]) -> float:
    total = 1.0
    for p, q in combinations(points, 2):
        total *= 2.0 * math.dist(p, q)
    return total


@dataclass(frozen=True)
class SampleStats:
    """Aggregated campaign report.

    Deviations are relative to the determinant scale; margins are ratios
    (lhs / rhs) of the inequality under test, so anything >= 1 - slack
    passes.  A deviation or margin that is not finite is a violation, and
    a NaN is carried into the worst figure rather than dropped.  Fields
    that do not apply to the sampled n stay None.
    """

    n: int
    mode: str
    count: int
    tol: float
    margin_slack: float
    checked: int
    degenerate: int
    line_deviation: float | None
    triangle_deviation: float | None
    re_deviation: float | None
    im_sq_deviation: float | None
    min_pair_margin: float
    min_face_margin: float | None
    worst_index: int | None
    worst_seed: int | None
    identity_violations: int
    margin_violations: int

    def passed(self) -> bool:
        return self.identity_violations == 0 and self.margin_violations == 0


def _new_high(value: float, worst: float) -> bool:
    """True when a deviation beats the worst so far; the first NaN wins and stays."""
    return not (math.isnan(worst) or value <= worst)


def _new_low(value: float, worst: float) -> bool:
    """True when a margin undercuts the worst so far; the first NaN wins and stays."""
    return not (math.isnan(worst) or value >= worst)


def _margin_holds(margin: float, slack: float) -> bool:
    """The margin is finite and at least 1 - slack; NaN and inf do not hold."""
    return 1.0 - slack <= margin < math.inf


def _config_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def run_samples(
    n: int,
    count: int,
    seed: int = 0,
    mode: str = "generic",
    tol: float = 1e-8,
    margin_slack: float = 1e-9,
) -> SampleStats:
    """Sampling campaign comparing determinants against the exact catalog.

    For every configuration the pairwise-product inequality
    |At| >= prod 2 r_ij is scored; at n = 4 the real/imaginary identities
    and the face-product inequality are scored as well, at n = 3 the
    8xyz + d3 formula, at n = 2 the exact 2x value.
    """
    d4f = _float_fn("d4") if n == 4 else None
    w4f = _float_fn("w4") if n == 4 else None
    z4f = _float_fn("z4") if n == 4 else None

    checked = 0
    degenerate = 0
    identity_violations = 0
    margin_violations = 0
    line_dev = 0.0
    tri_dev = 0.0
    re_dev = 0.0
    im_dev = 0.0
    min_pair = math.inf
    min_face = math.inf
    worst_index = None
    worst_seed = None

    for index in range(count):
        config_seed = _config_seed(seed, index)
        points = sample_config(n, config_seed, mode)
        if _min_separation(points) == 0.0:
            degenerate += 1
            continue
        checked += 1
        at = atiyah_det(points).value
        magnitude = abs(at)

        pair_margin = magnitude / max(_pairwise_product(points), _TINY)
        if _new_low(pair_margin, min_pair):
            min_pair = pair_margin
            worst_index = index
            worst_seed = config_seed
        if not _margin_holds(pair_margin, margin_slack):
            margin_violations += 1

        if n == 2:
            reference = 2.0 * math.dist(points[0], points[1])
            deviation = abs(at - reference) / reference
            if _new_high(deviation, line_dev):
                line_dev = deviation
            if not deviation <= tol:
                identity_violations += 1
        elif n == 3:
            sx = math.dist(points[0], points[1])
            sy = math.dist(points[1], points[2])
            sz = math.dist(points[0], points[2])
            reference = 8.0 * sx * sy * sz + _d3_float(sx, sy, sz)
            deviation = abs(at - reference) / max(abs(reference), _TINY)
            if _new_high(deviation, tri_dev):
                tri_dev = deviation
            if not deviation <= tol:
                identity_violations += 1
        elif n == 4:
            u = distance_vector(*points)
            scale = max(magnitude, _TINY)
            sample_re = abs(at.real - d4f(u)) / scale
            sample_im = abs(at.imag**2 - w4f(u) ** 2 * z4f(u)) / scale**2
            if _new_high(sample_re, re_dev):
                re_dev = sample_re
            if _new_high(sample_im, im_dev):
                im_dev = sample_im
            if not (sample_re <= tol and sample_im <= tol):
                identity_violations += 1
            # Every face factor 8pqr + d3 is positive for distinct points,
            # so a product that is not is a fault, scored as a NaN margin.
            face = _face_product(u)
            face_margin = magnitude**2 / face if face > 0 else math.nan
            if _new_low(face_margin, min_face):
                min_face = face_margin
            if not _margin_holds(face_margin, margin_slack):
                margin_violations += 1

    return SampleStats(
        n=n,
        mode=mode,
        count=count,
        tol=tol,
        margin_slack=margin_slack,
        checked=checked,
        degenerate=degenerate,
        line_deviation=line_dev if n == 2 else None,
        triangle_deviation=tri_dev if n == 3 else None,
        re_deviation=re_dev if n == 4 else None,
        im_sq_deviation=im_dev if n == 4 else None,
        min_pair_margin=min_pair,
        min_face_margin=(min_face if n == 4 else None),
        worst_index=worst_index,
        worst_seed=worst_seed,
        identity_violations=identity_violations,
        margin_violations=margin_violations,
    )
