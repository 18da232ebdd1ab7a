"""Determinant construction, distance geometry, and the sampling campaigns."""

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah4 import atiyah, catalog
from atiyah4.atiyah import (
    SPECIAL_VECTORS,
    atiyah_det,
    atiyah_matrix,
    cayley_menger_det,
    distance_vector,
    geometric_distance_samples,
    hopf_lift,
    hopf_map,
    is_geometric_candidate,
    paired_lift,
    run_samples,
    sample_config,
    triangle_slacks,
    volume_squared_scaled,
)
from atiyah4.polyring import VAR_NAMES, Poly, constant, variable
from atiyah4.symmetry import permute_tuple
from references import reference_atiyah_matrix

components = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)
vectors = st.tuples(components, components, components).filter(
    lambda v: math.hypot(*v) > 1e-6
)


@given(vectors)
def test_hopf_lift_round_trip(v):
    s = hopf_lift(v)
    back = hopf_map(s)
    assert math.dist(v, back) <= 1e-12 * math.hypot(*v)


@given(vectors)
def test_paired_lift_flips_the_direction(v):
    s = hopf_lift(v)
    back = hopf_map(paired_lift(s))
    assert math.dist(tuple(-c for c in v), back) <= 1e-12 * math.hypot(*v)


def test_lift_branch_examples():
    z, w = hopf_lift((0.0, 4.0, 0.0))
    assert abs(z - 2) < 1e-15 and abs(w - 2) < 1e-15
    z, w = hopf_lift((3.0, 0.0, 0.0))
    assert abs(z - math.sqrt(6)) < 1e-15 and abs(w) < 1e-15
    z, w = hopf_lift((-3.0, 0.0, 0.0))
    assert abs(z) < 1e-15 and abs(w - math.sqrt(6)) < 1e-15


def test_lift_rejects_zero_vector():
    with pytest.raises(ValueError):
        hopf_lift((0.0, 0.0, 0.0))


def test_two_point_matrix_and_determinant():
    x = 2.25
    points = [(0.0, 0.0, 0.0), (0.0, x, 0.0)]
    sx = math.sqrt(x)
    matrix = atiyah_matrix(points)
    expected = [[sx, -sx], [sx, sx]]
    for r in range(2):
        for c in range(2):
            assert abs(matrix[r][c] - expected[r][c]) < 1e-14
    value = atiyah_det(points)
    assert isinstance(value, complex)
    assert abs(value - 2 * x) <= 1e-12 * 2 * x


def test_three_point_formula():
    worst = 0.0
    for i in range(300):
        points = sample_config(3, i, "generic")
        sx = math.dist(points[0], points[1])
        sy = math.dist(points[1], points[2])
        sz = math.dist(points[0], points[2])
        reference = 8 * sx * sy * sz + catalog.triple_factor(sx, sy, sz)
        value = atiyah_det(points)
        worst = max(worst, abs(value - reference) / abs(reference))
    assert worst < 1e-9


def test_unit_tetrahedron_value():
    s = 1 / math.sqrt(8)
    tetra = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    u = distance_vector(*tetra)
    assert all(abs(d - 1) < 1e-12 for d in u)
    value = atiyah_det(tetra)
    assert abs(value - 100) <= 1e-9 * 100


def test_real_and_imaginary_identities():
    d4f = atiyah._float_fn("d4")
    w4f = atiyah._float_fn("w4")
    z4f = atiyah._float_fn("z4")
    worst_re = worst_im = 0.0
    for i in range(300):
        points = sample_config(4, i, "generic")
        u = distance_vector(*points)
        value = atiyah_det(points)
        scale = abs(value)
        worst_re = max(worst_re, abs(value.real - d4f(u)) / scale)
        worst_im = max(worst_im, abs(value.imag**2 - w4f(u) ** 2 * z4f(u)) / scale**2)
    assert worst_re < 1e-8
    assert worst_im < 1e-8


@pytest.mark.parametrize("mode", atiyah.MODES)
def test_imaginary_part_has_the_sign_of_w4_times_the_orientation(mode):
    """Im At = -2 w4(u) D with D = det[P1 - P0, P2 - P0, P3 - P0].

    The unsquared form of (Im At)^2 = w4^2 z4, since z4 = 144 V^2 = 4 D^2;
    it fixes the sign of w4, which every squared check leaves open.
    """
    w4f = atiyah._float_fn("w4")
    worst = 0.0
    for i in range(200):
        points = sample_config(4, i, mode)
        p0 = points[0]
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = (
            tuple(p[k] - p0[k] for k in range(3)) for p in points[1:]
        )
        orientation = ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx) + az * (bx * cy - by * cx)
        value = atiyah_det(points)
        u = distance_vector(*points)
        worst = max(worst, abs(value.imag + 2 * w4f(u) * orientation) / abs(value))
    assert worst < 1e-10


@pytest.mark.parametrize("n", [5, 6])
def test_each_coincident_pair_is_named(n):
    for i, j in combinations(range(n), 2):
        points = sample_config(n, 40 + n, "generic")
        points[j] = points[i]
        with pytest.raises(ValueError, match=f"^points {i} and {j} coincide$"):
            atiyah_matrix(points)


def test_determinant_rejects_bad_input():
    for count in (1, 7):
        with pytest.raises(ValueError, match=r"^supported point counts are 2\.\.6$"):
            atiyah_det([(0.0, 0.0, 0.0)] * count)
    with pytest.raises(ValueError, match="coincide"):
        atiyah_det([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="finite"):
        atiyah_det([(0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)])


def test_phase_choices_do_not_move_the_determinant():
    # The lifts are fixed only up to phase; the reference takes the phases.
    rng = random.Random(5)
    for n in range(2, 7):
        for mode in atiyah.MODES:
            points = sample_config(n, 1234, mode)
            base = atiyah_det(points)
            phases = [cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                      for _ in range(n * (n - 1) // 2)]
            rephased = atiyah._det_complex(reference_atiyah_matrix(points, phases))
            assert abs(abs(rephased) - abs(base)) <= 1e-9 * abs(base), (n, mode)
            assert abs(rephased - base) <= 1e-9 * abs(base), (n, mode)


def test_permutation_invariance():
    points = sample_config(4, 77, "generic")
    base = atiyah_det(points)
    for perm in permutations(range(4)):
        value = atiyah_det([points[i] for i in perm])
        assert abs(value - base) <= 1e-9 * abs(base)


def test_reflection_conjugates():
    points = sample_config(4, 31, "generic")
    base = atiyah_det(points)
    mirrored = [(-p[0], p[1], p[2]) for p in points]
    assert abs(atiyah_det(mirrored) - base.conjugate()) <= 1e-9 * abs(base)


def test_translation_and_rotation_invariance():
    points = sample_config(4, 55, "generic")
    base = atiyah_det(points)
    shifted = [(p[0] + 3.5, p[1] - 1.25, p[2] + 0.75) for p in points]
    assert abs(atiyah_det(shifted) - base) <= 1e-9 * abs(base)
    angle = 0.7
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    rotated = [
        (p[0] * cos_a - p[1] * sin_a, p[0] * sin_a + p[1] * cos_a, p[2])
        for p in points
    ]
    assert abs(atiyah_det(rotated) - base) <= 1e-9 * abs(base)


def test_matrix_matches_the_reference_loop_bitwise():
    # Hex, not ==, so that a signed zero that differs counts.
    def hexes(matrix):
        return [(e.real.hex(), e.imag.hex()) for row in matrix for e in row]

    for n in range(2, 7):
        for mode in atiyah.MODES:
            for seed in range(50):
                points = sample_config(n, seed, mode)
                got = hexes(atiyah_matrix(points))
                assert got == hexes(reference_atiyah_matrix(points)), (n, mode, seed)


def _gaussian_times(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@pytest.mark.parametrize("m", range(1, 6))
def test_product_coefficients_are_the_elementary_symmetric_sums(m):
    # Gaussian-integer spinors keep every float product exact, so the
    # compiled coefficients must equal the int sums over subsets S of the
    # factors: coefficient r is sum_{|S| = r} prod_{k in S} w_k prod_{k not in S} z_k.
    product = atiyah._product_coefficients(m)
    assert product.__globals__["__builtins__"] == {}
    rng = random.Random(m)
    for _ in range(30):
        spinors = [
            tuple((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in "zw") for _ in range(m)
        ]
        expected = []
        for r in range(m + 1):
            total = [0, 0]
            for subset in combinations(range(m), r):
                term = (1, 0)
                for k, (z, w) in enumerate(spinors):
                    term = _gaussian_times(term, w if k in subset else z)
                total[0] += term[0]
                total[1] += term[1]
            expected.append(complex(*total))
        flat = [complex(*part) for spinor in spinors for part in spinor]
        assert product(*flat) == expected


def test_five_and_six_point_determinants_are_finite():
    for n in (5, 6):
        points = sample_config(n, 11, "generic")
        value = atiyah_det(points)
        assert cmath.isfinite(value)
        assert abs(value) > 0


def test_distance_vector_labeling(relabelling_row):
    tetra = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    a_pt, b_pt, c_pt, d_pt = tetra
    u = distance_vector(a_pt, b_pt, c_pt, d_pt)
    swapped = distance_vector(a_pt, c_pt, b_pt, d_pt)
    assert swapped == permute_tuple(u, relabelling_row("ACBD"))
    assert distance_vector(a_pt, b_pt, c_pt, a_pt)[0] == 0.0


def test_distance_vector_regular_tetrahedron():
    s = 1 / math.sqrt(8)
    tetra = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    assert all(abs(d - 1) < 1e-12 for d in distance_vector(*tetra))


def test_triangle_slacks_match_catalog_order():
    u = (1, 2, 3, 4, 5, 6)
    basis = catalog.triangular_basis()
    assert triangle_slacks(u) == tuple(form.evaluate(u) for form in basis)


def test_cayley_menger_exact_values():
    assert cayley_menger_det((1, 1, 1, 1, 1, 1)) == 4
    assert volume_squared_scaled((1, 1, 1, 1, 1, 1)) == 2
    assert isinstance(volume_squared_scaled((1, 1, 1, 1, 1, 1)), int)
    assert volume_squared_scaled((Fraction(1, 2),) * 6) == Fraction(2, 64)
    # collinear configuration: distances 1, 2, 3 along a line
    collinear = distance_vector((0.0,) * 3, (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, 0.0, 0.0))
    exact = tuple(round(d) for d in collinear)
    assert cayley_menger_det(exact) == 0
    assert volume_squared_scaled(exact) == 0


def test_z4_is_half_the_cayley_menger_determinant():
    # The exact backing of z4 >= 0: z4 = CM / 2 = 144 V^2 as polynomials.
    # The matrix has the layout of cayley_menger_det, over Poly entries,
    # and is expanded by Leibniz over the 120 permutations.
    a2, b2, c2, x2, y2, z2 = (variable(name) ** 2 for name in VAR_NAMES)
    matrix = [
        [0, 1, 1, 1, 1],
        [1, 0, x2, z2, a2],
        [1, x2, 0, y2, b2],
        [1, z2, y2, 0, c2],
        [1, a2, b2, c2, 0],
    ]
    det = Poly({})
    for perm in permutations(range(5)):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        term = constant((-1) ** inversions)
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        det = det + term
    z4 = catalog.z4()
    assert det == 2 * z4
    # The same layout as the shipped function, checked where it is exact.
    for u in [*SPECIAL_VECTORS, (1, 1, 1, 1, 1, 1)]:
        assert cayley_menger_det(u) == 2 * z4.evaluate(u)


def test_sampling_needs_no_degree_12_registry(monkeypatch):
    def refuse():
        raise AssertionError("sampling built the degree-12 registry")

    monkeypatch.setattr(catalog, "named_polynomials", refuse)
    atiyah._float_fn.cache_clear()
    try:
        assert run_samples(4, 5).passed()
    finally:
        atiyah._float_fn.cache_clear()


def test_cayley_menger_float_input_is_exact():
    # A float distance is the binary rational it stores, so float input
    # gets the determinant of those rationals, not a rounded one.
    floats = [tuple(map(float, u)) for u in SPECIAL_VECTORS[:5]]
    floats += geometric_distance_samples(20, seed=4)
    for u in floats:
        assert cayley_menger_det(u) == cayley_menger_det(tuple(map(Fraction, u)))
    assert cayley_menger_det((1 / 3,) * 6) != cayley_menger_det((Fraction(1, 3),) * 6)


def test_geometric_candidate_judgement():
    assert is_geometric_candidate((1, 1, 1, 1, 1, 1))
    assert not is_geometric_candidate((10, 1, 1, 1, 1, 1))
    assert not is_geometric_candidate((1, 1, 1, 1, 1, -1))
    assert not is_geometric_candidate((math.nan, 1, 1, 1, 1, 1))
    assert not is_geometric_candidate((1, 1, 1, 1, 1, math.inf))
    assert is_geometric_candidate((0, 0, 0, 0, 0, 0))
    assert all(is_geometric_candidate(u) for u in SPECIAL_VECTORS)


def test_volume_refuses_non_geometric_input():
    with pytest.raises(ValueError):
        volume_squared_scaled((10, 1, 1, 1, 1, 1))


def test_volume_takes_the_determinant_once(monkeypatch):
    calls = []

    def counted(u):
        calls.append(u)
        return cayley_menger_det(u)

    monkeypatch.setattr(atiyah, "cayley_menger_det", counted)
    for u in geometric_distance_samples(20, seed=5) + list(SPECIAL_VECTORS):
        calls.clear()
        assert volume_squared_scaled(u) == Fraction(cayley_menger_det(u)) / 2
        assert len(calls) == 1
    # Every face is a triangle, but two unit triangles hinged on an edge
    # reach at most sqrt(3) apart: the volume test alone refuses this one.
    hinged = (1, 1, 1, 1, 1, Fraction(19, 10))
    assert all(t >= 0 for t in triangle_slacks(hinged))
    assert cayley_menger_det(hinged) < 0
    assert not is_geometric_candidate(hinged)
    with pytest.raises(ValueError):
        volume_squared_scaled(hinged)


def test_special_vectors_shape():
    vectors34 = SPECIAL_VECTORS
    assert len(vectors34) == 21
    assert vectors34[0] == (0, 1, 4, 1, 4, 4)
    assert vectors34[18] == (9, 8, 1, 1, 7, 8)
    assert atiyah.SPECIAL_FLAT_COUNT == 15
    assert all(len(u) == 6 for u in vectors34)
    assert all(isinstance(v, int) and v >= 0 for u in vectors34 for v in u)


def test_sampling_is_deterministic():
    for mode in atiyah.MODES:
        assert sample_config(4, 99, mode) == sample_config(4, 99, mode)
    assert sample_config(4, 1) != sample_config(4, 2)


def test_sample_config_guards():
    with pytest.raises(ValueError):
        sample_config(1, 0)
    with pytest.raises(ValueError):
        sample_config(7, 0)
    with pytest.raises(ValueError):
        sample_config(4, 0, "sideways")


def test_generic_mode_respects_separation_floor():
    for seed in range(30):
        points = sample_config(4, seed, "generic")
        assert atiyah._min_separation(points) >= atiyah.SEPARATION_FLOOR


def test_near_planar_mode_geometry():
    for seed in range(20):
        points = sample_config(4, seed, "near-planar")
        offsets = [abs(p[2]) for p in points]
        assert all(0 < o <= atiyah.DEGENERACY_OFFSET for o in offsets)
        u = distance_vector(*points)
        mean = sum(u) / 6
        assert abs(cayley_menger_det(u)) / 2 <= 1e-2 * mean**6


def test_near_collinear_mode_geometry():
    for seed in range(20):
        points = sample_config(5, seed, "near-collinear")
        for p in points:
            assert 0 < abs(p[1]) <= atiyah.DEGENERACY_OFFSET
            assert 0 < abs(p[2]) <= atiyah.DEGENERACY_OFFSET
        stations = [p[0] for p in points]
        assert stations == sorted(stations)


def test_near_coincident_mode_geometry():
    for seed in range(20):
        points = sample_config(4, seed, "near-coincident")
        gap = math.dist(points[0], points[1])
        assert 0 < gap <= atiyah.DEGENERACY_OFFSET
        assert atiyah._min_separation(points) > 0


def test_geometric_samples_respect_the_volume_floor():
    samples = geometric_distance_samples(50, seed=3)
    assert len(samples) == 50
    for u in samples:
        assert is_geometric_candidate(u)
        mean = sum(u) / 6
        assert volume_squared_scaled(u) >= 1e-3 * mean**6


def test_float_evaluator_matches_poly_evaluate_float():
    d4 = catalog.named_polynomials()["d4"]
    fast = atiyah._float_fn("d4")
    for i in range(25):
        u = distance_vector(*sample_config(4, i, "generic"))
        assert math.isclose(fast(u), d4.evaluate(map(float, u)), rel_tol=1e-12, abs_tol=1e-12)


def test_run_samples_small_campaigns():
    for n in (2, 3, 4):
        stats = run_samples(n, 50, seed=8, mode="generic")
        assert stats.checked == 50
        assert stats.degenerate == 0
        assert stats.passed()
        assert stats.min_pair_margin >= 1.0 - 1e-9
    stats4 = run_samples(4, 50, seed=8)
    assert stats4.re_deviation is not None
    assert stats4.im_sq_deviation is not None
    assert stats4.min_face_margin is not None
    assert stats4.line_deviation is None


def test_run_samples_worst_case_is_reproducible():
    stats = run_samples(4, 40, seed=12)
    replay = sample_config(4, stats.worst_seed, "generic")
    value = atiyah_det(replay)
    pair_product = 1.0
    for p, q in combinations(replay, 2):
        pair_product *= 2.0 * math.dist(p, q)
    margin = abs(value) / pair_product
    assert math.isclose(margin, stats.min_pair_margin, rel_tol=1e-12)


# atiyah_det(sample_config(n, 20 + n, mode)) as float.hex strings:
# (Re, Im) plain, then (Re, Im) of the reference matrix with _pin_phases(n).
# Any change to the determinant path must reproduce these bit for bit.
PINNED_DETERMINANTS = {
    (2, 'generic'): ('0x1.d25ee45005080p-2', '0x1.1c6869f6f38c9p-57', '0x1.d25ee45005080p-2', '0x0.0p+0'),
    (2, 'near-planar'): ('0x1.44d5e5d2ef553p+2', '0x1.0cb51c3431b96p-63', '0x1.44d5e5d2ef552p+2', '0x0.0p+0'),
    (2, 'near-collinear'): ('0x1.a2bc092463a6fp+1', '-0x1.cf06603fa9a88p-79', '0x1.a2bc092463a6ep+1', '0x0.0p+0'),
    (2, 'near-coincident'): ('0x1.55b71077c870dp-10', '0x0.0p+0', '0x1.55b71077c870bp-10', '-0x1.0000000000000p-64'),
    (3, 'generic'): ('0x1.c705a5310c840p+5', '0x1.0000000000000p-48', '0x1.c705a5310c840p+5', '0x1.0000000000000p-47'),
    (3, 'near-planar'): ('0x1.0d64211c94a16p+4', '0x1.1000000000000p-62', '0x1.0d64211c94a15p+4', '0x1.8000000000000p-49'),
    (3, 'near-collinear'): ('0x1.6afb8c447f079p-9', '0x1.1000000000000p-75', '0x1.6afb8c447f07ap-9', '0x0.0p+0'),
    (3, 'near-coincident'): ('0x1.3332d3954a931p-6', '-0x1.9690000000000p-62', '0x1.3332d3954a932p-6', '-0x1.0000000000000p-59'),
    (4, 'generic'): ('0x1.1f8c59aad6c9ap+10', '-0x1.2cb43d40a6600p+2', '0x1.1f8c59aad6c9ap+10', '-0x1.2cb43d40a6600p+2'),
    (4, 'near-planar'): ('0x1.66c24b6150469p+3', '0x1.af9a9d9bef835p-17', '0x1.66c24b615046cp+3', '0x1.af9a9d9c80000p-17'),
    (4, 'near-collinear'): ('0x1.adff5ea944ea7p+2', '0x1.4920e8082e7d3p-22', '0x1.adff5ea944ea6p+2', '0x1.4920e80000000p-22'),
    (4, 'near-coincident'): ('0x1.024e08dbfdd5fp-3', '0x1.4dde68f654c80p-20', '0x1.024e08dbfdd5fp-3', '0x1.4dde68f668000p-20'),
    (5, 'generic'): ('0x1.5509119a80ac2p+9', '-0x1.29d9515768a00p-1', '0x1.5509119a80ac0p+9', '-0x1.29d9515768e00p-1'),
    (5, 'near-planar'): ('0x1.7bd5f062f7a7ap+14', '0x1.71bfb24292000p-5', '0x1.7bd5f062f7a7ap+14', '0x1.71bfb24360000p-5'),
    (5, 'near-collinear'): ('0x1.a8d2a4d8fd94ap-1', '-0x1.36453872c3cc8p-25', '0x1.a8d2a4d8fd94bp-1', '-0x1.3645387000000p-25'),
    (5, 'near-coincident'): ('0x1.7595d8d004776p+0', '-0x1.5173a0c115300p-9', '0x1.7595d8d004777p+0', '-0x1.5173a0c115300p-9'),
    (6, 'generic'): ('0x1.1feea9eb2e9ccp+23', '-0x1.3491654aaa000p+8', '0x1.1feea9eb2e9c9p+23', '-0x1.3491654a98000p+8'),
    (6, 'near-planar'): ('0x1.8035fc3dfa234p+17', '-0x1.a525389006402p+4', '0x1.8035fc3dfa236p+17', '-0x1.a525389006000p+4'),
    (6, 'near-collinear'): ('0x1.6f67d0a2b6f21p+1', '0x1.2d451ac48d034p-18', '0x1.6f67d0a2b6f22p+1', '0x1.2d451ac480000p-18'),
    (6, 'near-coincident'): ('0x1.4186186bf376fp+14', '-0x1.24da14a17c560p+7', '0x1.4186186bf376dp+14', '-0x1.24da14a17c400p+7'),
}


def _pin_phases(n):
    rng = random.Random(n)
    return [cmath.rect(1.0, rng.uniform(-3.0, 3.0)) for _ in range(n * (n - 1) // 2)]


def test_determinant_values_are_pinned_bitwise():
    assert len(PINNED_DETERMINANTS) == 5 * len(atiyah.MODES)
    for (n, mode), expected in PINNED_DETERMINANTS.items():
        points = sample_config(n, 20 + n, mode)
        plain = atiyah_det(points)
        phased = atiyah._det_complex(reference_atiyah_matrix(points, _pin_phases(n)))
        got = (plain.real.hex(), plain.imag.hex(), phased.real.hex(), phased.imag.hex())
        assert got == expected, (n, mode)


# repr(run_samples(n, 200, seed=5, mode=mode)): worst index and seed,
# deviations and margins.  Any change to the campaign loop must reproduce
# these exactly.
PINNED_CAMPAIGNS = {
    (2, 'generic'): (
        "SampleStats(n=2, mode='generic', count=200, tol=1e-08, margin_slack=1e-09, "
        "checked=200, degenerate=0, line_deviation=2.664713237533336e-16, "
        "triangle_deviation=None, re_deviation=None, im_sq_deviation=None, "
        "min_pair_margin=0.9999999999999998, min_face_margin=None, worst_index=18, "
        "worst_seed=5000033, identity_violations=0, margin_violations=0)"
    ),
    (3, 'generic'): (
        "SampleStats(n=3, mode='generic', count=200, tol=1e-08, margin_slack=1e-09, "
        "checked=200, degenerate=0, line_deviation=None, "
        "triangle_deviation=5.665198233326618e-16, re_deviation=None, "
        "im_sq_deviation=None, min_pair_margin=1.0006670935808697, min_face_margin=None, "
        "worst_index=121, worst_seed=5000136, identity_violations=0, margin_violations=0)"
    ),
    (4, 'generic'): (
        "SampleStats(n=4, mode='generic', count=200, tol=1e-08, margin_slack=1e-09, "
        "checked=200, degenerate=0, line_deviation=None, triangle_deviation=None, "
        "re_deviation=1.6927282350259331e-15, "
        "im_sq_deviation=1.8787725061208915e-18, min_pair_margin=1.0503302821690645, "
        "min_face_margin=1.0300060409060612, worst_index=121, worst_seed=5000136, "
        "identity_violations=0, margin_violations=0)"
    ),
    (4, 'near-collinear'): (
        "SampleStats(n=4, mode='near-collinear', count=200, tol=1e-08, "
        "margin_slack=1e-09, checked=200, degenerate=0, line_deviation=None, "
        "triangle_deviation=None, re_deviation=1.2396645029525692e-14, "
        "im_sq_deviation=7.002994012115301e-18, min_pair_margin=1.0000002303627415, "
        "min_face_margin=1.0000002381073685, worst_index=94, worst_seed=5000109, "
        "identity_violations=0, margin_violations=0)"
    ),
    (4, 'near-coincident'): (
        "SampleStats(n=4, mode='near-coincident', count=200, tol=1e-08, "
        "margin_slack=1e-09, checked=200, degenerate=0, line_deviation=None, "
        "triangle_deviation=None, re_deviation=1.3781798859601421e-11, "
        "im_sq_deviation=2.307267175948776e-18, min_pair_margin=1.0012798385096058, "
        "min_face_margin=1.0002074241838557, worst_index=162, worst_seed=5000177, "
        "identity_violations=0, margin_violations=0)"
    ),
    (6, 'generic'): (
        "SampleStats(n=6, mode='generic', count=200, tol=1e-08, margin_slack=1e-09, "
        "checked=200, degenerate=0, line_deviation=None, triangle_deviation=None, "
        "re_deviation=None, im_sq_deviation=None, "
        "min_pair_margin=1.8086700916295728, min_face_margin=None, worst_index=159, "
        "worst_seed=5000174, identity_violations=0, margin_violations=0)"
    ),
}


def test_campaign_reports_are_pinned():
    for (n, mode), expected in PINNED_CAMPAIGNS.items():
        assert repr(run_samples(n, 200, seed=5, mode=mode)) == expected, (n, mode)


def test_nan_evaluator_is_a_violation_not_a_pass(monkeypatch):
    monkeypatch.setattr(atiyah, "_float_fn", lambda name: lambda u: math.nan)
    stats = run_samples(4, 50, seed=8)
    assert not stats.passed()
    assert stats.identity_violations == 50
    assert math.isnan(stats.re_deviation)
    assert math.isnan(stats.im_sq_deviation)
    assert stats.margin_violations == 0


@pytest.mark.parametrize("face", [math.nan, -1.0, 0.0])
def test_bad_face_product_is_a_violation(monkeypatch, face):
    monkeypatch.setattr(catalog, "face_product", lambda u: face)
    stats = run_samples(4, 50, seed=8)
    assert stats.margin_violations == 50
    assert math.isnan(stats.min_face_margin)
    assert stats.identity_violations == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nan_determinant_is_a_violation(monkeypatch, n):
    def nan_det(points):
        return complex(math.nan, 0.0)

    monkeypatch.setattr(atiyah, "atiyah_det", nan_det)
    stats = run_samples(n, 20, seed=3)
    assert not stats.passed()
    assert stats.margin_violations == (40 if n == 4 else 20)  # n = 4: face margin too
    assert stats.identity_violations == (20 if n <= 4 else 0)
    # The first NaN is the worst sample, and it is not dropped later.
    assert math.isnan(stats.min_pair_margin)
    assert stats.worst_index == 0
    for worst in (stats.line_deviation, stats.triangle_deviation, stats.re_deviation):
        assert worst is None or math.isnan(worst)


def test_infinite_determinant_is_a_violation(monkeypatch):
    def inf_det(points):
        return complex(math.inf, 0.0)

    monkeypatch.setattr(atiyah, "atiyah_det", inf_det)
    stats = run_samples(4, 20, seed=3)
    assert stats.margin_violations == 40  # pair and face margin each time
    assert stats.identity_violations == 20


@pytest.mark.parametrize("mode", ["near-collinear", "near-coincident"])
def test_degenerate_edge_campaigns_hold(mode):
    # 2000 configurations within DEGENERACY_OFFSET of a line or of a
    # coincidence, at the campaign defaults tol 1e-8 and slack 1e-9.
    stats = run_samples(4, 2000, seed=0, mode=mode)
    assert (stats.tol, stats.margin_slack) == (1e-8, 1e-9)
    assert stats.checked == 2000
    assert stats.degenerate == 0
    assert stats.identity_violations == 0
    assert stats.margin_violations == 0
    assert stats.re_deviation < 1e-9
    assert stats.im_sq_deviation < 1e-15
    assert stats.min_pair_margin > 1.0
    assert stats.min_face_margin > 1.0
