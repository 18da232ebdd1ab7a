"""Acceptance gate: every shipped claim, checked at its stated tolerance.

Each test prints exactly one ``ACCEPTANCE k ...: PASS|FAIL`` line (collected
again in the terminal summary), so a full run reads as a checklist.  Runtime
budgets are asserted where the contract states one.
"""

import math
import time
from fractions import Fraction

from atiyah4 import atiyah, catalog, certify, lp, symmetry

RESULTS = []

SEED = 20260816


def record(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {status}{suffix}"
    RESULTS.append(line)
    print(line, flush=True)
    assert passed, line


def test_criterion_1_base_identity_certificate():
    started = time.perf_counter()
    report = certify.run_certificate_check("sec3")
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 5
    record(
        1,
        "3 d4 = 188 p4 + 10 z4 + 4 n4 + 2 v4^2 + sum, residual exactly zero",
        ok,
        f"residual terms {len(report.residual.terms)}, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_product_identity_certificate():
    started = time.perf_counter()
    report = certify.run_certificate_check("eq42")
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 60
    record(
        2,
        "64 p4 m4 = sum over the 64-term table, residual exactly zero",
        ok,
        f"residual terms {len(report.residual.terms)}, {elapsed:.2f}s < 60s",
    )


def test_criterion_3_degree_twelve_certificate():
    started = time.perf_counter()
    report = certify.run_certificate_check("eq53")
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 180
    record(
        3,
        "128 M4 = (4 z4 + v4^2) sum + sum over the 6+114-term tables, residual exactly zero",
        ok,
        f"residual terms {len(report.residual.terms)}, {elapsed:.2f}s < 180s",
    )


def test_criterion_4_rearrangement_identity():
    started = time.perf_counter()
    report = certify.check_eq52()
    record(
        4,
        "d4^2 = P4 + (4 z4 + v4^2)(d4 + 32 p4 + m4) + M4: symmetric sides, orbit totals balance",
        report.passed,
        f"{time.perf_counter() - started:.2f}s",
    )


def test_criterion_5_linear_program_optima():
    started = time.perf_counter()
    expected = [
        ((), Fraction(32)),
        (("z4", "n4"), Fraction(60)),
        (("z4", "n4", "v4sq"), Fraction(188, 3)),
    ]
    pieces = []
    ok = True
    for extras, target in expected:
        basis = lp.standard_basis(extras)
        problem = lp.build_program(basis)
        solution = lp.solve(problem)
        combo_ok = (
            solution.status == "optimal"
            and lp.combination_polynomial(basis, solution) == catalog.d4()
        )
        good = (
            solution.status == "optimal"
            and solution.objective == target
            and combo_ok
        )
        ok = ok and good
        label = "+".join(extras) if extras else "T6"
        pieces.append(f"{label}: alpha={solution.objective} via {solution.route}")
    ceiling = lp.upper_bound_check(problem)  # the z4, n4, v4sq program
    ok = ok and ceiling.applicable and ceiling.bound == 64
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600
    record(
        5,
        "exact LP: alpha = 32, 60, 188/3 with residual-zero reconstructions; ceiling 64",
        ok,
        f"{'; '.join(pieces)}; ceiling {ceiling.bound}; {elapsed:.0f}s < 600s",
    )


def test_criterion_6_special_vector_suite():
    polys = catalog.named_polynomials()
    d4, p4, z4, v4, n4 = (polys[k] for k in ("d4", "p4", "z4", "v4", "n4"))
    vectors = atiyah.SPECIAL_VECTORS
    flat = atiyah.SPECIAL_FLAT_COUNT
    ok = (
        len(vectors) == 21
        and all(d4.evaluate(u) == 64 * p4.evaluate(u) for u in vectors)
        and all(z4.evaluate(u) == 0 for u in vectors)
        and all(v4.evaluate(u) == 0 for u in vectors)
        and all(
            d4.evaluate(u) == 0 and p4.evaluate(u) == 0 for u in vectors[:flat]
        )
        and any(n4.evaluate(u) != 0 for u in vectors)
        and d4.evaluate((9, 8, 1, 1, 7, 8)) == 258048
    )
    record(
        6,
        "21 special vectors: d4 = 64 p4, z4 = v4 = 0, first 15 flat, witness value 258048",
        ok,
        f"d4(9,8,1,1,7,8) = {d4.evaluate((9, 8, 1, 1, 7, 8))}",
    )


def test_criterion_7_numeric_cross_validation():
    started = time.perf_counter()
    stats = atiyah.run_samples(
        4, 10000, seed=SEED, mode="generic", tol=1e-8, margin_slack=1e-9
    )
    elapsed = time.perf_counter() - started
    ok = (
        stats.checked == 10000
        and stats.identity_violations == 0
        and stats.margin_violations == 0
        and stats.re_deviation <= 1e-8
        and stats.im_sq_deviation <= 1e-8
        and stats.min_pair_margin >= 1 - 1e-9
        and stats.min_face_margin >= 1 - 1e-9
        and elapsed < 60
    )
    record(
        7,
        "10000 random tetrahedra: Re/Im^2 identities at 1e-8, conjecture margins at 1-1e-9",
        ok,
        f"re {stats.re_deviation:.1e}, im^2 {stats.im_sq_deviation:.1e}, "
        f"margins {stats.min_pair_margin:.6f}/{stats.min_face_margin:.6f}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_8_construction_sanity():
    worst_pair = 0.0
    for i in range(500):
        points = atiyah.sample_config(2, SEED * 1_000_003 + i, "generic")
        reference = 2 * math.dist(points[0], points[1])
        value = atiyah.atiyah_det(points)
        worst_pair = max(worst_pair, abs(value - reference) / reference)

    worst_tri = 0.0
    for i in range(1000):
        points = atiyah.sample_config(3, SEED * 1_000_003 + i, "generic")
        sx = math.dist(points[0], points[1])
        sy = math.dist(points[1], points[2])
        sz = math.dist(points[0], points[2])
        reference = 8 * sx * sy * sz + catalog.triple_factor(sx, sy, sz)
        value = atiyah.atiyah_det(points)
        worst_tri = max(worst_tri, abs(value - reference) / abs(reference))

    s = 1 / math.sqrt(8)
    tetra = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    tetra_dev = abs(atiyah.atiyah_det(tetra) - 100) / 100

    ok = worst_pair <= 1e-12 and worst_tri <= 1e-9 and tetra_dev <= 1e-9
    record(
        8,
        "n=2 gives 2x at 1e-12; n=3 gives 8xyz + d3 at 1e-9; unit tetrahedron gives 100",
        ok,
        f"pair {worst_pair:.1e}, triangle {worst_tri:.1e}, tetra {tetra_dev:.1e}",
    )


def test_criterion_9_property_suites():
    group = symmetry.self_test()
    group_ok = group["order"] == 24 and group["even_rows"] == 12

    polys = catalog.named_polynomials()
    parity_ok = all(
        symmetry.is_symmetric(polys[name])
        for name in ("p4", "n4", "z4", "d4", "m4", "P4", "M4", "F4")
    ) and all(symmetry.is_skew_symmetric(polys[name]) for name in ("w4", "v4"))

    z4 = polys["z4"]
    worst = 0.0
    for u in atiyah.geometric_distance_samples(1000, seed=SEED):
        vol2 = atiyah.volume_squared_scaled(u)
        zv = z4.evaluate(map(float, u))
        worst = max(worst, abs(vol2 - zv) / abs(zv))
    volume_ok = worst <= 1e-9

    ok = group_ok and parity_ok and volume_ok
    record(
        9,
        "group self-test; parity classes of the catalog; z4 = 144 V^2 at 1e-9 on 1000 samples",
        ok,
        f"order {group['order']}, even rows {group['even_rows']}, "
        f"worst volume deviation {worst:.1e}",
    )
