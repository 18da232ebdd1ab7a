"""Certificate parsing, the residual checker, and error localization."""

import dataclasses
from pathlib import Path

import pytest

from atiyah4 import catalog, certify
from atiyah4.certify import (
    Certificate,
    bundled_certificate_dir,
    check_eq42,
    check_eq52,
    check_eq53,
    check_sec3,
    combination_orbit_sum,
    load_bundled,
    load_certificate,
    run_certificate_check,
    save_certificate,
)
from atiyah4.polyring import Poly
from atiyah4.symmetry import orbit_sum


def test_bundled_directory_has_all_files():
    directory = bundled_certificate_dir()
    names = {p.name for p in directory.glob("*.cert")}
    assert names == {"sec3.cert", "eq42.cert", "eq53.cert"}


def test_bundled_term_counts():
    sec3 = load_bundled("sec3-188/3")
    eq42 = load_bundled("eq42")
    eq53 = load_bundled("eq53")
    assert sec3.term_count() == 6 and sec3.scale == 3
    assert eq42.term_count() == 64 and eq42.scale == 64
    assert eq53.term_count() == 114 and eq53.scale == 128
    assert len(eq53.multiplier_terms) == 6
    assert all(coeff > 0 for _, coeff in sec3.terms + eq42.terms + eq53.terms)


def test_corrections_are_documented_in_the_header():
    eq53 = load_bundled("eq53")
    assert len(eq53.notes) >= 2
    joined = " ".join(eq53.notes)
    assert "768" in joined and "60" in joined


def test_round_trip(tmp_path):
    original = load_bundled("eq53")
    path = tmp_path / "copy.cert"
    save_certificate(original, path)
    again = load_certificate(path)
    assert again == original


def test_loader_rejects_missing_header(tmp_path):
    path = tmp_path / "broken.cert"
    path.write_text("id = something\n\n[terms]\nalpha = [0,0,0,0,0,0,1,1,1,1,1,1]\ncoeff = 3\n")
    with pytest.raises(ValueError):
        load_certificate(path)


def test_loader_rejects_duplicate_alpha(tmp_path):
    base = load_bundled("sec3-188/3")
    dup = Certificate(
        cert_id=base.cert_id,
        scale=base.scale,
        slot_mapping=base.slot_mapping,
        source=base.source,
        terms=base.terms + (base.terms[0],),
    )
    path = tmp_path / "dup.cert"
    save_certificate(dup, path)
    with pytest.raises(ValueError, match="duplicate"):
        load_certificate(path)


def test_loader_rejects_nonpositive_coeff(tmp_path):
    base = load_bundled("sec3-188/3")
    path = tmp_path / "neg.cert"
    save_certificate(base, path)
    text = path.read_text().replace("coeff = ", "coeff = -", 1)
    path.write_text(text)
    with pytest.raises(ValueError):
        load_certificate(path)


def test_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "mangled.cert"
    save_certificate(load_bundled("sec3-188/3"), path)
    lines = path.read_text().splitlines()
    lines.insert(len(lines) - 1, "alpha = [not, numbers]")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"mangled\.cert:\d+"):
        load_certificate(path)


def test_sec3_certificate_verifies():
    report = run_certificate_check("sec3")
    assert report.passed
    assert report.residual.is_zero()
    assert report.elapsed_seconds < 5


def test_eq52_rearrangement_is_exactly_zero():
    report = check_eq52()
    assert report.passed
    assert report.residual.is_zero()


def test_perturbed_certificate_localizes_the_error():
    base = load_bundled("sec3-188/3")
    alpha, coeff = base.terms[2]
    tampered = Certificate(
        cert_id=base.cert_id,
        scale=base.scale,
        slot_mapping=base.slot_mapping,
        source=base.source,
        terms=base.terms[:2] + ((alpha, coeff + 3),) + base.terms[3:],
    )
    report = check_sec3(tampered)
    assert not report.passed
    assert not report.residual.is_zero()
    assert report.worst_monomials
    # the residual is exactly -3 * av[t^alpha] (up to the overall scale),
    # so its monomial support must sit inside that average's support
    culprit = catalog.av_t_alpha(alpha)
    assert set(report.residual.terms) <= set(culprit.terms)


def test_run_certificate_check_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_certificate_check("eq99")


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_certificate_check("sec3", tmp_path)


def test_external_directory_wins_over_bundled(tmp_path):
    for name in ("sec3.cert",):
        src = bundled_certificate_dir() / name
        (tmp_path / name).write_text(src.read_text())
    report = run_certificate_check("sec3", tmp_path)
    assert report.passed


def test_certificate_ids_are_enforced(tmp_path):
    base = load_bundled("sec3-188/3")
    wrong = Certificate(
        cert_id="eq42",
        scale=base.scale,
        slot_mapping=base.slot_mapping,
        source=base.source,
        terms=base.terms,
    )
    with pytest.raises(ValueError):
        check_sec3(wrong)


def _with_coeff_bumped(cert, section, index):
    rows = list(getattr(cert, section))
    alpha, coeff = rows[index]
    rows[index] = (alpha, coeff + 1)
    return dataclasses.replace(cert, **{section: tuple(rows)}), alpha


@pytest.mark.parametrize(
    "cert_id, rows", [("sec3-188/3", slice(None)), ("eq42", slice(0, 10))]
)
def test_table_sum_equals_sum_of_row_orbit_sums(cert_id, rows):
    terms = load_bundled(cert_id).terms[rows]
    expected = Poly({})
    for alpha, lam in terms:
        expected = expected + lam * orbit_sum(catalog.t_alpha_expand(alpha))
    assert combination_orbit_sum(terms) == expected


def test_eq42_bumped_coefficient_leaves_minus_its_average():
    tampered, alpha = _with_coeff_bumped(load_bundled("eq42"), "terms", 17)
    report = check_eq42(tampered)
    assert not report.passed
    assert report.residual == -catalog.av_t_alpha(alpha)


def test_eq53_bumped_multiplier_leaves_minus_multiplier_times_average():
    tampered, mu = _with_coeff_bumped(load_bundled("eq53"), "multiplier_terms", 3)
    report = check_eq53(tampered)
    assert not report.passed
    multiplier = 4 * catalog.z4() + catalog.v4() ** 2
    assert report.residual == -(multiplier * catalog.av_t_alpha(mu))
