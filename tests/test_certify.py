"""Certificate parsing, the residual checker, and error localization."""

import dataclasses
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah4 import catalog, certify, polyring
from atiyah4.certify import (
    Certificate,
    bundled_certificate_dir,
    check_eq42,
    check_eq52,
    check_eq53,
    check_sec3,
    combination_orbit_sum,
    load_certificate,
    run_certificate_check,
)
from atiyah4.polyring import Poly
from atiyah4.symmetry import orbit_sum, sym_average


def load_bundled(name):
    """The bundled certificate ``<name>.cert``."""
    return load_certificate(bundled_certificate_dir() / f"{name}.cert")


def test_bundled_directory_has_all_files():
    directory = bundled_certificate_dir()
    names = {p.name for p in directory.glob("*.cert")}
    assert names == {"sec3.cert", "eq42.cert", "eq53.cert"}


def test_bundled_term_counts():
    sec3 = load_bundled("sec3")
    eq42 = load_bundled("eq42")
    eq53 = load_bundled("eq53")
    assert len(sec3.terms) == 6 and sec3.scale == 3
    assert len(eq42.terms) == 64 and eq42.scale == 64
    assert len(eq53.terms) == 114 and eq53.scale == 128
    assert len(eq53.multiplier_terms) == 6
    assert all(coeff > 0 for _, coeff in sec3.terms + eq42.terms + eq53.terms)


def test_corrections_are_documented_in_the_header():
    eq53 = load_bundled("eq53")
    assert len(eq53.notes) >= 2
    joined = " ".join(eq53.notes)
    assert "768" in joined and "60" in joined


def test_loader_rejects_missing_header(tmp_path):
    path = tmp_path / "broken.cert"
    path.write_text("id = something\n\n[terms]\nalpha = [0,0,0,0,0,0,1,1,1,1,1,1]\ncoeff = 3\n")
    with pytest.raises(ValueError):
        load_certificate(path)


def test_loader_rejects_nonpositive_coeff(tmp_path):
    path = tmp_path / "neg.cert"
    text = (bundled_certificate_dir() / "sec3.cert").read_text()
    path.write_text(text.replace("coeff = ", "coeff = -", 1))
    with pytest.raises(ValueError):
        load_certificate(path)


def test_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "mangled.cert"
    lines = (bundled_certificate_dir() / "sec3.cert").read_text().splitlines()
    lines.insert(len(lines) - 1, "alpha = [not, numbers]")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"mangled\.cert:\d+"):
        load_certificate(path)


SEC3_LINES = (bundled_certificate_dir() / "sec3.cert").read_text().splitlines()


def _load_lines(tmp_path, lines):
    path = tmp_path / "sec3.cert"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_certificate(path)


def _line_of(prefix, occurrence=1):
    hits = [n for n, line in enumerate(SEC3_LINES, start=1) if line.startswith(prefix)]
    return hits[occurrence - 1]


def test_duplicate_multi_index_cites_the_repeated_alpha(tmp_path):
    first = _line_of("alpha")
    lines = SEC3_LINES + SEC3_LINES[first - 1 : first + 1]
    repeated = len(SEC3_LINES) + 1
    with pytest.raises(ValueError, match=rf"^sec3\.cert:{repeated}: duplicate"):
        _load_lines(tmp_path, lines)


@pytest.mark.parametrize("value", ["0", "-3", "three", "3.0", "\u0663"])
def test_bad_scale_cites_the_scale_line(tmp_path, value):
    line = _line_of("scale")
    lines = list(SEC3_LINES)
    lines[line - 1] = f"scale = {value}"
    with pytest.raises(ValueError, match=rf"^sec3\.cert:{line}: scale"):
        _load_lines(tmp_path, lines)


def test_missing_header_field_cites_the_end_of_the_header(tmp_path):
    lines = [line for line in SEC3_LINES if not line.startswith("source")]
    header_end = lines.index("[terms]") + 1
    with pytest.raises(ValueError, match=rf"^sec3\.cert:{header_end}: missing header"):
        _load_lines(tmp_path, lines)
    # A file with no section at all ends its header at its last line.
    with pytest.raises(ValueError, match=r"^sec3\.cert:3: missing header field 'source'"):
        _load_lines(tmp_path, SEC3_LINES[:3])


def test_missing_terms_section_cites_the_end_of_the_file(tmp_path):
    header_only = SEC3_LINES[: SEC3_LINES.index("[terms]")] + ["# no terms"]
    end = len(header_only)
    with pytest.raises(ValueError, match=rf"^sec3\.cert:{end}: missing \[terms\]"):
        _load_lines(tmp_path, header_only)


@pytest.mark.parametrize("digit", ["\u0666", "\uff16", "\u096c"])
def test_coeff_must_use_ascii_digits(tmp_path, digit):
    # Arabic-Indic, fullwidth and Devanagari six: int() would read each as 6.
    line = _line_of("coeff")
    lines = list(SEC3_LINES)
    lines[line - 1] = f"coeff = {digit}"
    with pytest.raises(ValueError, match=rf"^sec3\.cert:{line}: coeff must be"):
        _load_lines(tmp_path, lines)


def test_undecodable_bytes_cite_their_line(tmp_path):
    path = tmp_path / "sec3.cert"
    line = _line_of("coeff", 2)
    lines = [text.encode() for text in SEC3_LINES]
    lines[line - 1] = b"coeff = \xff"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=rf"^sec3\.cert:{line}: not UTF-8"):
        load_certificate(path)


def test_overlong_numbers_cite_their_line(tmp_path):
    line = _line_of("coeff", 3)
    lines = list(SEC3_LINES)
    lines[line - 1] = "coeff = " + "7" * 5000
    with pytest.raises(ValueError, match=rf"^sec3\.cert:{line}: number with 5000 digits"):
        _load_lines(tmp_path, lines)


garbage = st.text(max_size=12)


@st.composite
def mutated_sec3(draw):
    """sec3.cert with one line deleted, one line doubled, or one token replaced."""
    lines = list(SEC3_LINES)
    index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if kind == "delete":
        del lines[index]
    elif kind == "duplicate":
        lines.insert(index, lines[index])
    else:
        tokens = re.split(r"(\s+|[=,\[\]])", lines[index])
        slot = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        tokens[slot] = draw(garbage)
        lines[index] = "".join(tokens)
    return lines


@given(mutated_sec3())
@settings(max_examples=300, deadline=None)
def test_mutated_sec3_loads_or_fails_citing_a_line(lines):
    with tempfile.TemporaryDirectory() as directory:
        try:
            _load_lines(Path(directory), lines)
        except ValueError as exc:
            assert re.match(r"^sec3\.cert:\d+: ", str(exc)), str(exc)


def test_sec3_certificate_verifies():
    started = time.perf_counter()
    report = run_certificate_check("sec3")
    assert time.perf_counter() - started < 5
    assert report.passed
    assert report.residual.is_zero()


def test_eq52_rearrangement_is_exactly_zero():
    report = check_eq52()
    assert report.passed
    assert report.residual.is_zero()


def test_perturbed_certificate_localizes_the_error():
    base = load_bundled("sec3")
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
    culprit = sym_average(catalog.t_alpha_expand(alpha))
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
    base = load_bundled("sec3")
    wrong = Certificate(
        cert_id="eq42",
        scale=base.scale,
        slot_mapping=base.slot_mapping,
        source=base.source,
        terms=base.terms,
    )
    with pytest.raises(ValueError):
        check_sec3(wrong)


def test_a_section_the_identity_does_not_read_is_refused():
    stray = load_bundled("eq53").multiplier_terms
    for check, name in ((check_sec3, "sec3"), (check_eq42, "eq42")):
        cert = dataclasses.replace(load_bundled(name), multiplier_terms=stray)
        with pytest.raises(ValueError, match=r"takes no \[multiplier_terms\] section"):
            check(cert)
    eq53 = load_bundled("eq53")
    with pytest.raises(ValueError, match=r"needs a \[multiplier_terms\] section"):
        check_eq53(dataclasses.replace(eq53, multiplier_terms=()))
    (alpha, coeff), *rest = eq53.multiplier_terms
    wrong_order = ((alpha[:-1] + (alpha[-1] + 93,), coeff), *rest)
    with pytest.raises(ValueError, match="eq53 multiplier multi-index .* has order 99"):
        check_eq53(dataclasses.replace(eq53, multiplier_terms=wrong_order))


def _with_coeff_bumped(cert, section, index):
    rows = list(getattr(cert, section))
    alpha, coeff = rows[index]
    rows[index] = (alpha, coeff + 1)
    return dataclasses.replace(cert, **{section: tuple(rows)}), alpha


@pytest.mark.parametrize(
    "name, rows", [("sec3", slice(None)), ("eq42", slice(0, 10))]
)
def test_table_sum_equals_sum_of_row_orbit_sums(name, rows):
    terms = load_bundled(name).terms[rows]
    expected = Poly({})
    for alpha, lam in terms:
        expected = expected + lam * orbit_sum(catalog.t_alpha_expand(alpha))
    assert combination_orbit_sum(terms) == expected


@pytest.mark.parametrize(
    "name, section",
    [("eq42", "terms"), ("eq53", "multiplier_terms"), ("eq53", "terms")],
)
def test_face_horner_sum_equals_row_by_row_sum(name, section):
    terms = getattr(load_bundled(name), section)
    expected = Poly({})
    for alpha, lam in terms:
        expected = expected + lam * catalog.t_alpha_expand(alpha)
    assert catalog.t_combination(terms) == expected


def test_eq42_bumped_coefficient_leaves_minus_its_average():
    tampered, alpha = _with_coeff_bumped(load_bundled("eq42"), "terms", 17)
    report = check_eq42(tampered)
    assert not report.passed
    assert report.residual == -sym_average(catalog.t_alpha_expand(alpha))


def test_eq53_bumped_multiplier_leaves_minus_multiplier_times_average():
    tampered, mu = _with_coeff_bumped(load_bundled("eq53"), "multiplier_terms", 3)
    report = check_eq53(tampered)
    assert not report.passed
    multiplier = 4 * catalog.z4() + catalog.v4() ** 2
    assert report.residual == -(multiplier * sym_average(catalog.t_alpha_expand(mu)))


@pytest.mark.parametrize(
    "check, name, message",
    [
        ("sec3", "n4", "sec3 fixed side is not symmetric"),
        ("eq42", "m4", "eq42 fixed side is not symmetric"),
        ("eq53", "z4", r"eq53 multiplier 4 z4 \+ v4\^2 is not symmetric"),
    ],
    ids=["sec3", "eq42", "eq53"],
)
def test_asymmetric_fixed_side_is_refused(check, name, message, monkeypatch):
    # av(a^6 - b^6) = 0 and av(p4 (a^6 - b^6)) = 0, so the residual alone
    # cannot see this skew; the symmetry guard must.
    catalog.named_polynomials()  # fill the caches before a name is replaced
    a, b = polyring.variable("a"), polyring.variable("b")
    skewed = getattr(catalog, name)() + a**6 - b**6
    monkeypatch.setattr(catalog, name, lambda: skewed)
    with pytest.raises(ValueError, match=message):
        run_certificate_check(check)
