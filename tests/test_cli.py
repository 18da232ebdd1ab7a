"""Exit codes, report formats, and the verify orchestration."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import atiyah4
from atiyah4 import catalog, certify, lp
from atiyah4.cli import build_parser, main, resolve_cert_dir


def run_cli(*argv):
    return main(list(argv))


def test_eval_prints_exact_values(capsys):
    assert run_cli("eval", "d4", "9", "8", "1", "1", "7", "8") == 0
    out = capsys.readouterr().out
    assert "258048" in out
    assert "overall: pass" in out


def test_eval_keeps_fractions_exact(capsys):
    assert run_cli("eval", "d4", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2") == 0
    out = capsys.readouterr().out
    assert "25/16" in out
    assert "." not in out.split("=")[-1]


def test_eval_unknown_name_is_usage_error(capsys):
    assert run_cli("eval", "nope", "1", "1", "1", "1", "1", "1") == 2
    assert "unknown polynomial" in capsys.readouterr().err


def test_eval_bad_rational_is_usage_error(capsys):
    assert run_cli("eval", "d4", "1", "1", "1", "1", "1", "oops") == 2
    assert "not a rational" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [("p4", "1e5000"), ("d4", "1e1000"), ("z4", "1e-2000"), ("p4", "1e1000000000")],
)
def test_eval_too_many_digits_is_usage_error(capsys, name, value):
    """A point or value beyond the int-to-str digit limit is refused, not
    raised; the last exponent would take 10**(10**9) to build."""
    assert run_cli("eval", name, value, "1", "1", "1", "1", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "digit" in captured.err


def test_eval_oversized_integer_names_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert run_cli("eval", "p4", "7" * 5000, "1", "1", "1", "1", "1") == 2
    err = capsys.readouterr().err
    assert f"5000 digits, over the {limit}-digit limit" in err
    assert "not a rational" not in err
    assert len(err) < 200


def test_eval_prints_values_within_the_digit_limit(capsys):
    assert run_cli("eval", "p4", "1e4000", "1", "1", "1", "1", "1") == 0
    assert f" = 1{'0' * 4000} " in capsys.readouterr().out


def test_verify_sec3_passes(capsys):
    assert run_cli("verify", "sec3") == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "residual 0" in out


def test_verify_vectors34_passes(capsys):
    assert run_cli("verify", "vectors34") == 0
    out = capsys.readouterr().out
    assert "21/21" in out


def test_verify_vectors34_needs_no_degree_12_registry(monkeypatch, capsys):
    def refuse():
        raise AssertionError("vectors34 built the degree-12 registry")

    monkeypatch.setattr(catalog, "named_polynomials", refuse)
    assert run_cli("verify", "vectors34") == 0
    assert "21/21" in capsys.readouterr().out


def test_verify_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "eq41")
    assert exc.value.code == 2


def test_json_report_is_machine_readable(capsys):
    assert run_cli("--json", "verify", "sec3") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["checks"][0]["name"] == "sec3"
    assert report["checks"][0]["status"] == "pass"


def test_sample_command_small_run(capsys):
    assert run_cli("--seed", "5", "sample", "--n", "3", "--count", "40") == 0
    out = capsys.readouterr().out
    assert "min |At| / prod(2 r_ij)" in out
    assert "violations: 0 identity" in out


def test_sample_flag_validation(capsys):
    assert run_cli("sample", "--n", "9") == 2
    assert run_cli("sample", "--count", "0") == 2


def test_lp_flag_validation(monkeypatch, capsys):
    assert run_cli("lp", "--basis", "t5") == 2
    assert run_cli("lp", "--extra", "w4") == 2
    assert run_cli("lp", "--extra", "z4,z4") == 2
    capsys.readouterr()
    for extra in ("z4,,n4", "z4,", ",z4", ","):
        assert run_cli("lp", "--extra", extra) == 2
        assert "empty name in --extra" in capsys.readouterr().err
    # An empty list as a whole still means no extras.
    requested = []
    gap = catalog.d4() - 64 * catalog.p4()

    def basis(extras):
        requested.append(extras)
        return [("gap", gap)]

    monkeypatch.setattr(lp, "standard_basis", basis)
    assert run_cli("lp", "--extra", "") == 0
    assert requested == [[]]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1", "1e300"])
def test_tolerance_must_be_finite_and_positive(tol, capsys):
    assert run_cli("--tol", tol, "sample", "--count", "50") == 2
    captured = capsys.readouterr()
    assert "--tol must be a finite positive number" in captured.err
    assert "overall" not in captured.out


@pytest.mark.parametrize("argv", [("sample", "--count", "50"), ("verify", "factorization")])
@pytest.mark.parametrize("tol, code", [("1e-8", 1), ("0.5", 1), ("1", 2)])
def test_zero_evaluators_never_pass(monkeypatch, argv, tol, code):
    # d4 = w4 = z4 = 0 keeps both n = 4 deviations at or below 1.
    from atiyah4 import atiyah

    monkeypatch.setattr(atiyah, "_float_fn", lambda name: lambda u: 0.0)
    assert run_cli("--tol", tol, *argv) == code


def test_lp_report_carries_the_route(monkeypatch, capsys):
    gap = catalog.d4() - 64 * catalog.p4()
    monkeypatch.setattr(lp, "standard_basis", lambda extras: [("gap", gap)])
    assert run_cli("--json", "lp") == 0
    entry = json.loads(capsys.readouterr().out)["checks"][0]
    assert entry["alpha"] == "64"
    assert entry["route"] == "certified"
    assert entry["certificate"] == "verified"
    assert entry["exact_pivots"] == 0 and entry["float_pivots"] > 0
    assert "matrix reconstruction ok, polynomial reconstruction ok; route certified" in (
        entry["detail"]
    )


def test_lp_report_carries_the_fallback_route(monkeypatch, capsys):
    gap = catalog.d4() - 64 * catalog.p4()
    monkeypatch.setattr(lp, "standard_basis", lambda extras: [("gap", gap)])
    monkeypatch.setattr(lp, "FLOAT_PIVOT_CAP", 0)
    assert run_cli("--json", "lp") == 0
    entry = json.loads(capsys.readouterr().out)["checks"][0]
    assert entry["alpha"] == "64"
    assert entry["route"] == "exact-fallback"
    assert entry["certificate"] == "rejected: float pass ended pivot cap"


def test_missing_certificate_directory(capsys):
    assert run_cli("--certs", "/no/such/dir", "verify", "sec3") == 2
    assert "not found" in capsys.readouterr().err


def test_missing_certificate_file(tmp_path, capsys):
    assert run_cli("--certs", str(tmp_path), "verify", "sec3") == 2
    assert "missing certificate" in capsys.readouterr().err


def test_unreadable_certificate_file_is_usage_error(tmp_path, capsys):
    (tmp_path / "sec3.cert").mkdir()
    assert run_cli("--certs", str(tmp_path), "verify", "sec3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(tmp_path / "sec3.cert") in err


def _copy_certs(target: Path) -> None:
    for path in certify.bundled_certificate_dir().glob("*.cert"):
        (target / path.name).write_text(path.read_text())


def _corrupt_coeff(path: Path) -> None:
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("coeff = "):
            lines[i] = f"coeff = {int(line.split('=')[1]) + 1}"
            break
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_certificate_fails_with_diagnostic(tmp_path, capsys):
    _copy_certs(tmp_path)
    _corrupt_coeff(tmp_path / "sec3.cert")
    assert run_cli("--certs", str(tmp_path), "verify", "sec3") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "residual has" in out


def test_certificate_in_another_slot_order_is_unusable(tmp_path, capsys):
    # The table would be read in the checker's slot order, not its own.
    _copy_certs(tmp_path)
    path = tmp_path / "sec3.cert"
    path.write_text(path.read_text().replace("(t1 t2 t3)(t4", "(t1 t3 t2)(t4"))
    assert run_cli("--json", "--certs", str(tmp_path), "verify", "sec3") == 1
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["status"] == "fail"
    assert entry["detail"].startswith("unusable certificate: slot mapping mismatch")
    assert "(t1 t2 t3)(t4 t5 t6)(t7 t8 t9)(t10 t11 t12)" in entry["detail"]
    assert "(t1 t3 t2)(t4 t5 t6)(t7 t8 t9)(t10 t11 t12)" in entry["detail"]
    _copy_certs(tmp_path)
    assert run_cli("--certs", str(tmp_path), "verify", "all") == 0


def test_stray_multiplier_section_is_unusable(tmp_path, capsys):
    # sec3 reads no multiplier, so a [multiplier_terms] section in its file is an error.
    _copy_certs(tmp_path)
    eq53 = (tmp_path / "eq53.cert").read_text()
    block = eq53[eq53.index("[multiplier_terms]"):eq53.index("[terms]")]
    path = tmp_path / "sec3.cert"
    path.write_text(path.read_text() + "\n" + block)
    assert run_cli("--json", "--certs", str(tmp_path), "verify", "sec3") == 1
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["status"] == "fail"
    assert entry["detail"].startswith("unusable certificate:")


def test_skewed_fixed_side_is_a_construction_fault(monkeypatch, capsys):
    # The bundled sec3 certificate is sound; only catalog.n4 is broken.
    catalog.named_polynomials()  # fill the caches before n4 is replaced
    a, b = catalog.A, catalog.B
    skewed = catalog.n4() + a**6 - b**6
    monkeypatch.setattr(catalog, "n4", lambda: skewed)
    assert run_cli("--json", "verify", "sec3") == 1
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["status"] == "fail"
    assert "unusable certificate" not in entry["detail"]
    assert entry["detail"] == "construction fault: sec3 fixed side is not symmetric"


def test_verify_all_skips_deep_checks_when_base_fails(tmp_path, capsys):
    _copy_certs(tmp_path)
    _corrupt_coeff(tmp_path / "sec3.cert")
    assert run_cli("--certs", str(tmp_path), "verify", "all") == 1
    out = capsys.readouterr().out
    assert "SKIP eq42" in out
    assert "SKIP eq53" in out
    assert "overall: FAIL" in out


def test_local_certificates_directory_is_the_default(tmp_path, monkeypatch, capsys):
    certs = tmp_path / "certificates"
    certs.mkdir()
    _copy_certs(certs)
    _corrupt_coeff(certs / "sec3.cert")
    monkeypatch.chdir(tmp_path)
    # the corrupted local copy must win over the bundled one
    assert run_cli("verify", "sec3") == 1


def test_resolve_cert_dir_falls_back_to_bundled(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert resolve_cert_dir(None) is None
    local = tmp_path / "certificates"
    local.mkdir()
    assert resolve_cert_dir(None) == Path("certificates")


def test_parser_has_expected_defaults():
    args = build_parser().parse_args(["sample"])
    assert args.tol == 1e-8
    assert args.seed == 0
    assert args.n == 4
    assert args.count == 10000
    assert args.mode == "generic"


def _child_env():
    """The environment for a child interpreter that imports the tested package."""
    src = str(Path(atiyah4.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "atiyah4.cli", "eval", "z4", "1", "1", "1", "1", "1", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "= 2" in proc.stdout


def _run_into_closed_pipe(*argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "atiyah4.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=_child_env(),
        )
    finally:
        os.close(write_end)


def test_closed_stdout_exits_quietly_with_the_report_code(tmp_path):
    proc = _run_into_closed_pipe("--json", "eval", "d4", "9", "8", "1", "1", "7", "8")
    assert (proc.returncode, proc.stderr) == (0, "")

    _copy_certs(tmp_path)
    _corrupt_coeff(tmp_path / "sec3.cert")
    proc = _run_into_closed_pipe("--certs", str(tmp_path), "verify", "sec3")
    assert (proc.returncode, proc.stderr) == (1, "")


def test_ceiling_entry_is_timed(monkeypatch, capsys):
    gap = catalog.d4() - 64 * catalog.p4()
    monkeypatch.setattr(lp, "standard_basis", lambda extras: [("gap", gap)])
    real_check = lp.upper_bound_check

    def slow_check(problem):
        time.sleep(0.3)
        return real_check(problem)

    monkeypatch.setattr(lp, "upper_bound_check", slow_check)
    assert run_cli("--json", "lp") == 0
    entries = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert entries["ceiling"]["status"] == "pass"
    assert entries["ceiling"]["elapsed_ms"] >= 300
    assert entries["lp"]["elapsed_ms"] < 300


def test_basis_build_is_timed_apart_from_the_solve(monkeypatch, capsys):
    gap = catalog.d4() - 64 * catalog.p4()

    def slow_basis(extras):
        time.sleep(0.3)
        return [("gap", gap)]

    monkeypatch.setattr(lp, "standard_basis", slow_basis)
    assert run_cli("--json", "lp") == 0
    entries = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert entries["lp"]["status"] == "pass"
    assert entries["lp"]["basis_ms"] >= 300
    assert entries["lp"]["elapsed_ms"] < 300


def test_solve_is_timed_inside_the_entry(monkeypatch, capsys):
    gap = catalog.d4() - 64 * catalog.p4()
    real_solve = lp.solve

    def slow_solve(problem):
        time.sleep(0.3)
        return real_solve(problem)

    monkeypatch.setattr(lp, "standard_basis", lambda extras: [("gap", gap)])
    monkeypatch.setattr(lp, "solve", slow_solve)
    assert run_cli("--json", "lp") == 0
    entry = json.loads(capsys.readouterr().out)["checks"][0]
    assert entry["status"] == "pass"
    assert 300 <= entry["solve_ms"] <= entry["elapsed_ms"]
    assert entry["basis_ms"] < 300


@pytest.mark.parametrize("broken", ["d4", "w4", "z4"])
def test_verify_factorization_fails_on_a_nan_evaluator(monkeypatch, capsys, broken):
    from atiyah4 import atiyah

    real = atiyah._float_fn
    monkeypatch.setattr(
        atiyah, "_float_fn", lambda name: (lambda u: math.nan) if name == broken else real(name)
    )
    assert run_cli("--json", "verify", "factorization") == 1
    report = json.loads(capsys.readouterr().out)
    (entry,) = [c for c in report["checks"] if c["name"] == "factorization"]
    assert entry["status"] == "fail"
    assert "1000 identity violations" in entry["detail"]
    if broken != "d4":
        assert "nan over" in entry["detail"]
