"""Exit codes, report formats, and the verify orchestration."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import atiyah4
from atiyah4 import catalog, certify, lp, symmetry
from atiyah4.cli import build_parser, main, resolve_cert_dir
from references import orbit_columns


def run_cli(*argv):
    return main(list(argv))


def gap_basis(extras):
    """A one-column basis, d4 - 64 p4, in place of ``lp.standard_basis``."""
    return orbit_columns([("gap", catalog.d4() - 64 * catalog.p4())])


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
    with pytest.raises(SystemExit) as exc:  # t6 is the only basis, so there is no flag
        run_cli("lp", "--basis", "t6")
    assert exc.value.code == 2
    assert run_cli("lp", "--extra", "w4") == 2
    assert run_cli("lp", "--extra", "z4,z4") == 2
    capsys.readouterr()
    for extra in ("z4,,n4", "z4,", ",z4", ","):
        assert run_cli("lp", "--extra", extra) == 2
        assert "empty name in --extra" in capsys.readouterr().err
    # An empty list as a whole still means no extras.
    requested = []

    def basis(extras):
        requested.append(extras)
        return gap_basis(extras)

    monkeypatch.setattr(lp, "standard_basis", basis)
    assert run_cli("lp", "--extra", "") == 0
    assert requested == [[]]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1", "1e300"])
def test_tolerance_must_be_finite_and_positive(tol, capsys):
    assert run_cli("--tol", tol, "sample", "--count", "50") == 2
    captured = capsys.readouterr()
    assert "--tol must be a finite positive number" in captured.err
    assert "overall" not in captured.out


def test_negative_seed_is_a_usage_error(capsys):
    # random.Random seeds from |n|, so config seed -1 * 1000003 + 0 would
    # replay config seed 1 * 1000003 + 0: --seed -1 would report --seed 1.
    assert run_cli("--seed", "-1", "sample", "--count", "1") == 2
    captured = capsys.readouterr()
    assert "--seed must be nonnegative, got -1" in captured.err
    assert "overall" not in captured.out
    assert run_cli("--seed", "0", "sample", "--count", "1") == 0


@pytest.mark.parametrize("argv", [("sample", "--count", "50"), ("verify", "factorization")])
@pytest.mark.parametrize("tol, code", [("1e-8", 1), ("0.5", 1), ("1", 2)])
def test_zero_evaluators_never_pass(monkeypatch, argv, tol, code):
    # d4 = w4 = z4 = 0 keeps both n = 4 deviations at or below 1.
    from atiyah4 import atiyah

    monkeypatch.setattr(atiyah, "_float_fn", lambda name: lambda u: 0.0)
    assert run_cli("--tol", tol, *argv) == code


def test_lp_report_carries_the_route(monkeypatch, capsys):
    monkeypatch.setattr(lp, "standard_basis", gap_basis)
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
    monkeypatch.setattr(lp, "standard_basis", gap_basis)
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


def test_skewed_eq52_factor_is_a_construction_fault(monkeypatch, capsys):
    # eq52 takes no certificate; an asymmetric m4 must still fail the check
    # with exit 1 rather than raise out of the command.
    catalog.named_polynomials()  # fill the caches before m4 is replaced
    a, b = catalog.A, catalog.B
    skewed = catalog.m4() + a**6 - b**6
    monkeypatch.setattr(catalog, "m4", lambda: skewed)
    assert run_cli("--json", "verify", "eq52") == 1
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["status"] == "fail"
    assert entry["detail"] == "construction fault: eq52 cofactor d4 + 32 p4 + m4 is not symmetric"


def test_skewed_lp_extra_is_not_a_usage_error(monkeypatch):
    # An asymmetric named polynomial is a fault in catalog, not in the
    # request, so lp raises it rather than answering exit 2.
    catalog.named_polynomials()
    a, b = catalog.A, catalog.B
    skewed = catalog.z4() + a**6 - b**6
    monkeypatch.setattr(catalog, "z4", lambda: skewed)
    with pytest.raises(symmetry.ConstructionError, match="^column 'z4' is not symmetric$"):
        run_cli("lp", "--extra", "z4")


def test_verify_all_skips_deep_checks_when_base_fails(tmp_path, capsys):
    _copy_certs(tmp_path)
    _corrupt_coeff(tmp_path / "sec3.cert")
    assert run_cli("--certs", str(tmp_path), "verify", "all") == 1
    out = capsys.readouterr().out
    assert "SKIP eq42" in out
    assert "SKIP eq53" in out
    assert "overall: FAIL" in out


def test_local_certificates_directory_is_read_only_by_certs(tmp_path, monkeypatch):
    certs = tmp_path / "certificates"
    certs.mkdir()
    _copy_certs(certs)
    _corrupt_coeff(certs / "sec3.cert")
    monkeypatch.chdir(tmp_path)
    # The working directory does not choose the files: a corrupted
    # ./certificates is read only when --certs names it.
    assert run_cli("verify", "sec3") == 0
    assert run_cli("--certs", "certificates", "verify", "sec3") == 1


def test_resolve_cert_dir_is_bundled_without_certs(tmp_path, monkeypatch):
    (tmp_path / "certificates").mkdir()
    monkeypatch.chdir(tmp_path)
    assert resolve_cert_dir(None) is None
    assert resolve_cert_dir("certificates") == Path("certificates")


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
    monkeypatch.setattr(lp, "standard_basis", gap_basis)
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


def test_certificate_entry_is_timed_with_its_load(monkeypatch, capsys):
    real_load = certify.load_certificate

    def slow_load(path):
        time.sleep(0.3)
        return real_load(path)

    monkeypatch.setattr(certify, "load_certificate", slow_load)
    assert run_cli("--json", "verify", "sec3") == 0
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["status"] == "pass"
    assert entry["elapsed_ms"] >= 300


def test_basis_build_is_timed_apart_from_the_solve(monkeypatch, capsys):

    def slow_basis(extras):
        time.sleep(0.3)
        return gap_basis(extras)

    monkeypatch.setattr(lp, "standard_basis", slow_basis)
    assert run_cli("--json", "lp") == 0
    entries = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert entries["lp"]["status"] == "pass"
    assert entries["lp"]["basis_ms"] >= 300
    assert entries["lp"]["elapsed_ms"] < 300


def test_solve_is_timed_inside_the_entry(monkeypatch, capsys):
    real_solve = lp.solve

    def slow_solve(problem):
        time.sleep(0.3)
        return real_solve(problem)

    monkeypatch.setattr(lp, "standard_basis", gap_basis)
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


#: sha256 of each whole ``--json`` report once the timing keys are dropped
#: from its entries; nothing else in a report depends on the clock.
PINNED_REPORTS = {
    "verify all": "4eb27f5d9c162b60424a053e5d92d2f9a396f30747ab34562120ae402fc6b5b1",
    "lp --extra ": "1633e7ddeca984ce83d3f35c9b83f5f3a236be09385576ec8b0301ec64e52181",
    "lp --extra z4,n4": "45642760330ccae417a31f9a7bf9d046e2622dc3322dd0c2a30934098c6d87ce",
    "lp --extra z4,n4,v4sq": "1fa1d4d8241d000fb3985de804bb618b983310366ee9cea68ae40fefaa4b5f2e",
    "sample --n 4 --count 2000": "b4a566df82084dc1f584ec6b1e7c6ed5bb0337516df8d455b84f4e89b33e8a19",
    "sample --n 6 --count 1000": "dca7c4a3eb1ab6295bc3c5b5e521480788dfe5a2690bf374c1312b02b2558a7c",
}


def test_whole_reports_are_pinned(capsys):
    digests = {}
    for command in PINNED_REPORTS:
        assert run_cli("--json", *command.split(" ")) == 0
        report = json.loads(capsys.readouterr().out)
        for entry in report["checks"]:
            for key in ("elapsed_ms", "basis_ms", "solve_ms"):
                entry.pop(key, None)
        text = json.dumps(report, sort_keys=True)
        digests[command] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == PINNED_REPORTS


def test_readme_command_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("atiyah4 ")]
    assert examples
    for argv in examples:
        build_parser().parse_args(argv[1:])  # exits on a stale flag or value
