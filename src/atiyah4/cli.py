"""Command-line entry point: verify, lp, sample, and eval workflows.

Reports are line oriented and stable for scripting; ``--json`` switches to
a machine-readable dump of the same content.  Symbolic results are always
printed as exact fractions.  Exit codes: 0 every requested check passed,
1 a verification failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from . import atiyah, catalog, certify, lp


class UsageError(Exception):
    """Bad flags, unknown names, or missing resources; exit code 2."""


#: Sample count used by ``verify factorization``; the full campaign sits
#: behind the ``sample`` command.
FACTORIZATION_SAMPLES = 1000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atiyah4",
        description="Exact identity checks, bounding linear programs, and "
        "numeric sampling for the four-point Atiyah determinant.",
    )
    parser.add_argument(
        "--certs",
        metavar="DIR",
        default=None,
        help="certificate directory (default: ./certificates when present, "
        "otherwise the bundled copies)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        metavar="T",
        help="relative tolerance for numeric comparisons, in (0, 1) (default 1e-8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S", help="campaign seed (default 0)"
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json", help="machine-readable output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run exact identity checks and numeric cross-validation"
    )
    p_verify.add_argument("target", choices=VERIFY_TARGETS)

    p_lp = sub.add_parser("lp", help="solve a bounding linear program exactly")
    p_lp.add_argument(
        "--extra",
        default="",
        metavar="NAMES",
        help="comma-separated extra columns from z4, n4, v4sq",
    )

    p_sample = sub.add_parser(
        "sample", help="sampling campaign for the determinant conjectures"
    )
    p_sample.add_argument("--n", type=int, default=4, help="points per sample (2..6)")
    p_sample.add_argument(
        "--count", type=int, default=10000, help="number of configurations"
    )
    p_sample.add_argument("--mode", choices=atiyah.MODES, default="generic")

    p_eval = sub.add_parser(
        "eval", help="evaluate a named polynomial at six rational distances"
    )
    p_eval.add_argument("name", help="catalog name, for example d4 or z4")
    p_eval.add_argument("values", nargs=6, metavar="Q", help="a b c x y z")

    return parser


def resolve_cert_dir(flag: str | None) -> Path | None:
    """Pick the certificate directory; None means use the bundled files."""
    if flag is not None:
        path = Path(flag)
        if not path.is_dir():
            raise UsageError(f"certificate directory not found: {path}")
        return path
    local = Path("certificates")
    if local.is_dir():
        return local
    return None


def _entry(name: str, check: Callable[[], tuple]) -> dict:
    """Run ``check`` and build its report entry; ``elapsed_ms`` times the whole call.

    ``check`` returns ``(status, detail)`` or ``(status, detail, fields)``,
    where a bool status reads as pass or fail.
    """
    started = time.perf_counter()
    status, detail, *fields = check()
    elapsed_ms = _ms_since(started)
    if isinstance(status, bool):
        status = "pass" if status else "fail"
    entry = {"name": name, "status": status, "elapsed_ms": elapsed_ms, "detail": detail}
    entry.update(*fields)
    return entry


def _ms_since(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def _verdict(report: certify.ResidualReport) -> tuple[bool, str]:
    return report.passed, report.summary()


def _certificate_check(name: str, cert_dir: Path | None) -> tuple[bool, str]:
    try:
        return _verdict(certify.run_certificate_check(name, cert_dir))
    except FileNotFoundError as exc:
        raise UsageError(f"missing certificate file: {exc.filename}") from exc
    except OSError as exc:
        raise UsageError(
            f"cannot read certificate file {exc.filename}: {exc.strerror}"
        ) from exc
    except certify.ConstructionError as exc:
        return False, f"construction fault: {exc}"
    except ValueError as exc:
        return False, f"unusable certificate: {exc}"


def _factorization_check(seed: int, tol: float) -> tuple[bool, str]:
    stats = atiyah.run_samples(4, FACTORIZATION_SAMPLES, seed=seed, tol=tol)
    # Any identity violation fails the check, so a NaN from the d4
    # evaluator cannot hide behind a clean Im figure.
    ok = stats.identity_violations == 0 and stats.degenerate == 0
    detail = (
        f"max |(Im At)^2 - w4^2 z4| / |At|^2 = {stats.im_sq_deviation:.3e} "
        f"over {stats.checked} samples (tol {tol:g}), "
        f"{stats.identity_violations} identity violations"
    )
    return ok, detail


def _vectors34_check() -> tuple[bool, str]:
    d4, p4, z4, v4, n4 = catalog.d4(), catalog.p4(), catalog.z4(), catalog.v4(), catalog.n4()
    vectors = atiyah.special_vectors()
    flat_count = atiyah.SPECIAL_FLAT_COUNT

    d4_at = {u: d4.evaluate(u) for u in vectors}
    p4_at = {u: p4.evaluate(u) for u in vectors}
    tight = sum(1 for u in vectors if d4_at[u] == 64 * p4_at[u])
    z_vanishes = all(z4.evaluate(u) == 0 for u in vectors)
    v_vanishes = all(v4.evaluate(u) == 0 for u in vectors)
    flat = all(d4_at[u] == 0 and p4_at[u] == 0 for u in vectors[:flat_count])
    nonflat = all(d4_at[u] != 0 for u in vectors[flat_count:])
    n4_alive = any(n4.evaluate(u) != 0 for u in vectors)
    printed = d4_at.get(lp.WITNESS)  # the witness is one of the 21 vectors
    witness = ",".join(map(str, lp.WITNESS))
    geometric = all(atiyah.is_geometric_candidate(u) for u in vectors)

    ok = (
        tight == len(vectors)
        and z_vanishes
        and v_vanishes
        and flat
        and nonflat
        and n4_alive
        and printed == 258048
        and geometric
    )
    detail = (
        f"{tight}/{len(vectors)} satisfy d4 = 64 p4; z4 and v4 vanish on all; "
        f"first {flat_count} have d4 = p4 = 0; d4({witness}) = {printed}"
    )
    return ok, detail


#: verify target -> check(args, cert_dir).  Each check looks its ``certify``
#: function up when it runs, so a wrapper put on the module is the one called.
_VERIFY_CHECKS = {
    "sec3": lambda args, cert_dir: _certificate_check("sec3", cert_dir),
    "eq42": lambda args, cert_dir: _certificate_check("eq42", cert_dir),
    "eq52": lambda args, cert_dir: _verdict(certify.check_eq52()),
    "eq53": lambda args, cert_dir: _certificate_check("eq53", cert_dir),
    "factorization": lambda args, cert_dir: _factorization_check(args.seed, args.tol),
    "vectors34": lambda args, cert_dir: _vectors34_check(),
}
VERIFY_TARGETS = ("all", *_VERIFY_CHECKS)

_SKIPPED = (
    "skip",
    "skipped: the base identity failed, so the shared averaging "
    "machinery is suspect and deeper residuals would be noise",
)


def cmd_verify(args) -> tuple[str, list[dict]]:
    cert_dir = resolve_cert_dir(args.certs)
    names = VERIFY_TARGETS[1:] if args.target == "all" else [args.target]

    checks, skip_deep = [], False
    for name in names:
        run = partial(_VERIFY_CHECKS[name], args, cert_dir)
        skipped = skip_deep and name in ("eq42", "eq53")
        checks.append(_entry(name, (lambda: _SKIPPED) if skipped else run))
        skip_deep |= name == "sec3" and checks[-1]["status"] != "pass"
    return f"verify {args.target}", checks


def cmd_lp(args) -> tuple[str, list[dict]]:
    extras = [token.strip() for token in args.extra.split(",")]
    if extras == [""]:
        extras = []
    elif "" in extras:
        raise UsageError(f"empty name in --extra {args.extra!r}")
    started = time.perf_counter()
    try:
        basis = lp.standard_basis(extras)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    basis_ms = _ms_since(started)
    problem = None

    def solve():
        nonlocal problem
        problem = lp.build_program(basis)
        started = time.perf_counter()
        solution = lp.solve(problem)
        route = (
            f"route {solution.route} ({solution.float_pivots} float + "
            f"{solution.exact_pivots} exact pivots), certificate {solution.certificate}"
        )
        fields = {
            "basis_ms": basis_ms,
            "solve_ms": _ms_since(started),
            "route": solution.route,
            "float_pivots": solution.float_pivots,
            "exact_pivots": solution.exact_pivots,
            "certificate": solution.certificate,
        }
        if solution.status != "optimal":
            return False, f"solver status: {solution.status}; {route}", fields
        # "optimal" means the certificate, matrix reconstruction included, held.
        combo_ok = lp.combination_polynomial(basis, solution) == catalog.d4()
        detail = (
            f"alpha = {solution.objective} with {len(solution.support)} active "
            f"columns after {solution.pivots} pivots; matrix reconstruction ok, "
            f"polynomial reconstruction {'ok' if combo_ok else 'FAILED'}; {route}"
        )
        fields["alpha"] = str(solution.objective)
        fields["support"] = {name: str(v) for name, v in sorted(solution.multipliers.items()) if v}
        return combo_ok, detail, fields

    def ceiling():
        bound = lp.upper_bound_check(problem)
        if bound.applicable:
            return bound.bound == 64, f"objective ceiling {bound.bound} from witness {bound.witness}"
        negative = ", ".join(bound.negative_columns)
        return False, f"ceiling argument void: columns go negative at the witness: {negative}"

    return "lp", [_entry("lp", solve), _entry("ceiling", ceiling)]


def cmd_sample(args) -> tuple[str, list[dict]]:
    if not 2 <= args.n <= 6:
        raise UsageError("--n must be in 2..6")
    if args.count < 1:
        raise UsageError("--count must be positive")

    def campaign():
        stats = atiyah.run_samples(
            args.n, args.count, seed=args.seed, mode=args.mode, tol=args.tol
        )
        parts = [
            f"min |At| / prod(2 r_ij) = {stats.min_pair_margin:.12f} "
            f"(worst index {stats.worst_index}, config seed {stats.worst_seed})"
        ]
        if stats.re_deviation is not None:
            parts.append(f"max |Re At - d4| / |At| = {stats.re_deviation:.3e}")
            parts.append(f"max |(Im At)^2 - w4^2 z4| / |At|^2 = {stats.im_sq_deviation:.3e}")
            parts.append(f"min |At|^2 / P4 = {stats.min_face_margin:.12f}")
        if stats.line_deviation is not None:
            parts.append(f"max |At - 2x| / 2x = {stats.line_deviation:.3e}")
        if stats.triangle_deviation is not None:
            parts.append(f"max |At - (8xyz + d3)| rel = {stats.triangle_deviation:.3e}")
        parts.append(
            f"violations: {stats.identity_violations} identity, "
            f"{stats.margin_violations} margin, {stats.degenerate} degenerate skips"
        )
        shown = {k: (v if not isinstance(v, float) else repr(v)) for k, v in vars(stats).items()}
        return stats.passed() and stats.degenerate == 0, "; ".join(parts), {"stats": shown}

    return "sample", [_entry(f"sample n={args.n} {args.mode}", campaign)]


def _parse_rational(token: str) -> Fraction:
    # Fraction builds 10**exponent in full before anything is printed, and
    # a value with more digits than the int-to-str limit cannot be printed.
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    shown = repr(token) if len(token) <= 40 else f"{token[:20]!r}..."
    _, marker, exponent = token.strip().lower().partition("e")
    try:
        if marker and abs(int(exponent)) > limit:
            raise UsageError(f"exponent of {shown} exceeds the {limit}-digit limit")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        # str -> int refuses more digits than the limit in one integer part
        digits = max(sum(ch.isdigit() for ch in part) for part in re.split("[/eE]", token))
        if digits > limit:
            raise UsageError(f"{shown} has {digits} digits, over the {limit}-digit limit") from exc
        raise UsageError(f"not a rational number: {shown}") from exc


def cmd_eval(args) -> tuple[str, list[dict]]:
    polys = catalog.named_polynomials()
    if args.name not in polys:
        known = ", ".join(sorted(polys))
        raise UsageError(f"unknown polynomial {args.name!r}; known names: {known}")
    u = tuple(_parse_rational(tok) for tok in args.values)

    def evaluate():
        value = polys[args.name].evaluate(u)
        try:
            point = ", ".join(str(q) for q in u)
            text = str(value)
        except ValueError as exc:  # more digits than the int-to-str limit
            raise UsageError(f"cannot print {args.name} at this point: {exc}") from exc
        return True, f"{args.name}({point}) = {text}", {"value": text}

    return "eval", [_entry(f"eval {args.name}", evaluate)]


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        lines = [
            f"{check['status'].upper():<4} {check['name']:<16} "
            f"{check['detail']} [{check['elapsed_ms']} ms]"
            for check in report["checks"]
        ]
        lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'}")
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader went away (``atiyah4 ... | head``); the exit code still
        # carries the outcome.  Point stdout at /dev/null so the flush at
        # interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


_COMMANDS = {"verify": cmd_verify, "lp": cmd_lp, "sample": cmd_sample, "eval": cmd_eval}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Against evaluators that return 0, both n = 4 deviations are at
        # most 1, so a tolerance of 1 or more would pass them.
        if not 0 < args.tol < 1:
            raise UsageError(f"--tol must be a finite positive number below 1, got {args.tol!r}")
        command, checks = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = all(check["status"] == "pass" for check in checks)
    report = {"command": command, "checks": checks, "passed": passed}
    _print_report(report, args.as_json)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
