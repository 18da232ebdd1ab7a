#!/usr/bin/env python3
"""Benchmark for the atiyah4 package, run from the root of a source tree.

One workload, one run:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 35 --trace 0

Every workload, one fresh process each, with the named figures printed as
a table (exit code 1 if any output check failed):

    python3 perfbench/run.py --summary --seed 1 --seconds 35

A run times the set-up in fresh processes, then repeats the workload's
pass in this process for about ``--seconds`` seconds, checks every report
exactly, and prints one JSON result as its last line.  ``--trace 1`` adds
one traced pass after the timed ones and reports per-layer figures instead
of end-to-end ones.  Workloads, metrics and layers are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import workloads
from spans import LAYERS, Tracer, install

#: Fresh-process set-ups timed per run (after one untimed bytecode warm-up).
SETUP_REPEATS = 9

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import atiyah4
atiyah4.catalog.named_polynomials()
print(time.perf_counter() - t0)
"""

LP_SCOPES = ("t6", "z4n4", "z4n4v4sq")
CAMPAIGNS = ("factorization", "n4_generic", "n4_collinear", "n6_generic")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {
        "polyring.mul.calls": "count",
        "polyring.mul.term_pairs": "count",
        "polyring.mul.self_s": "s",
        "symmetry.orbit_sum.calls": "count",
        "symmetry.orbit_sum.terms_in": "count",
        "symmetry.orbit_sum.self_s": "s",
        "catalog.t_alpha_expand.calls": "count",
        "catalog.t_alpha_expand.self_s": "s",
        "catalog.enumerate_T.calls": "count",
        "catalog.enumerate_T.s": "s",
        "catalog.named_polynomials.s": "s",
        "certify.load_certificate.s": "s",
        "certify.check_sec3.s": "s",
        "certify.check_eq42.s": "s",
        "certify.check_eq52.s": "s",
        "certify.check_eq53.s": "s",
        "certify.combination_orbit_sum.self_s": "s",
        "certify.residual_terms": "count",
    }
    for p in LP_SCOPES:
        for name in ("standard_basis_s", "build_program_s", "solve_s"):
            units[f"lp.{p}.{name}"] = "s"
        units[f"lp.{p}.pivots"] = "count"
        units[f"lp.{p}.pivots_per_s"] = "1/s"
        units[f"lp.{p}.rows"] = "count"
        units[f"lp.{p}.columns"] = "count"
        units[f"lp.{p}.reconstruct_s"] = "s"
        units[f"lp.{p}.ceiling_s"] = "s"
    for c in CAMPAIGNS:
        units[f"atiyah.{c}.run_samples_s"] = "s"
        units[f"atiyah.{c}.sample_config.calls"] = "count"
        units[f"atiyah.{c}.sample_config_s"] = "s"
        units[f"atiyah.{c}.atiyah_det.calls"] = "count"
        units[f"atiyah.{c}.atiyah_det_s"] = "s"
        units[f"atiyah.{c}.atiyah_matrix_s"] = "s"
        units[f"atiyah.{c}.check_self_s"] = "s"
        units[f"atiyah.{c}.violations"] = "count"
    for layer in LAYERS + ("bench",):
        units[f"{layer}.self_s"] = "s"
    units["trace.pass_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def layer_metrics(t: Tracer, setup: Tracer, untraced_pass_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass; idle layers read 0."""
    m = {
        "polyring.mul.calls": t.calls("polyring.mul"),
        "polyring.mul.term_pairs": t.counted("polyring.mul.term_pairs"),
        "polyring.mul.self_s": t.self_s("polyring.mul"),
        "symmetry.orbit_sum.calls": t.calls("symmetry.orbit_sum"),
        "symmetry.orbit_sum.terms_in": t.counted("symmetry.orbit_sum.terms_in"),
        "symmetry.orbit_sum.self_s": t.self_s("symmetry.orbit_sum"),
        "catalog.t_alpha_expand.calls": t.calls("catalog.t_alpha_expand"),
        "catalog.t_alpha_expand.self_s": t.self_s("catalog.t_alpha_expand"),
        "catalog.enumerate_T.calls": t.calls("catalog.enumerate_T"),
        "catalog.enumerate_T.s": t.total_s("catalog.enumerate_T"),
        "catalog.named_polynomials.s": setup.total_s("catalog.named_polynomials"),
        "certify.load_certificate.s": t.total_s("certify.load_certificate"),
        "certify.combination_orbit_sum.self_s": t.self_s("certify.combination_orbit_sum"),
        "certify.residual_terms": t.counted("certify.residual_terms"),
    }
    for name in ("sec3", "eq42", "eq52", "eq53"):
        m[f"certify.check_{name}.s"] = t.total_s(f"certify.check_{name}")
    for p in LP_SCOPES:
        solve_s = t.self_s("lp.solve", p)
        pivots = t.counted("lp.pivots", p)
        m[f"lp.{p}.standard_basis_s"] = t.total_s("lp.standard_basis", p)
        m[f"lp.{p}.build_program_s"] = t.total_s("lp.build_program", p)
        m[f"lp.{p}.solve_s"] = solve_s
        m[f"lp.{p}.pivots"] = pivots
        m[f"lp.{p}.pivots_per_s"] = pivots / solve_s if solve_s else 0.0
        m[f"lp.{p}.rows"] = t.counted("lp.rows", p)
        m[f"lp.{p}.columns"] = t.counted("lp.columns", p)
        m[f"lp.{p}.reconstruct_s"] = t.total_s("lp.reconstruct", p)
        m[f"lp.{p}.ceiling_s"] = t.total_s("lp.upper_bound_check", p)
    for c in CAMPAIGNS:
        m[f"atiyah.{c}.run_samples_s"] = t.total_s("atiyah.run_samples", c)
        m[f"atiyah.{c}.sample_config.calls"] = t.calls("atiyah.sample_config", c)
        m[f"atiyah.{c}.sample_config_s"] = t.self_s("atiyah.sample_config", c)
        m[f"atiyah.{c}.atiyah_det.calls"] = t.calls("atiyah.atiyah_det", c)
        m[f"atiyah.{c}.atiyah_det_s"] = t.self_s("atiyah.atiyah_det", c)
        m[f"atiyah.{c}.atiyah_matrix_s"] = t.self_s("atiyah.atiyah_matrix", c)
        m[f"atiyah.{c}.check_self_s"] = t.self_s("atiyah.run_samples", c)
        m[f"atiyah.{c}.violations"] = t.counted("atiyah.violations", c)
    for layer, seconds in t.layer_self_s().items():
        m[f"{layer}.self_s"] = seconds
    m["trace.pass_s"] = t.wall_s
    m["trace.overhead_s"] = t.wall_s - untraced_pass_s
    return m


# -- inputs and machine ------------------------------------------------------


def setup_once() -> float:
    """Import atiyah4 and build the named polynomials in a fresh process."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources and certificates, for trees without git."""
    digest = hashlib.sha256()
    package = SRC / "atiyah4"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cert"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- one workload ------------------------------------------------------------


def measure(cmds: list, seconds: int) -> tuple[list, list[float]]:
    """Repeat the pass while the next one should still end within the window.

    The set-up is timed between commands, spread evenly over the window,
    and topped up at the end.  A shared host can switch between a fast and
    a slow speed every few seconds, so set-ups timed in one burst all land
    in one state; spread out, their median does not hinge on one moment.
    """
    setup_once()  # warms the bytecode cache
    setup = [setup_once()]
    started = time.perf_counter()

    def between() -> None:
        due = 1 + int((time.perf_counter() - started) * SETUP_REPEATS / seconds)
        while len(setup) < min(due, SETUP_REPEATS):
            setup.append(setup_once())

    passes = []
    while True:
        gc.collect()
        passes.append(workloads.run_pass(cmds, between=between))
        walls = [p.wall_s for p in passes]
        if sum(walls) + statistics.median(walls) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once())
    return passes, setup


def named_figures(cmds: list, passes: list) -> dict[str, float]:
    """verify_s, lp_*_s (seconds) and sample_n*_per_s (rates), pass medians."""
    figures = {}
    for metric in dict.fromkeys(cmd.metric for cmd in cmds):
        group = [cmd for cmd in cmds if cmd.metric == metric]
        values = []
        for p in passes:
            elapsed = sum(p.command_s[cmd.scope] for cmd in group)
            items = sum(cmd.items for cmd in group)
            values.append(items / elapsed if items else elapsed)
        figures[metric] = statistics.median(values)
    return figures


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    from atiyah4 import catalog

    setup_tracer = Tracer()
    if args.trace:
        install(setup_tracer)
        with setup_tracer:
            catalog.named_polynomials()
    else:
        catalog.named_polynomials()

    cmds = workloads.commands(args.workload, args.seed, args.certs)
    lp_cut = args.workload == "lp_programs"
    with workloads.restricted_programs() if lp_cut else contextlib.nullcontext():
        passes, setup = measure(cmds, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            install(tracer)
            gc.collect()
            with tracer:
                traced = workloads.run_pass(cmds, tracer)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    pass_s = statistics.median(p.wall_s for p in passes)
    checked = passes + ([traced] if args.trace else [])
    attempted = sum(p.checks for p in checked)
    failed = sum(p.failed for p in checked)
    failing = [p for p in checked if p.failures]
    if failing:
        print(f"checks failed in {len(failing)} of {len(checked)} passes; first:", file=sys.stderr)
        for failure in failing[0].failures:
            print(f"  {failure}", file=sys.stderr)

    if args.trace:
        values = layer_metrics(tracer, setup_tracer, pass_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        layers = tracer.layer_self_s()
        shares = {layer: round(100 * s / tracer.wall_s, 2) for layer, s in layers.items()}
    else:
        values = {"setup_s": statistics.median(setup), "pass_s": pass_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        shares = None

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed),
        "passes": len(passes),
        "pass_walls_s": [p.wall_s for p in passes],
        "setup_walls_s": setup,
        "named": named_figures(cmds, passes),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
        "self_share_pct": shares,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=1))
    print("detail: " + json.dumps(detail))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- every workload ----------------------------------------------------------


def run_summary(args) -> int:
    """Each workload in a fresh process, one at a time; print the named figures."""
    attempted = failed = 0
    rows = []
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.certs:
            argv += ["--certs", args.certs]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload}: no result (exit {proc.returncode})")
            failed += 1
            attempted += 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
        attempted += result["attempted"]
        failed += result["failed"]
        if workload == workloads.WORKLOADS[0]:
            rows.append(("setup_s", result["metrics"]["setup_s"]["value"], "s", workload))
        for name, value in detail["named"].items():
            rows.append((name, value, "1/s" if name.endswith("_per_s") else "s", workload))
        rows.append(("peak_rss_mb", detail["peak_rss_mb"], "MB", workload))
    rows.append(("failed_frac", failed / max(attempted, 1), "1", f"{failed}/{attempted} checks"))
    for name, value, unit, note in rows:
        print(f"{name:<18} {value:>14.6g} {unit:<4} {note}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--summary", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--certs", metavar="DIR", help="certificate directory for verify_all")
    args = parser.parse_args(argv)
    if args.summary == bool(args.workload):
        parser.error("give exactly one of --workload and --summary")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "atiyah4" / "__init__.py").is_file():
        print(f"error: no atiyah4 sources under {SRC}", file=sys.stderr)
        return 2
    if args.summary:
        return run_summary(args)
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        print("error: the workload raised; no result", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
