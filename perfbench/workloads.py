"""The benchmark's workloads: which ``atiyah4`` commands one pass runs, and
the exact checks applied to every report.

A pass calls ``cli.main([..., "--json", ...])`` in-process for each
command, captures the JSON report, and checks every entry.  A check is
one report entry (status and exact value) or the command's exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from typing import Callable

#: Sample counts per campaign in one ``sample_mix`` pass.
SAMPLE_COUNT = 4000

#: ``lp_programs`` keeps every this-many-th T6 column beside the optimal
#: supports (see ``restricted_programs``).
LP_COLUMN_STRIDE = 7

#: Columns of optimal solutions of the three full programs (t6: alpha 32,
#: z4,n4: alpha 60, z4,n4,v4sq: alpha 188/3), as found by the exact solver.
#: Any column family containing them has the same three optima.
LP_SUPPORT = frozenset(
    {
        "av[t^310,001,000,100]",
        "av[t^310,000,001,100]",
        "av[t^300,101,010,000]",
        "av[t^300,100,011,000]",
        "av[t^220,100,010,000]",
        "av[t^220,001,000,100]",
        "av[t^211,100,100,000]",
        "av[t^211,100,010,000]",
        "av[t^211,100,000,100]",
        "av[t^211,100,000,010]",
        "av[t^211,010,100,000]",
        "av[t^210,110,010,000]",
        "av[t^210,101,100,000]",
        "av[t^210,100,101,000]",
        "av[t^210,100,020,000]",
        "av[t^210,011,010,000]",
        "av[t^210,001,001,100]",
        "av[t^210,000,011,100]",
        "av[t^210,000,001,110]",
        "av[t^200,010,111,000]",
        "av[t^111,110,100,000]",
        "av[t^111,100,100,100]",
        "av[t^110,101,101,000]",
    }
)

EXTRA_NAMES = ("z4", "n4", "v4sq")


@dataclass
class Command:
    """One ``atiyah4`` invocation of a pass."""

    metric: str  # named figure its wall time (or rate, with items) feeds
    scope: str  # tracer scope; also keys its wall time in the pass
    argv: list[str]
    check: Callable[[dict, int], list[bool]]
    items: int = 0  # configurations sampled, for the per-second figures


@dataclass
class PassResult:
    wall_s: float
    command_s: dict[str, float] = field(default_factory=dict)
    checks: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


# -- checks -------------------------------------------------------------------


def _entries(report: dict) -> dict[str, dict]:
    return {entry["name"]: entry for entry in report.get("checks", [])}


def check_verify(report: dict, code: int) -> list[bool]:
    entries = _entries(report)
    results = []
    for name, identity in (
        ("sec3", "sec3-188/3"),
        ("eq42", "eq42"),
        ("eq52", "eq52"),
        ("eq53", "eq53"),
    ):
        entry = entries.get(name, {})
        results.append(
            entry.get("status") == "pass"
            and entry.get("detail", "").startswith(f"{identity}: PASS (residual 0,")
        )
    entry = entries.get("factorization", {})
    results.append(entry.get("status") == "pass" and "over 1000 samples" in entry.get("detail", ""))
    entry = entries.get("vectors34", {})
    detail = entry.get("detail", "")
    results.append(
        entry.get("status") == "pass"
        and detail.startswith("21/21 satisfy d4 = 64 p4")
        and "d4(9,8,1,1,7,8) = 258048" in detail
    )
    results.append(code == 0)
    return results


def check_lp(alpha: str) -> Callable[[dict, int], list[bool]]:
    def check(report: dict, code: int) -> list[bool]:
        entries = _entries(report)
        solved = entries.get("lp", {})
        ceiling = entries.get("ceiling", {})
        return [
            solved.get("status") == "pass"
            and solved.get("alpha") == alpha
            and "matrix reconstruction ok, polynomial reconstruction ok"
            in solved.get("detail", ""),
            ceiling.get("status") == "pass"
            and ceiling.get("detail", "").startswith("objective ceiling 64 from witness"),
            code == 0,
        ]

    return check


def check_sample(count: int) -> Callable[[dict, int], list[bool]]:
    def check(report: dict, code: int) -> list[bool]:
        entries = report.get("checks", [])
        stats = entries[0].get("stats", {}) if len(entries) == 1 else {}
        return [
            len(entries) == 1
            and entries[0].get("status") == "pass"
            and stats.get("checked") == count
            and stats.get("identity_violations") == 0
            and stats.get("margin_violations") == 0
            and stats.get("degenerate") == 0,
            code == 0,
        ]

    return check


# -- workloads ----------------------------------------------------------------


def _restricted(basis: list) -> list:
    t6 = [name for name, _ in basis if name.startswith("av[")]
    missing = LP_SUPPORT.difference(t6)
    if missing:
        raise RuntimeError(f"optimal-support columns missing from T6: {sorted(missing)}")
    others = [name for name in t6 if name not in LP_SUPPORT]
    # Starting at the second column gives 409-463 pivots per program, so the
    # simplex, not the basis build, is the largest share of a pass.
    keep = LP_SUPPORT.union(others[1::LP_COLUMN_STRIDE])
    return [col for col in basis if col[0] in keep or not col[0].startswith("av[")]


@contextlib.contextmanager
def restricted_programs():
    """Make ``lp.build_program`` keep only part of the T6 family.

    The kept columns are the optimal supports plus every
    ``LP_COLUMN_STRIDE``-th other T6 column.  Solving the full 517-column
    programs takes 100-115 s each on two cores, far past the run budget; a
    family that contains an optimal support keeps the optimum exact, so
    the checks stay exact.  ``cmd_lp`` still builds the full basis,
    reconstructs against it and runs the ceiling over it; only the program
    handed to the simplex is cut.
    """
    from atiyah4 import lp

    original = lp.build_program
    lp.build_program = lambda basis: original(_restricted(basis))
    try:
        yield
    finally:
        lp.build_program = original


def commands(workload: str, seed: int, certs: str | None) -> list[Command]:
    head = ["--json", "--seed", str(seed)] + (["--certs", certs] if certs else [])
    if workload == "verify_all":
        return [Command("verify_s", "factorization", head + ["verify", "all"], check_verify)]
    if workload == "lp_programs":
        return [
            Command(f"lp_{scope}_s", scope, head + ["lp", "--extra", extra], check_lp(alpha))
            for scope, extra, alpha in (
                ("t6", "", "32"),
                ("z4n4", "z4,n4", "60"),
                ("z4n4v4sq", "z4,n4,v4sq", "188/3"),
            )
        ]
    if workload == "sample_mix":
        return [
            Command(
                f"sample_n{n}_per_s",
                scope,
                head + ["sample", "--n", n, "--count", str(SAMPLE_COUNT), "--mode", mode],
                check_sample(SAMPLE_COUNT),
                items=SAMPLE_COUNT,
            )
            for scope, n, mode in (
                ("n4_generic", "4", "generic"),
                ("n4_collinear", "4", "near-collinear"),
                ("n6_generic", "6", "generic"),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify_all", "lp_programs", "sample_mix")


def run_pass(cmds: list[Command], tracer=None, between=None) -> PassResult:
    """Run every command once, in order, and check its report.

    The pass's wall time is the sum of its commands' wall times.  With a
    tracer, its scope names the command running, so per-program and
    per-campaign calls are told apart.  ``between`` is called after each
    command, outside the timed part.
    """
    from atiyah4 import cli

    result = PassResult(wall_s=0.0)
    for cmd in cmds:
        if tracer is not None:
            tracer.scope = cmd.scope
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(cmd.argv)
        result.command_s[cmd.scope] = time.perf_counter() - t0
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            report = {}
        checks = cmd.check(report, code)
        result.checks += len(checks)
        if not all(checks):
            result.failed += checks.count(False)
            wrong = [
                f"{entry.get('name')} {entry.get('status')}: {entry.get('detail', '')[:200]}"
                for entry in report.get("checks", [])
                if entry.get("status") != "pass"
            ]
            result.failures.append(
                f"{cmd.metric}: exit {code}; " + ("; ".join(wrong) or out.getvalue()[:500])
            )
        if between is not None:
            between()
    result.wall_s = sum(result.command_s.values())
    if tracer is not None:
        tracer.scope = ""
    return result
