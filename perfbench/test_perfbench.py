"""The benchmark's own tests: output schema, exact counts, negative controls.

Run from the root of the source tree (takes about five minutes on two
cores, most of it in ``lp_programs``):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = BENCH / "out"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def assert_metrics(result: dict, spec: list[dict]) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit_and_counts_repeat(workload):
    untraced = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert untraced.returncode == 0, untraced.stderr
    result = result_of(untraced)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    counts = []
    for _ in range(2):
        traced = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert traced.returncode == 0, traced.stderr
        result = result_of(traced)
        assert result["correct"] and result["failed"] == 0
        assert_metrics(result, SPEC["per_layer"])
        assert result["metrics"]["certify.residual_terms"]["value"] == 0
        counts.append(
            {n: m["value"] for n, m in result["metrics"].items() if m["unit"] == "count"}
        )
    assert counts[0] == counts[1]


def test_corrupted_certificate_is_counted_as_failed():
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        certs = Path(tmp)
        for cert in (ROOT / "src" / "atiyah4" / "data" / "certificates").glob("*.cert"):
            shutil.copy(cert, certs)
        sec3 = certs / "sec3.cert"
        text = sec3.read_text()
        first = text.index("coeff = ")
        end = text.index("\n", first)
        value = int(text[first + len("coeff = "):end])
        sec3.write_text(text[:first] + f"coeff = {value + 1}" + text[end:])
        proc = bench("--workload", "verify_all", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--certs", str(certs))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    result = result_of(proc)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_sources():
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        tree = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        shutil.copytree(BENCH, tree / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tree)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
