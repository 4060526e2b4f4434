"""Quick test of the benchmark itself, at one second per run.

    python3 -m pytest perfbench/test_quick.py -q

Every metric BENCHMARK.json names is printed with its unit, no op fails,
the output digest repeats for one seed, the traced counts the layer map
relies on hold, and without the program the benchmark fails loudly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


def digest_line(proc: subprocess.CompletedProcess) -> str:
    return next(line for line in proc.stdout.splitlines() if line.startswith("digest "))


def assert_metrics(result: dict, kind: str) -> None:
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        if kind == "end_to_end":
            assert printed["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    first, second = bench(ROOT, workload, 7, 0), bench(ROOT, workload, 7, 0)
    for proc in (first, second):
        assert_metrics(result_of(proc), "end_to_end")
        assert "error_rate 0.000000" in proc.stdout
    assert digest_line(first) == digest_line(second)
    assert digest_line(first) != digest_line(bench(ROOT, workload, 8, 0))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_of(bench(ROOT, workload, 7, 1))
    assert_metrics(result, "per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    expected_support_calls = {"jobs": 0, "sweep": 3, "wide": 4}[workload]
    assert values["cuspsupport.support_calls"] == expected_support_calls
    if workload == "jobs":
        assert values["lparams.exponent_entries"] == 0
    assert sum(values[f"{layer}.share"] for layer in
               ("cli", "orbits", "symbols", "springer", "lparams", "cuspsupport",
                "bernstein", "census", "verifications")) <= 100.0 + 1e-9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
