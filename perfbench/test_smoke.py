"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, must answer correctly and print every metric BENCHMARK.json names.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout  # fail_rate 0
    assert result["correct"] is True
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_requests_come_from_the_seed():
    first = _run("--workload", "all", "--seed", "5", "--dump", "8").stdout
    assert first == _run("--workload", "all", "--seed", "5", "--dump", "8").stdout
    assert first != _run("--workload", "all", "--seed", "6", "--dump", "8").stdout
    assert len(first.splitlines()) == 8 * len(WORKLOADS)


def test_benchmark_json_records_each_mix():
    assert WORKLOADS == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.why(w["name"])
        assert len(w["why"]) <= 200


def test_traced_cycle_meets_every_option():
    def cycle(workload):
        return [workloads.request(workload, 1, i) for i in range(workloads.full_cycle(workload))]

    grid, solve, scan, sets = (cycle(w) for w in ("grid", "solve", "scan", "sets"))
    assert {r["call"]["kind"] for r in grid if r["type"] == "rules_lib"} == set(workloads.RULE_KINDS)
    assert {r["call"]["entry"] for r in grid if r["type"] == "residual_lib"} == set(range(workloads.RESIDUAL_ENTRIES))
    constraints = [json.loads(text)["type"] for r in solve if r["type"] == "solve_constrained" for text in r["files"].values()]
    assert set(constraints) == set(workloads.CONSTRAINT_KINDS)
    checks = {(r["expect"]["first_line"], r["argv"][4]) for r in scan if r["type"] == "check_cli"}
    assert checks == {(line, "2" if case == "quadcap2" else "1") for case, line, _ in workloads.CHECK_CASES}
    for kind in ("set_halfspace", "set_polyhedron", "set_ellipsoid"):
        assert {len(r["call"]["xs"][0]) for r in sets if r["type"] == kind} == set(workloads.SET_DIMS)
