"""Smoke test of the benchmark harness at tiny sizes, so it cannot rot.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from inputs import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args, "--seed", "3", "--seconds", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check_result(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_all_workloads_untraced():
    proc = _run("--workload", "all", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    results = json.loads(lines[-1])
    assert list(results) == list(WORKLOADS)
    for result in results.values():
        _check_result(result, "end_to_end")
        assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(lines)
    for name in ("setup_s", "session_s", "decompose_s", "verify_s", "reconstruct_s",
                 "oscillator_s", "coefficient_us", "spectrum_s", "truncate_s",
                 "peak_rss_mb", "fail_rate"):
        assert name in table


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    proc = _run("--workload", workload, "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_result(result, "per_layer")
    assert result["metrics"]["trace.counts_repeat"]["value"] == 1
    assert "work counts repeat exactly between the two traced passes: yes" in proc.stdout


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dense-exact", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_launcher_reports_the_childs_own_peak_rss(tmp_path):
    import run

    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    launcher = run.Launcher(dict(os.environ))
    try:
        rc, wall, rss = launcher.run([sys.executable, "-c", "pass"], str(tmp_path / "child"))
    finally:
        launcher.close()
    assert rc == 0 and wall > 0
    assert rss < 100, "the child's peak RSS includes the spawning process's"


def test_oscillator_miss_tells_known_imprecision_from_a_wrong_value():
    import checks

    assert checks.oscillator_miss("norm", 1.0 + 5e-9, 1.0, 1e-8) is None
    reason, reference = checks.oscillator_miss("norm", 1.0 + 8e-7, 1.0, 1e-8)
    assert not reference and "known" in reason
    assert checks.oscillator_miss("norm", 0.9, 1.0, 1e-8)[1]
    assert checks.oscillator_miss("norm", float("nan"), 1.0, 1e-8)[1]


def test_reference_failure_is_not_masked_by_a_verify_rejection():
    import checks

    plan = {"ops": [
        {"kind": "decompose", "argv": ["decompose", "in.json", "--form", "vidal", "--out", "v.json"]},
        {"kind": "verify", "argv": ["verify", "v.json"], "of": 0},
        {"kind": "reconstruct", "argv": ["reconstruct", "v.json", "--out", "b.json"], "of": 0},
    ], "residual_bound": 0.1, "reference_norm": 1.0}
    results = [
        {"rc": 0, "out": json.dumps({"truncation_errors": [0.5]}), "err": ""},
        {"rc": 3, "out": json.dumps({"residuals": [0.9], "tol": 1e-10}), "err": ""},
        {"rc": 0, "out": json.dumps({"residual": 0.01}), "err": ""},
    ]
    attempted, failures = checks.check_cli(plan, results)
    assert attempted == 3 and len(failures) == 1
    assert failures[0].reference, failures[0].reason
