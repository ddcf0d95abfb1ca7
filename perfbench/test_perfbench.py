"""Self-tests of the benchmark, on the tiny inputs of every workload.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
Each test starts the benchmark as its own process, the way it is run
for real, and reads the JSON result line it prints.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep", "ladder", "store", "tabulate"]

# What the tamper of each workload corrupts, and the checks that must catch it.
TAMPER_REASONS = {
    "sweep": ["report bytes differ across repeats"],
    "ladder": ["bad estimate row"],
    "store": ["top 3 is not a prefix of top 4", "reopen lost data"],
    "tabulate": ["row t=0"],
}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bench(workload: str, *extra: str, seed: int = 3, trace: int = 0, cwd: str = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    return last


def failures(workload: str, seed: int = 3, trace: int = 0) -> dict:
    path = os.path.join(HERE, "out", f"result-{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)["failures"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_end_to_end_metric(workload):
    res = result(bench(workload))
    names = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["failed"] == 0 and res["correct"], failures(workload)


def test_store_reports_reopen_mismatches():
    """The tiny store puts 600-step traces, longer than SERIES_CAP, so the
    share of puts that read back differently after a reopen is measured."""
    result(bench("store"))
    with open(os.path.join(HERE, "out", "result-store-s3-t0.json"), encoding="utf-8") as f:
        value, unit, checked = json.load(f)["details"]["reopen_mismatch_ratio"]
    assert unit == "ratio" and checked > 0 and 0 <= value <= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_output_counts_as_failed_op(workload):
    res = result(bench(workload, "--tamper"))
    assert res["failed"] >= 1 and not res["correct"]
    reasons = failures(workload)
    for expected in TAMPER_REASONS[workload]:
        assert any(reason.startswith(expected) for reason in reasons), reasons


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    res = result(bench(workload, trace=1))
    names = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("sweep", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
