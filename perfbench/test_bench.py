"""Tests of the benchmark itself, with no timing gate.

    python3 -m pytest perfbench

The smoke runs use ``--smoke`` (tiny shapes, one repetition) and check that
each workload prints exactly the metrics BENCHMARK.json lists.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for metric in spec:
        assert f"{workload}  {metric['name']} " in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", NAMES[0], "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _fig1_result(n_iters, error):
    return {"trials": [{"trial": 0, "diverged": False, "error": None,
                        "n_iters": n_iters, "converged": False,
                        "final_relative_error": error}],
            "report": {}}


def test_fig1_check_compares_against_reference():
    reference = [[500, 1.0e-4]]
    assert workloads.check("fig1-sparse-log", _fig1_result(500, 1.0e-4), "",
                           reference) == {}
    assert 0 in workloads.check("fig1-sparse-log", _fig1_result(500, 1.01e-4), "",
                                reference)
    assert 0 in workloads.check("fig1-sparse-log", _fig1_result(499, 1.0e-4), "",
                                reference)


def test_noise_check_fails_every_trial_outside_the_slope_window():
    trials = [{"trial": t, "diverged": False, "error": None, "n_iters": 300,
               "converged": True, "final_relative_error": 9e-7} for t in range(2)]
    good = {"trials": trials, "report": {"noise_sweep": {"slope_db_per_db": -1.0}}}
    bad = {"trials": trials, "report": {"noise_sweep": {"slope_db_per_db": -0.5}}}
    assert workloads.check("noise-sweep-pool", good, "", None) == {}
    assert set(workloads.check("noise-sweep-pool", bad, "", None)) == {0, 1}
