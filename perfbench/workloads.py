"""The benchmark's workloads and the checks that judge their outputs.

Each workload is a preset configuration passed to ``cli.parse_config``; the
seed is the only input that varies between runs.  The checks compare a
``cli.run_experiment`` result against reference values recorded at the
commit that introduced the benchmark (``reference.json``, written by
``make_reference.py``) and, for seeds that the table does not cover, against
invariants that every healthy run satisfies.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

# Final relative errors and the hypothesis-value sums must match the
# reference, which stores 12 digits, to this relative tolerance.  Reordered
# floating-point sums move them by far less.
REL_ERR_RTOL = 1e-6
# Acceptance criterion 8: the fitted dB/dB noise-sweep slope.
SLOPE_WINDOW = (-1.2, -0.8)
# Artifacts that are byte-stable for a fixed seed.  stages.json is left out
# because it records the run's wall clock.
STABLE_ARTIFACTS = ("trace.csv", "report.json", "plot.gp", "noise_sweep.csv",
                    "hypotheses_*.csv")

# Workloads with per-seed values in reference.json.
REFERENCED = ("fig1-sparse-log", "diagnostics-suite")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: Dict          # parse_config overrides, seed and out excluded
    trials: int              # per timed run_experiment call, at jobs=1
    # Trials of the untimed first call, which the accuracy metric and the
    # reference checks cover; trial i is the same whatever the trial count.
    checked_trials: int
    # Workers of an untimed pooled call over the checked trials, which must
    # reproduce the serial call's outcomes; 0 for none.
    pool_jobs: int = 0
    smoke: Dict = field(default_factory=dict)   # replaces overrides in smoke mode

    def config_overrides(self, seed: int, out: str, smoke: bool,
                         jobs: Optional[int] = None,
                         trials: Optional[int] = None) -> Dict:
        overrides = dict(self.overrides, trials=self.trials, jobs=1)
        if trials is not None and not smoke:
            overrides["trials"] = trials
        if smoke:
            overrides.update(self.smoke)
        overrides.update(seed=seed, out=out)
        if jobs is not None:
            overrides["jobs"] = jobs
        return overrides


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig1-sparse-log",
        overrides=dict(preset="fig1-convergence", s=10, K=20, N=20, m=1000,
                       max_iters=500, cadence=50),
        trials=1, checked_trials=4,
        smoke=dict(s=2, K=4, N=4, m=40, max_iters=20, cadence=5)),
    Workload(
        name="diagnostics-suite",
        overrides=dict(preset="diagnostics", s=2, K=8, N=8, m=400,
                       max_iters=80, loo_samples=8),
        trials=1, checked_trials=4,
        smoke=dict(K=4, N=4, m=60, max_iters=10, loo_samples=2)),
    Workload(
        name="noise-sweep-pool",
        # The preset's 500 iterations stop about one trial in 40 short of tol.
        overrides=dict(preset="noise-sweep", s=1, K=10, N=10, m=100,
                       max_iters=1000,
                       sigma_w_grid=[1.0, 1e1, 1e2, 1e3, 1e4, 1e5]),
        # Timed at jobs=1: a 2-worker pool on a 2-core shared host times the
        # host's other load more than the program.
        trials=16, checked_trials=16, pool_jobs=2,
        smoke=dict(trials=2)),
)}


def load_reference(workload: str, seed: int) -> Optional[List]:
    """Per-trial reference values for (workload, seed), or None."""
    try:
        with open(REFERENCE_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def artifact_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(path) for pattern in STABLE_ARTIFACTS
               for path in glob.glob(os.path.join(out_dir, pattern)))


def outcome(result: Dict, out_dir: str) -> Dict:
    """Everything a rerun on the same seed must reproduce exactly."""
    return {
        "trials": [(t["diverged"], t.get("n_iters"), t.get("converged"),
                    t.get("final_relative_error")) for t in result["trials"]],
        "slope": result["report"].get("noise_sweep", {}).get("slope_db_per_db"),
        "artifact_bytes": artifact_bytes(out_dir),
    }


def reference_values(workload: str, result: Dict, out_dir: str) -> List:
    """The per-trial values ``check`` compares against (see reference.json)."""
    trials = result["trials"]
    if workload == "fig1-sparse-log":
        return [[t["n_iters"], _round(t["final_relative_error"])] for t in trials]
    if workload == "diagnostics-suite":
        refs = []
        for t, conc in zip(trials, result["report"]["concentration"]):
            rows = _hypothesis_rows(out_dir, t["trial"])
            refs.append({"rows": len(rows),
                         "nonfinite": [key for key, value in rows
                                       if not math.isfinite(value)],
                         "ok": [conc["first_entry_ok"], conc["design_norm_ok"]],
                         "values": [_round(v) for v in _fingerprint(t, rows)]})
        return refs
    return []


def check(workload: str, result: Dict, out_dir: str,
          reference: Optional[List]) -> Dict[int, str]:
    """Failed trials of one ``run_experiment`` result, with the reason.

    A check over the whole run (the noise-sweep slope) fails every trial.
    """
    failed: Dict[int, str] = {}
    for t in result["trials"]:
        if t["diverged"]:
            failed[t["trial"]] = f"diverged: {t['error']}"
        elif not math.isfinite(t["final_relative_error"]):
            failed[t["trial"]] = "non-finite final relative error"
    if workload == "fig1-sparse-log":
        _check_fig1(result, reference, failed)
    elif workload == "diagnostics-suite":
        _check_diagnostics(result, out_dir, reference, failed)
    elif workload == "noise-sweep-pool":
        _check_noise(result, failed)
    return failed


def _check_fig1(result, reference, failed) -> None:
    for t in result["trials"]:
        i = t["trial"]
        if i in failed or reference is None or i >= len(reference):
            continue
        n_ref, err_ref = reference[i]
        if t["n_iters"] != n_ref:
            failed[i] = f"n_iters {t['n_iters']} != reference {n_ref}"
        elif not _close(t["final_relative_error"], err_ref):
            failed[i] = (f"final relative error {t['final_relative_error']!r} "
                         f"!= reference {err_ref!r}")


def _check_diagnostics(result, out_dir, reference, failed) -> None:
    concentration = result["report"]["concentration"]
    for t, conc in zip(result["trials"], concentration):
        i = t["trial"]
        if i in failed:
            continue
        rows = _hypothesis_rows(out_dir, i)
        flags = [conc["first_entry_ok"], conc["design_norm_ok"]]
        known = reference is not None and i < len(reference)
        ref = reference[i] if known else {
            "rows": len(rows), "nonfinite": [], "ok": [True, True]}
        allowed: Set[str] = set(ref["nonfinite"])
        bad = [key for key, value in rows
               if not math.isfinite(value) and key not in allowed]
        if len(rows) != ref["rows"]:
            failed[i] = f"{len(rows)} hypothesis rows, reference has {ref['rows']}"
        elif bad:
            failed[i] = f"{len(bad)} non-finite hypothesis values, first {bad[0]}"
        elif flags != ref["ok"]:
            failed[i] = f"concentration flags {flags} != reference {ref['ok']}"
        elif known:
            got, want = _fingerprint(t, rows), ref["values"]
            if len(got) != len(want) or not all(map(_close, got, want)):
                failed[i] = (f"final error and hypothesis sums {got} != "
                             f"reference {want}")


def _check_noise(result, failed) -> None:
    for t in result["trials"]:
        if t["trial"] not in failed and not t.get("converged"):
            failed[t["trial"]] = "did not converge"
    slope = result["report"].get("noise_sweep", {}).get("slope_db_per_db")
    lo, hi = SLOPE_WINDOW
    if slope is None or not lo <= slope <= hi:
        for t in result["trials"]:
            failed.setdefault(t["trial"], f"noise slope {slope!r} outside {SLOPE_WINDOW}")


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_ERR_RTOL * abs(want)


def _round(value: float) -> float:
    return float(f"{value:.12g}")


def _fingerprint(trial: Dict, rows) -> List[float]:
    """A diagnostics trial's final relative error, then per hypothesis
    quantity in name order the sum of its finite values."""
    sums: Dict[str, List[float]] = {}
    for key, value in rows:
        if math.isfinite(value):
            sums.setdefault(key.split(":")[1], []).append(value)
    return [trial["final_relative_error"]] + [math.fsum(sums[name])
                                              for name in sorted(sums)]


def _hypothesis_rows(out_dir: str, trial: int) -> List:
    """(t:quantity:node, value) for every row of a hypotheses CSV."""
    path = os.path.join(out_dir, f"hypotheses_{trial}.csv")
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(f"{t}:{name}:{node}", float(value))
                for t, name, node, value, _ in reader]
