"""Benchmark of blaircomp's Wirtinger-flow presets, end to end and per layer.

Run from the root of a checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload fig1-sparse-log --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
makes a separate traced run for the per-layer metrics and writes its spans
to ``.bench_out/``.  ``--workload all`` runs every workload in turn, and
``--smoke`` shrinks the shapes for a quick check with no timing gate.  Each
workload prints one line per metric with its unit and sample count, then
the environment, then one JSON object as its last line: ``correct``,
``attempted`` and ``failed`` (trials) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import workloads

# One BLAS thread per process, so the 2-worker pool stays within nproc = 2.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".bench_out"
MIN_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rel_err_final_digits": "digits",
}

# Runs in a fresh interpreter: the cost of import blaircomp + parse_config.
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import blaircomp
blaircomp.parse_config(None, json.loads(sys.argv[1]))
print(time.perf_counter() - start)
"""


def load_program(root: str):
    """Import blaircomp from the checkout's ``src/``; None if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "blaircomp", "__init__.py")):
        print(f"error: no src/blaircomp under {root}; run from a checkout",
              file=sys.stderr)
        return None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    from blaircomp import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: blaircomp imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return None
    return cli


class Run:
    """One workload on one seed: its repetitions, checks and failure counts."""

    def __init__(self, workload: workloads.Workload, seed: int, smoke: bool,
                 cli, root: str):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.cli = cli
        self.out = os.path.join(root, OUT_DIR,
                                f"{workload.name}-seed{seed}-{os.getpid()}")
        self.reference = None if smoke else workloads.load_reference(workload.name, seed)
        self.min_reps = 1 if smoke else MIN_REPS
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.trial_outcomes = {}   # trial -> its outcome in the first call
        self.call_outcomes = {}    # trial count -> slope, artifact bytes

    def overrides(self, jobs=None, trials=None):
        return self.workload.config_overrides(self.seed, self.out, self.smoke,
                                              jobs, trials)

    def config(self, jobs=None, trials=None):
        return self.cli.parse_config(None, self.overrides(jobs, trials))

    def rep(self, cfg):
        """One run_experiment call, checked; its wall time, or None if it raised."""
        shutil.rmtree(cfg.out, ignore_errors=True)
        start = time.perf_counter()
        try:
            result = self.cli.run_experiment(cfg)
        except Exception:       # a failed run counts as failed trials
            traceback.print_exc(file=sys.stderr)
            self.attempted += cfg.trials
            self.failed += cfg.trials
            self.problems.append("run_experiment raised")
            return None
        wall = time.perf_counter() - start
        self.judge(result, cfg)
        return wall

    def judge(self, result, cfg) -> None:
        """Check one result and that it repeats the earlier calls' outcomes."""
        failed = workloads.check(self.workload.name, result, cfg.out, self.reference)
        got = workloads.outcome(result, cfg.out)
        for trial, now in enumerate(got.pop("trials")):
            then = self.trial_outcomes.setdefault(trial, now)
            if now != then:
                failed.setdefault(trial, f"outcome {now} differs from first "
                                         f"repetition's {then}")
        first = self.call_outcomes.setdefault(cfg.trials, got)
        for key, value in got.items():
            if value != first[key]:
                for trial in range(cfg.trials):
                    failed.setdefault(trial, f"{key} {value} differs from first "
                                             f"repetition's {first[key]}")
        self.attempted += cfg.trials
        self.failed += len(failed)
        self.problems.extend(f"trial {t}: {why}" for t, why in sorted(failed.items()))

    def traced_rep(self, tracer: tracing.Tracer, cfg):
        """One traced, checked run; (wall, per-layer metrics) or None."""
        first = len(tracer.spans)
        with tracer.patched():
            wall = self.rep(cfg)
        tracer.rep += 1
        if wall is None:
            return None
        dims = {"s": cfg.s, "K": cfg.K, "N": cfg.N, "m": cfg.resolved_m()}
        layer = tracing.rep_metrics(tracer.spans, first, wall, dims)
        layer["cli.artifact_bytes"] = workloads.artifact_bytes(cfg.out)
        return wall, layer

    def repeat(self, actions, seconds: float):
        """Call the actions in turn until ``seconds`` pass and each ran
        ``min_reps`` times; the non-None results of each action."""
        results = [[] for _ in actions]
        deadline = time.perf_counter() + seconds
        calls = 0
        while calls < self.min_reps * len(actions) or time.perf_counter() < deadline:
            value = actions[calls % len(actions)]()
            if value is not None:
                results[calls % len(actions)].append(value)
            calls += 1
        return results


def setup_time(root: str, overrides) -> float:
    """Seconds for import blaircomp + parse_config in a fresh interpreter."""
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(overrides)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def end_to_end(run: Run, root: str, seconds: float):
    """(metrics, sample counts, raw times) with tracing off."""
    overrides = run.overrides()
    setup_time(root, overrides)    # untimed: may compile bytecode
    # Untimed first call over the checked trials, traced only to count the
    # solver iterations of each trial.
    tracer = tracing.Tracer(run.workload.name)
    run.traced_rep(tracer, run.config(jobs=1, trials=run.workload.checked_trials))
    if run.workload.pool_jobs:
        run.rep(run.config(jobs=run.workload.pool_jobs,
                           trials=run.workload.checked_trials))
    cfg = run.config()
    # Set-up samples alternate with the timed calls, so both see the same
    # spread of machine load.
    walls, setup = run.repeat([lambda: run.rep(cfg),
                               lambda: setup_time(root, overrides)], seconds)
    wall = _median(walls)
    iters = sum(span[6][0] for span in tracer.spans
                if span[6] is not None and span[4] is not None and span[4] < cfg.trials)
    errors = [t[3] for t in run.trial_outcomes.values()
              if t[3] is not None and math.isfinite(t[3]) and t[3] > 0]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": _median(setup),
        "wall_s": wall,
        "trials_per_s": tracing.ratio(cfg.trials, wall),
        "iters_per_s": tracing.ratio(iters, wall),
        "peak_rss_mb": rss_kb / 1024.0,
        # Digits of accuracy of the worst trial: -log10(worst final error).
        "rel_err_final_digits": -math.log10(max(errors)) if errors else 0.0,
    }
    samples = {"setup_s": len(setup), "wall_s": len(walls), "trials_per_s": len(walls),
               "iters_per_s": len(walls), "peak_rss_mb": 1,
               "rel_err_final_digits": len(errors)}
    return metrics, samples, {"setup_s": setup, "wall_s": walls}


def per_layer(run: Run, seconds: float, spans_path: str):
    """(metrics, sample counts, raw times) from a traced run, with the
    untraced runs that tracing overhead and pool speed-up are measured
    against."""
    tracer = tracing.Tracer(run.workload.name)
    serial, pooled = run.config(jobs=1), run.config(jobs=2)
    warm = run.traced_rep(tracer, serial)
    # Interleaved, so that drifting machine load hits all three alike.
    untraced_1, untraced_2, traced = run.repeat(
        [lambda: run.rep(serial), lambda: run.rep(pooled),
         lambda: run.traced_rep(tracer, serial)], seconds)
    tracer.write(spans_path, rep=1)    # the first timed repetition

    if warm is not None:
        for _, layer in traced:
            for key in tracing.EXACT_COUNTS:
                if layer[key] != warm[1][key]:
                    run.failed += serial.trials
                    run.problems.append(f"{key} {layer[key]} differs from first "
                                        f"repetition's {warm[1][key]}")
    metrics = {name: _median([layer[name] for _, layer in traced])
               for name in tracing.PER_LAYER_UNITS
               if traced and name in traced[0][1]}
    metrics["cli.pool_speedup"] = tracing.ratio(_median(untraced_1), _median(untraced_2))
    traced_wall = _median([wall for wall, _ in traced])
    metrics["trace.overhead_share"] = tracing.ratio(traced_wall, _median(untraced_1)) - 1.0
    share = metrics.get("trace.self_sum_share", 0.0)
    if abs(share - 1.0) > 0.1:
        run.problems.append(f"layer self times sum to {share:.3f} of the traced wall")
    samples = {name: len(traced) for name in tracing.PER_LAYER_UNITS}
    samples["cli.pool_speedup"] = min(len(untraced_1), len(untraced_2))
    return metrics, samples, {"untraced_jobs1_s": untraced_1, "untraced_jobs2_s": untraced_2,
                              "traced_s": [wall for wall, _ in traced]}


def environment(root: str, seed: int):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "commit": _commit(root), "source_sha256": _source_digest(root),
            "seed": seed}


def run_workload(name: str, args, cli, root: str) -> dict:
    run = Run(workloads.WORKLOADS[name], args.seed, args.smoke, cli, root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics, samples, raw = per_layer(run, args.seconds, stem + "-spans.jsonl")
        units = tracing.PER_LAYER_UNITS
    else:
        metrics, samples, raw = end_to_end(run, root, args.seconds)
        units = END_TO_END_UNITS
    shutil.rmtree(run.out, ignore_errors=True)

    env = environment(root, args.seed)
    if run.reference is None and name in workloads.REFERENCED and not args.smoke:
        print(f"{name}: no reference values for seed {args.seed} at these shapes; "
              "invariant checks only", file=sys.stderr)
    for problem in run.problems:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    for metric, unit in units.items():
        print(f"{name}  {metric:<40} {metrics.get(metric, 0.0):>14.6g} {unit:<8} "
              f"(n={samples.get(metric, 0)})")
    print(f"{name}  {'failed_share':<40} "
          f"{tracing.ratio(run.failed, run.attempted):>14.6g} {'share':<8} "
          f"(n={run.attempted} trials)")
    print(f"{name}  env {json.dumps(env)}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {metric: {"value": float(metrics.get(metric, 0.0)), "unit": unit}
                    for metric, unit in units.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, samples=samples, raw_times=raw, environment=env,
                       problems=run.problems), fh, indent=2)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, one repetition, no reference values")
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli = load_program(root)
    if cli is None:
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args, cli, root)
        print(json.dumps(result), flush=True)
    return 0


def _commit(root: str) -> str:
    """HEAD of the checkout's git directory, if it has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest(root: str) -> str:
    """sha256 over src/blaircomp's Python files, which names the code when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "blaircomp")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(main())
