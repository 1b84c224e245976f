"""Spans around blaircomp's layers, patched in from outside the package.

Each patch point replaces a function under the name its caller looks it up
by, so ``src/`` stays untouched.  A span records its name, start, end, the
span that was open when it began (its parent), and the trial it belongs to.
A span's self time is its duration minus its direct children's durations; a
layer's self time sums the self times of its spans, so the layers' self
times add up to the traced ``run_experiment`` call.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

# (module the caller looks the name up in, attribute, span name).  The span
# name's prefix is the layer the function belongs to.
PATCH_POINTS = (
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "_run_trial", "cli._run_trial"),
    ("cli", "make_instance", "ensemble.make_instance"),
    ("cli", "run_wf", "solver.run_wf"),
    ("diagnostics", "run_wf", "solver.run_wf"),
    ("solver", "wf_step", "solver.wf_step"),
    ("metrics", "snapshot_metrics", "metrics.snapshot_metrics"),
    ("metrics", "align_pair", "metrics.align_pair"),
    ("state_evolution", "detect_stages", "state_evolution.detect_stages"),
    ("diagnostics", "canonicalize_instance", "diagnostics.canonicalize_instance"),
    ("diagnostics", "run_diagnostics_suite", "diagnostics.run_diagnostics_suite"),
    ("diagnostics", "measure_hypotheses", "diagnostics.measure_hypotheses"),
    ("diagnostics", "concentration_report", "diagnostics.concentration_report"),
)
LAYERS = ("cli", "ensemble", "solver", "metrics", "state_evolution", "diagnostics")

# Per-layer metrics: name -> unit.  Times are seconds per run_experiment call.
PER_LAYER_UNITS = {
    "ensemble.make_instance.calls": "count",
    "ensemble.make_instance.s": "s",
    "ensemble.design_tensor_mb": "MB",
    "ensemble.self_s": "s",
    "solver.run_wf.calls": "count",
    "solver.iters": "count",
    "solver.run_wf.self_s": "s",
    "solver.us_per_iter": "us",
    "solver.wf_step.s": "s",
    "solver.flops_per_iter": "flop",
    "solver.bytes_per_iter": "B",
    "solver.gflops": "GFLOP/s",
    "solver.kernel_share": "share",
    "solver.self_s": "s",
    "metrics.align_pair.calls": "count",
    "metrics.align_pair.s": "s",
    "metrics.align_pair.us_per_call": "us",
    "metrics.snapshot_metrics.calls": "count",
    "metrics.snapshot_metrics.self_s": "s",
    "metrics.align_per_node_iterate": "ratio",
    "metrics.align_share": "share",
    "metrics.self_s": "s",
    "state_evolution.detect_stages.s": "s",
    "state_evolution.self_s": "s",
    "diagnostics.run_diagnostics_suite.s": "s",
    "diagnostics.aux_runs": "count",
    "diagnostics.measure_hypotheses.s": "s",
    "diagnostics.measure_hypotheses.self_s": "s",
    "diagnostics.self_s": "s",
    "cli.run_experiment.s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "cli.pool_speedup": "x",
    "trace.overhead_share": "share",
    "trace.self_sum_share": "share",
}
# Counts that must repeat exactly across repetitions on one seed.
EXACT_COUNTS = ("solver.iters", "solver.run_wf.calls", "metrics.align_pair.calls",
                "diagnostics.aux_runs", "cli.artifact_bytes")


class Tracer:
    """Records spans while ``patched()`` is active; spans stay in memory
    until ``write``."""

    def __init__(self, workload: str):
        self.workload = workload
        # [name, start, end, parent index, trial, rep, (iters, node-iterates)]
        self.spans: List[list] = []
        self.rep = 0
        self._stack: List[int] = []
        self._trial: Optional[int] = None

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, span_name in PATCH_POINTS:
                module = importlib.import_module(f"blaircomp.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_trial = name == "cli._run_trial"
        is_run = name == "solver.run_wf"

        def traced(*args, **kwargs):
            if is_trial:
                self._trial = args[1]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trial,
                    self.rep, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if is_trial:
                    self._trial = None
            if is_run:
                span[6] = (result.n_iters, len(result.t) * result.s)
            return result

        return traced

    def write(self, path: str, rep: int) -> None:
        """One JSON object per span of repetition ``rep``; parent is the
        parent span's line number, -1 for none."""
        first = next((i for i, span in enumerate(self.spans) if span[5] == rep),
                     len(self.spans))
        with open(path, "w") as fh:
            for name, start, end, parent, trial, span_rep, _ in self.spans[first:]:
                if span_rep != rep:
                    break
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent - first if parent >= 0 else -1,
                                     "workload": self.workload, "trial": trial,
                                     "rep": rep}) + "\n")


def rep_metrics(all_spans: List[list], first: int, wall_s: float,
                dims: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run_experiment call.

    The call's spans are ``all_spans[first:]``; ``wall_s`` is the call's
    time measured around it and ``dims`` holds s, K, N, m of the instance.
    """
    spans = all_spans[first:]
    child_s: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    iters = node_iterates = 0
    suite_runs = 0
    suites = {i for i, span in enumerate(spans, first)
              if span[0] == "diagnostics.run_diagnostics_suite"}
    for index, span in enumerate(spans, first):
        name, start, end = span[0], span[1], span[2]
        own = (end - start) - child_s[index]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if span[6] is not None:
            iters += span[6][0]
            node_iterates += span[6][1]
            if _has_ancestor(spans, first, span, suites):
                suite_runs += 1

    s, K, N, m = dims["s"], dims["K"], dims["N"], dims["m"]
    # Forward and gradient: four complex contractions of s*m*(K or N)
    # multiply-adds, 8 real flops each.  Computed, not measured.
    flops_per_iter = 8.0 * 2 * s * m * (K + N)
    # Two passes over the design tensor and the access matrix.  Computed from
    # array sizes; cache reuse is ignored.
    bytes_per_iter = 2.0 * 16 * (s * m * N + m * K)
    kernel_s = self_s["solver.run_wf"]
    gradients = iters + calls["solver.run_wf"]   # one extra at t = 0 per run
    align_calls = calls["metrics.align_pair"]
    return {
        "ensemble.make_instance.calls": calls["ensemble.make_instance"],
        "ensemble.make_instance.s": total["ensemble.make_instance"],
        "ensemble.design_tensor_mb": 16.0 * s * m * N / 1e6,
        "ensemble.self_s": layer_self["ensemble"],
        "solver.run_wf.calls": calls["solver.run_wf"],
        "solver.iters": iters,
        "solver.run_wf.self_s": kernel_s,
        "solver.us_per_iter": ratio(kernel_s * 1e6, iters),
        "solver.wf_step.s": total["solver.wf_step"],
        "solver.flops_per_iter": flops_per_iter,
        "solver.bytes_per_iter": bytes_per_iter,
        "solver.gflops": ratio(flops_per_iter * gradients / 1e9, kernel_s),
        "solver.kernel_share": ratio(kernel_s, wall_s),
        "solver.self_s": layer_self["solver"],
        "metrics.align_pair.calls": align_calls,
        "metrics.align_pair.s": total["metrics.align_pair"],
        "metrics.align_pair.us_per_call": ratio(total["metrics.align_pair"] * 1e6,
                                                 align_calls),
        "metrics.snapshot_metrics.calls": calls["metrics.snapshot_metrics"],
        "metrics.snapshot_metrics.self_s": self_s["metrics.snapshot_metrics"],
        "metrics.align_per_node_iterate": ratio(align_calls, node_iterates),
        "metrics.align_share": ratio(total["metrics.align_pair"], wall_s),
        "metrics.self_s": layer_self["metrics"],
        "state_evolution.detect_stages.s": total["state_evolution.detect_stages"],
        "state_evolution.self_s": layer_self["state_evolution"],
        "diagnostics.run_diagnostics_suite.s": total["diagnostics.run_diagnostics_suite"],
        "diagnostics.aux_runs": ratio(suite_runs, len(suites)),
        "diagnostics.measure_hypotheses.s": total["diagnostics.measure_hypotheses"],
        "diagnostics.measure_hypotheses.self_s": self_s["diagnostics.measure_hypotheses"],
        "diagnostics.self_s": layer_self["diagnostics"],
        "cli.run_experiment.s": total["cli.run_experiment"],
        "cli.self_s": layer_self["cli"],
        "trace.self_sum_share": ratio(sum(layer_self[l] for l in LAYERS), wall_s),
    }


def _has_ancestor(spans, first, span, targets) -> bool:
    parent = span[3]
    while parent >= first:
        if parent in targets:
            return True
        parent = spans[parent - first][3]
    return False


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0
