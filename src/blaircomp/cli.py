"""Experiment presets, configuration parsing, and CSV/JSON artifact emission.

Presets encode the reference experimental settings (node counts, dimension
ratios m = factor*K, step size 0.1); trials run in a worker pool and every
stochastic stream is derived from (seed, trial) so artifacts are bit-stable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics as diag
from . import state_evolution
from .ensemble import make_instance
from .errors import BlaircompError, ConfigError, DivergenceError, ParameterError
from .solver import Iterate, SolverSettings, random_init, run_wf

PRESET_NAMES = ("fig1-convergence", "components", "noise-sweep", "diagnostics",
                "custom")

_INT_KEYS = {"s", "K", "N", "m", "m_factor", "max_iters", "trials", "seed",
             "cadence", "loo_samples", "jobs"}
_FLOAT_KEYS = {"eta", "tol", "sigma2_e"}
_LIST_KEYS = {"sigma_w_grid", "q"}
_STR_KEYS = {"preset", "out"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS | _STR_KEYS

# Fields each preset fills when the user leaves them unset.  "N": "K" copies
# the (possibly user-supplied) K.
_PRESETS: Dict[str, Dict] = {
    "fig1-convergence": {"s": 10, "K": 20, "N": "K", "m_factor": 50, "eta": 0.1,
                         "max_iters": 500, "tol": 1e-6},
    "components": {"s": 4, "K": 10, "N": "K", "m_factor": 50, "eta": 0.1,
                   "max_iters": 500, "tol": 1e-6},
    "noise-sweep": {"s": 1, "K": 10, "N": "K", "m": 100, "eta": 0.1,
                    "max_iters": 500, "tol": 1e-6,
                    "sigma_w_grid": [1.0, 1e1, 1e2, 1e3, 1e4, 1e5]},
    "diagnostics": {"s": 2, "K": 8, "N": "K", "m_factor": 50, "eta": 0.1,
                    "max_iters": 80, "tol": float("inf"), "loo_samples": 8},
    "custom": {},
}

_NOISE_FIT_WINDOW = 10
# Design-tensor bytes of the trials that share one lockstep solve.  Past it a
# stacked block costs more per trial, not less, as it outgrows the cache; a
# trial above it runs alone.
_BLOCK_BYTES = 1 << 20


@dataclass
class ExperimentConfig:
    preset: str = "custom"
    s: Optional[int] = None
    K: Optional[int] = None
    N: Optional[int] = None
    m: Optional[int] = None
    m_factor: Optional[int] = None
    eta: Optional[float] = None
    max_iters: Optional[int] = None
    tol: float = float("inf")
    sigma2_e: float = 0.0
    sigma_w_grid: Optional[List[float]] = None
    q: Optional[List[float]] = None
    trials: int = 1
    seed: int = 0
    out: str = "results"
    cadence: int = 1
    loo_samples: int = 8
    jobs: Optional[int] = None

    def resolved_m(self) -> int:
        return self.m if self.m is not None else self.m_factor * self.K

    def resolved_jobs(self) -> int:
        """Worker pool size: ``jobs``, else $BLAIRCOMP_JOBS, else the core count."""
        if self.jobs is not None:
            return self.jobs
        env = os.environ.get("BLAIRCOMP_JOBS", "")
        if not env:
            return os.cpu_count() or 1
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ConfigError(f"BLAIRCOMP_JOBS must be an integer >= 1, got {env!r}")
        return jobs

    def validate(self) -> None:
        missing = [name for name in ("s", "K", "N", "eta", "max_iters")
                   if getattr(self, name) is None]
        if self.m is None and self.m_factor is None:
            missing.append("m or m_factor")
        if missing:
            raise ConfigError(f"missing required fields: {', '.join(missing)}")
        if self.m is not None and self.m_factor is not None:
            raise ConfigError("set exactly one of m / m_factor, not both")
        if min(self.s, self.K, self.N, self.resolved_m()) < 1:
            raise ConfigError("dimensions must be positive")
        if self.K > self.resolved_m():
            raise ConfigError(f"need K <= m, got K={self.K}, m={self.resolved_m()}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.loo_samples < 0:
            raise ConfigError("loo_samples must be >= 0")
        if not 0 < self.eta < np.inf:           # also rejects NaN
            raise ConfigError("eta must be finite and > 0")
        if not 0 <= self.sigma2_e < np.inf:
            raise ConfigError("sigma2_e must be finite and >= 0")
        if self.q is not None and len(self.q) != self.s:
            raise ConfigError(f"q must list {self.s} values")
        if self.q is not None and not all(0 < v <= 1 for v in self.q):
            raise ConfigError("every q value must lie in (0, 1]")
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {self.preset!r}")
        # The noise sweep fits a line through one point per sigma_w value.
        grid = self.sigma_w_grid or []
        if self.preset == "noise-sweep" and len(set(grid)) < max(2, len(grid)):
            raise ConfigError("noise-sweep needs at least two distinct sigma_w_grid "
                              "values")
        if self.sigma_w_grid is not None and not all(0 < v < np.inf
                                                     for v in self.sigma_w_grid):
            raise ConfigError("every sigma_w_grid value must be finite and > 0")
        self.resolved_jobs()      # rejects a bad $BLAIRCOMP_JOBS

    def to_json_dict(self) -> Dict:
        """The settings that determine the results: every field but ``out``
        and ``jobs``, so the echo is the same wherever and however wide the
        pool a run goes."""
        d = asdict(self)
        del d["out"], d["jobs"]
        d["tol"] = None if not np.isfinite(self.tol) else self.tol
        return d


def parse_config(path: Optional[str] = None,
                 overrides: Optional[Dict] = None) -> ExperimentConfig:
    """Key=value config file plus explicit overrides; overrides win.

    Unknown keys are rejected.  Preset defaults fill whatever remains unset,
    and the result is validated.
    """
    raw: Dict[str, object] = {}
    if path is not None:
        raw.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    unknown = set(raw) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    cfg = ExperimentConfig()
    explicit = set()
    for key, value in raw.items():
        setattr(cfg, key, _coerce(key, value))
        explicit.add(key)

    preset = _PRESETS.get(cfg.preset)
    if preset is None:
        raise ConfigError(f"unknown preset {cfg.preset!r}")
    for key, value in preset.items():
        if key in explicit:
            continue
        if key == "m_factor" and "m" in explicit:
            continue
        if key == "m" and "m_factor" in explicit:
            continue
        setattr(cfg, key, cfg.K if value == "K" else value)
    cfg.validate()
    return cfg


def run_experiment(cfg: ExperimentConfig) -> Dict:
    """Run all trials for a config and write the artifact set.

    Emits trace.csv (fixed 5 + 5s column schema), stages.json (config echo,
    per-trial summaries and stage reports), report.json (preset-specific
    summary), a gnuplot stub, per-preset extras, and timings.json (wall clock
    and pool size, the only artifact that changes between reruns).  Returns
    a summary dict with artifact paths; ``ok`` is False when any trial failed.
    """
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    t_start = time.perf_counter()

    jobs = cfg.resolved_jobs()
    blocks = _trial_blocks(cfg)
    if jobs > 1 and len(blocks) > 1:
        # Imported here, so that importing the package does not load it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
            solved = list(pool.map(_run_trial, [cfg] * len(blocks), *zip(*blocks)))
    else:
        solved = [_run_trial(cfg, first, n) for first, n in blocks]
    results = [r for block in solved for r in block]

    paths = {"trace": os.path.join(cfg.out, "trace.csv"),
             "stages": os.path.join(cfg.out, "stages.json"),
             "report": os.path.join(cfg.out, "report.json"),
             "plot": os.path.join(cfg.out, "plot.gp"),
             "timings": os.path.join(cfg.out, "timings.json")}
    _write_trace_csv(paths["trace"], cfg.s, results)
    _write_plot_stub(paths["plot"], cfg)

    stages_doc = {
        "config": cfg.to_json_dict(),
        "trials": [r["summary"] for r in results],
    }
    _write_json(paths["stages"], stages_doc)

    report = _build_report(cfg, results)
    if cfg.preset == "noise-sweep":
        paths["noise"] = os.path.join(cfg.out, "noise_sweep.csv")
        _write_noise_csv(paths["noise"], results)
    if cfg.preset == "diagnostics":
        for r in results:
            if r.get("hypotheses") is not None:
                name = f"hypotheses_{r['summary']['trial']}.csv"
                r["hypotheses"].write_csv(os.path.join(cfg.out, name))
                report.setdefault("hypotheses_csv", []).append(name)
    _write_json(paths["report"], report)
    _write_json(paths["timings"],
                {"wall_clock_s": time.perf_counter() - t_start, "jobs": jobs})

    ok = all(r["summary"]["error"] is None for r in results)
    return {"ok": ok, "paths": paths, "report": report,
            "trials": [r["summary"] for r in results]}


def read_trace_csv(path: str) -> Dict[str, np.ndarray]:
    """Round-trip reader for the trace artifact; returns column arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.asarray(rows) if rows else np.zeros((0, len(header)))
    return {name: data[:, idx] for idx, name in enumerate(header)}


def _trial_blocks(cfg: ExperimentConfig) -> List[Tuple[int, int]]:
    """(first trial, trial count) of each contiguous block of trials that
    shares one lockstep solve.

    A block's stacked design tensors take at most ``_BLOCK_BYTES`` unless one
    trial's alone is larger; the pool size plays no part.  A diagnostics
    trial, whose run axis holds its auxiliary runs, is a block of its own.
    """
    trial_bytes = 16 * cfg.s * cfg.resolved_m() * cfg.N     # complex128 design
    per_block = 1 if cfg.preset == "diagnostics" else max(1, _BLOCK_BYTES // trial_bytes)
    n_blocks = -(-cfg.trials // per_block)
    return [(int(b[0]), len(b))
            for b in np.array_split(np.arange(cfg.trials), n_blocks)]


def _run_trial(cfg: ExperimentConfig, first_trial: int, n_trials: int) -> List[Dict]:
    """Summaries and per-trial results of trials first_trial, ...,
    first_trial + n_trials - 1, solved in one lockstep ``run_wf`` call.

    Each trial's instance, start and auxiliary stream come from
    (seed, trial), so its numbers do not depend on its block.  A package
    error ends only its own trial: the summary records its type and message,
    the trial logs no trace rows, and the other trials go on.
    """
    trials = range(first_trial, first_trial + n_trials)
    # trial -> its error, or its (trace, instance, aux rng, results)
    solved: Dict[int, object] = {}
    built = []
    for trial in trials:
        try:
            built.append((trial, *_build_trial(cfg, trial)))
        except BlaircompError as exc:
            solved[trial] = exc
    if built:
        try:
            solved.update(_solve_block(cfg, built))
        except BlaircompError as exc:     # the call the block shares failed
            solved.update((b[0], exc) for b in built)
    return [_trial_result(cfg, trial, solved[trial]) for trial in trials]


def _build_trial(cfg: ExperimentConfig, trial: int):
    """The trial's instance, random start and auxiliary stream."""
    inst_seed, init_seed, aux_seed = np.random.SeedSequence([cfg.seed, trial]).spawn(3)
    inst = make_instance(cfg.s, cfg.K, cfg.N, cfg.resolved_m(), q=cfg.q,
                         sigma2_e=cfg.sigma2_e, seed=inst_seed)
    if cfg.preset == "diagnostics":
        inst = diag.canonicalize_instance(inst)
    z0 = random_init(cfg.s, cfg.K, cfg.N, np.random.default_rng(init_seed))
    return inst, z0, np.random.default_rng(aux_seed)


def _solve_block(cfg: ExperimentConfig, built: List[tuple]) -> Dict[int, object]:
    """Each built trial's error, or its trace, instance, auxiliary stream and
    per-trial results; all trials in one call, a diagnostics trial in its
    suite."""
    settings = SolverSettings(eta=cfg.eta, max_iters=cfg.max_iters, tol=cfg.tol,
                              cadence=cfg.cadence)
    if cfg.preset == "diagnostics":
        (trial, inst, z0, aux_rng), = built
        loo = diag.select_loo_indices(inst.m, cfg.loo_samples, aux_rng)
        plain, flipped = diag.run_diagnostics_suite(inst, z0, settings, loo, aux_rng)
        result = {"hypotheses": diag.measure_hypotheses(plain, flipped, inst),
                  "concentration": diag.concentration_report(inst).to_json_dict()}
        return {trial: (plain[0], inst, aux_rng, result)}
    trials, insts, z0s, aux_rngs = zip(*built)
    batch = run_wf(insts, Iterate(h=np.stack([z.h for z in z0s]),
                                  x=np.stack([z.x for z in z0s])), settings)
    return {trial: exc if exc is not None else (trace, inst, aux_rng, {})
            for trial, inst, aux_rng, trace, exc
            in zip(trials, insts, aux_rngs, batch.runs, batch.errors)}


def _trial_result(cfg: ExperimentConfig, trial: int, solved) -> Dict:
    """The trial's summary, trace rows and per-preset results."""
    summary = {"trial": trial, "diverged": False, "error": None, "error_type": None}
    if isinstance(solved, BlaircompError):
        summary.update(diverged=isinstance(solved, DivergenceError), error=str(solved),
                       error_type=type(solved).__name__)
        return {"summary": summary, "trace": []}
    trace, inst, aux_rng, result = solved
    if cfg.preset == "noise-sweep":
        result["noise_rows"] = _noise_sweep_rows(trace, inst.truth, cfg.sigma_w_grid,
                                                 aux_rng, trial)
    summary.update(converged=trace.converged, n_iters=trace.n_iters,
                   final_relative_error=float(trace.relative_error[-1]),
                   final_loss=float(trace.loss[-1]),
                   stages=state_evolution.detect_stages(trace).to_json_dict())
    result.update(summary=summary, trace=_trace_columns(trace, trial))
    return result


def _noise_sweep_rows(trace, truth, sigma_w_grid: Sequence[float],
                      rng: np.random.Generator, trial: int) -> np.ndarray:
    """Noisy relative error per logged iteration and sigma_w: the run's logged
    alignment parameters are perturbed and applied to the recovered sum.

    Rows (trial, t, sigma_w, error), iteration-major.  The noise is the
    stream that one ``perturb_alignment`` call per row would draw
    (iteration-major, then sigma_w, real before imaginary; the per-row loop
    is ``noise_sweep_rows_loop`` in the tests' helpers), taken in a single
    draw.
    """
    target = np.sum(truth.x, axis=0)
    denom = np.linalg.norm(target)
    grid = np.asarray(sigma_w_grid, dtype=float)
    noise = (rng.standard_normal((len(trace.t), len(grid), 2, truth.s))
             * np.sqrt(0.5 / grid)[:, None, None])
    w_hat = trace.omega[:, None, :] + (noise[:, :, 0] + 1j * noise[:, :, 1])
    err = np.linalg.norm(w_hat @ trace.x - target, axis=-1) / denom   # (T, grid)
    rows = np.empty(err.shape + (4,))
    rows[..., 0] = trial
    rows[..., 1] = trace.t[:, None]
    rows[..., 2] = grid
    rows[..., 3] = err
    return rows.reshape(-1, 4)


def fit_noise_slope(noise_rows: Sequence[Sequence[float]]) -> Dict:
    """Slope of error(dB) against sigma_w(dB), using the RMS noisy error over
    the last logged iterations of each trial (noise-dominated regime).
    Rows are (trial, t, sigma_w, error); a line needs two distinct sigma_w."""
    rows = np.asarray(noise_rows, dtype=float).reshape(-1, 4)
    # Sort to (sigma_w, trial, t) order and keep each (sigma_w, trial) group's
    # last _NOISE_FIT_WINDOW rows: each sigma_w's errors stay in the (trial, t)
    # order the mean sums them in.
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0], rows[:, 2]))]
    pos = np.arange(len(rows))
    ends = np.flatnonzero(np.r_[np.any(rows[1:, [2, 0]] != rows[:-1, [2, 0]], axis=1),
                                True])
    rows = rows[ends[np.searchsorted(ends, pos)] - pos < _NOISE_FIT_WINDOW]
    sigma_values, first = np.unique(rows[:, 2], return_index=True)
    if len(sigma_values) < 2:
        raise ParameterError("the noise slope needs at least two distinct sigma_w")
    points = []
    for sigma_w, errs in zip(sigma_values, np.split(rows[:, 3], first[1:])):
        rms = float(np.sqrt(np.mean(np.square(errs))))
        points.append({"sigma_w": float(sigma_w),
                       "sigma_w_db": 10.0 * np.log10(sigma_w),
                       "rms_error_db": 20.0 * np.log10(rms)})
    slope = float(np.polyfit([p["sigma_w_db"] for p in points],
                             [p["rms_error_db"] for p in points], 1)[0])
    return {"points": points, "slope_db_per_db": slope}


def _build_report(cfg: ExperimentConfig, results: List[Dict]) -> Dict:
    summaries = [r["summary"] for r in results]
    ok = [s for s in summaries if s["error"] is None]
    report: Dict = {
        "preset": cfg.preset,
        "n_trials": cfg.trials,
        "n_diverged": sum(s["diverged"] for s in summaries),
        "n_failed": cfg.trials - len(ok),
        "n_converged": sum(bool(s.get("converged")) for s in ok),
        "final_relative_errors": [s.get("final_relative_error") for s in ok],
    }
    if cfg.preset == "noise-sweep":
        tables = [r["noise_rows"] for r in results if "noise_rows" in r]
        if tables:
            report["noise_sweep"] = fit_noise_slope(np.concatenate(tables))
    if cfg.preset == "diagnostics":
        report["concentration"] = [r.get("concentration") for r in results]
    return report


def _trace_columns(trace, trial: int) -> np.ndarray:
    """The trial's trace.csv rows, (T, 5 + 5s).  |alpha| is hypot(re, im),
    the value of a scalar abs(); np.abs on a complex array can differ from
    it in the last bit."""
    per_node = np.stack([np.hypot(trace.alpha_h.real, trace.alpha_h.imag),
                         trace.beta_h,
                         np.hypot(trace.alpha_x.real, trace.alpha_x.imag),
                         trace.beta_x, trace.rmse_x], axis=-1)     # (T, s, 5)
    return np.column_stack([np.full(len(trace.t), float(trial)), trace.t, trace.loss,
                            trace.relative_error, trace.dist,
                            per_node.reshape(len(trace.t), -1)])


def trace_header(s: int) -> List[str]:
    header = ["trial", "t", "loss", "relative_error", "dist"]
    for i in range(s):
        header.extend([f"abs_alpha_h_{i}", f"beta_h_{i}",
                       f"abs_alpha_x_{i}", f"beta_x_{i}", f"rmse_x_{i}"])
    return header


def _write_trace_csv(path: str, s: int, results: List[Dict]) -> None:
    _write_csv(path, trace_header(s), (r["trace"] for r in results))   # trial order


def _write_noise_csv(path: str, results: List[Dict]) -> None:
    _write_csv(path, ["trial", "t", "sigma_w", "noisy_relative_error"],
               (r.get("noise_rows", []) for r in results))


def _write_csv(path: str, header: List[str], tables) -> None:
    """The header, then every row of ``tables`` at 17 significant digits,
    comma separated with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rows in tables:
            rows = np.ascontiguousarray(rows, dtype=float)
            if rows.size:
                fh.write(_csv_lines(rows))


def _csv_lines(rows: np.ndarray) -> str:
    """The CSV lines of one (n, c) table, formatted with a single ``%``.

    A column with at most n/2 distinct values has each one formatted once
    and written into the row template as text; the other columns stay
    ``%.17g`` fields.  Values are told apart by bit pattern, so -0.0 and 0.0
    keep their own text.
    """
    n, c = rows.shape
    bits = rows.view(np.int64).T                                   # (c, n)
    ordered = np.sort(bits, axis=1)
    step = ordered[:, 1:] != ordered[:, :-1]
    repeated = 2 * (1 + np.count_nonzero(step, axis=1)) <= n
    cells = np.empty((n, 2 * c), dtype=object)           # field, separator, ...
    cells[:, 0::2] = "%.17g"
    cells[:, 1::2] = [","] * (c - 1) + ["\r\n"]
    for j in np.flatnonzero(repeated):
        distinct = ordered[j, np.concatenate(([True], step[j]))]
        text = np.array(["%.17g" % v for v in distinct.view(float).tolist()],
                        dtype=object)
        cells[:, 2 * j] = text[np.searchsorted(distinct, bits[j])]
    template = "".join(cells.ravel().tolist())
    return template % tuple(rows[:, ~repeated].ravel().tolist())


def _write_json(path: str, doc) -> None:
    """``json.dump(doc, fh, indent=2)``'s bytes in one write, not one per token."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2))


def _write_plot_stub(path: str, cfg: ExperimentConfig) -> None:
    with open(path, "w") as fh:
        fh.write(
            "# gnuplot stub for the emitted trace\n"
            "set datafile separator ','\n"
            "set logscale y\n"
            "set xlabel 'iteration'\n"
            "set ylabel 'relative error'\n"
            f"# columns: {', '.join(trace_header(cfg.s))}\n"
            "plot 'trace.csv' every ::1 using 2:4 with lines title 'relative error'\n")


def _read_config_file(path: str) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                entries[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return entries


def _coerce(key: str, value):
    if not isinstance(value, str):
        if key in _LIST_KEYS and value is not None:
            return [float(v) for v in value]
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _LIST_KEYS:
            return [float(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return value


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--preset", choices=PRESET_NAMES)
    parser.add_argument("--s", type=int)
    parser.add_argument("--K", type=int)
    parser.add_argument("--N", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--m-factor", dest="m_factor", type=int)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--max-iters", dest="max_iters", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--sigma2-e", dest="sigma2_e", type=float)
    parser.add_argument("--sigma-w-grid", dest="sigma_w_grid",
                        help="comma separated, e.g. 1,10,100")
    parser.add_argument("--q", help="comma separated per-node norms")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--cadence", type=int)
    parser.add_argument("--loo-samples", dest="loo_samples", type=int)
    parser.add_argument("--jobs", type=int,
                        help="trial worker pool size (env BLAIRCOMP_JOBS)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blaircomp",
        description="Blind over-the-air computation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment preset")
    _add_common_flags(run_p)
    diag_p = sub.add_parser("diagnostics",
                            help="leave-one-out / sign-flip diagnostics suite")
    _add_common_flags(diag_p)

    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config")
    if command == "diagnostics":
        args["preset"] = "diagnostics"
    elif args.get("preset") is None and config_path is None:
        run_p.error("need --preset or --config")

    try:
        cfg = parse_config(config_path, args)
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2

    for summary in result["trials"]:
        if summary["error"] is not None:
            label = "DIVERGED" if summary["diverged"] else "FAILED"
            print(f"trial {summary['trial']}: {label} "
                  f"({summary['error_type']}: {summary['error']})")
        else:
            status = "converged" if summary.get("converged") else "finished"
            print(f"trial {summary['trial']}: {status} after "
                  f"{summary['n_iters']} iterations, final error "
                  f"{summary['final_relative_error']:.3e}")
    print(f"artifacts in {cfg.out}")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
