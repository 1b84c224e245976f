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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import diagnostics as diag
from . import state_evolution
from .ensemble import make_instance
from .errors import ConfigError, DivergenceError
from .solver import SolverSettings, random_init, run_wf

PRESET_NAMES = ("fig1-convergence", "components", "ratio-growth",
                "noise-sweep", "diagnostics", "custom")

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
    "ratio-growth": {"s": 4, "K": 10, "N": "K", "m_factor": 50, "eta": 0.1,
                     "max_iters": 500, "tol": 1e-6},
    "noise-sweep": {"s": 1, "K": 10, "N": "K", "m": 100, "eta": 0.1,
                    "max_iters": 500, "tol": 1e-6,
                    "sigma_w_grid": [1.0, 1e1, 1e2, 1e3, 1e4, 1e5]},
    "diagnostics": {"s": 2, "K": 8, "N": "K", "m_factor": 50, "eta": 0.1,
                    "max_iters": 80, "tol": float("inf"), "loo_samples": 8},
    "custom": {},
}

_NOISE_FIT_WINDOW = 10


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
        env = os.environ.get("BLAIRCOMP_JOBS", "")
        try:
            return self.jobs or int(env or 0) or os.cpu_count() or 1
        except ValueError:
            raise ConfigError(f"BLAIRCOMP_JOBS must be an integer, got {env!r}") from None

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
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        if self.loo_samples < 0:
            raise ConfigError("loo_samples must be >= 0")
        if not self.eta > 0:          # also rejects NaN
            raise ConfigError("eta must be > 0")
        if not self.sigma2_e >= 0:
            raise ConfigError("sigma2_e must be >= 0")
        if self.q is not None and len(self.q) != self.s:
            raise ConfigError(f"q must list {self.s} values")
        if self.q is not None and not all(0 < v <= 1 for v in self.q):
            raise ConfigError("every q value must lie in (0, 1]")
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.preset == "noise-sweep" and not self.sigma_w_grid:
            raise ConfigError("noise-sweep needs a sigma_w_grid")
        if self.sigma_w_grid is not None and not all(v > 0 for v in self.sigma_w_grid):
            raise ConfigError("every sigma_w_grid value must be > 0")
        self.resolved_jobs()      # rejects a non-integer $BLAIRCOMP_JOBS

    def to_json_dict(self) -> Dict:
        d = asdict(self)
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
    per-trial stage reports, wall clock), report.json (preset-specific
    summary), a gnuplot stub, and per-preset extras.  Returns a summary dict
    with artifact paths; ``ok`` is False when any trial diverged.
    """
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    t_start = time.perf_counter()

    jobs = cfg.resolved_jobs()
    if jobs > 1 and cfg.trials > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.trials)) as pool:
            results = list(pool.map(_run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    else:
        results = [_run_trial(cfg, trial) for trial in range(cfg.trials)]

    paths = {"trace": os.path.join(cfg.out, "trace.csv"),
             "stages": os.path.join(cfg.out, "stages.json"),
             "report": os.path.join(cfg.out, "report.json"),
             "plot": os.path.join(cfg.out, "plot.gp")}
    _write_trace_csv(paths["trace"], cfg.s, results)
    _write_plot_stub(paths["plot"], cfg)

    stages_doc = {
        "config": cfg.to_json_dict(),
        "wall_clock_s": time.perf_counter() - t_start,
        "trials": [r["summary"] for r in results],
    }
    with open(paths["stages"], "w") as fh:
        json.dump(stages_doc, fh, indent=2)

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
    with open(paths["report"], "w") as fh:
        json.dump(report, fh, indent=2)

    ok = all(not r["summary"]["diverged"] for r in results)
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


def _run_trial(cfg: ExperimentConfig, trial: int) -> Dict:
    ss = np.random.SeedSequence([cfg.seed, trial])
    inst_seed, init_seed, aux_seed = ss.spawn(3)
    m = cfg.resolved_m()
    inst = make_instance(cfg.s, cfg.K, cfg.N, m, q=cfg.q,
                         sigma2_e=cfg.sigma2_e, seed=inst_seed)
    keep = cfg.preset in ("noise-sweep", "diagnostics")
    if cfg.preset == "diagnostics":
        inst = diag.canonicalize_instance(inst)
    z0 = random_init(cfg.s, cfg.K, cfg.N, np.random.default_rng(init_seed))
    settings = SolverSettings(eta=cfg.eta, max_iters=cfg.max_iters, tol=cfg.tol,
                              cadence=cfg.cadence, keep_iterates=keep)

    summary = {"trial": trial, "diverged": False, "error": None}
    result: Dict = {"summary": summary}
    try:
        aux_rng = np.random.default_rng(aux_seed)
        if cfg.preset == "diagnostics":
            loo = diag.select_loo_indices(m, cfg.loo_samples, aux_rng)
            trace, aux_runs, _ = diag.run_diagnostics_suite(inst, z0, settings,
                                                            loo, aux_rng)
            result["hypotheses"] = diag.measure_hypotheses(trace, aux_runs,
                                                           inst.truth, inst)
            result["concentration"] = diag.concentration_report(inst).to_json_dict()
        else:
            trace = run_wf(inst, z0, settings)
        if cfg.preset == "noise-sweep":
            result["noise_rows"] = _noise_sweep_rows(trace, inst.truth,
                                                     cfg.sigma_w_grid, aux_rng, trial)
        stages = state_evolution.detect_stages(trace)
        summary.update({
            "converged": trace.converged,
            "n_iters": trace.n_iters,
            "final_relative_error": float(trace.relative_error[-1]),
            "final_loss": float(trace.loss[-1]),
            "stages": stages.to_json_dict(),
        })
        result["trace"] = _trace_columns(trace, trial)
    except DivergenceError as exc:
        summary["diverged"] = True
        summary["error"] = str(exc)
        result["trace"] = []
    return result


def _noise_sweep_rows(trace, truth, sigma_w_grid: Sequence[float],
                      rng: np.random.Generator, trial: int) -> List[List[float]]:
    """Noisy relative error per logged iteration and sigma_w: the run's logged
    alignment parameters are perturbed and applied to the recovered sum.

    The noise is the stream that one ``metrics.perturb_alignment`` call per
    row would draw (iteration-major, then sigma_w, real before imaginary),
    taken in a single draw.
    """
    target = np.sum(truth.x, axis=0)
    denom = np.linalg.norm(target)
    grid = np.asarray(sigma_w_grid, dtype=float)
    x = np.array([z.x for z in trace.iterates])                  # (T, s, N)
    noise = (rng.standard_normal((len(x), len(grid), 2, truth.s))
             * np.sqrt(0.5 / grid)[:, None, None])
    w_hat = trace.omega[:, None, :] + (noise[:, :, 0] + 1j * noise[:, :, 1])
    err = np.linalg.norm(w_hat @ x - target, axis=-1) / denom   # (T, grid)
    return [[trial, int(t), sigma_w, float(e)]
            for t, row in zip(trace.t, err) for sigma_w, e in zip(sigma_w_grid, row)]


def fit_noise_slope(noise_rows: Sequence[Sequence[float]]) -> Dict:
    """Slope of error(dB) against sigma_w(dB), using the RMS noisy error over
    the last logged iterations of each trial (noise-dominated regime)."""
    rows = np.asarray(noise_rows, dtype=float)
    sigma_values = np.unique(rows[:, 2])
    points = []
    for sigma_w in sigma_values:
        sel = rows[rows[:, 2] == sigma_w]
        errs = []
        for trial in np.unique(sel[:, 0]):
            tr = sel[sel[:, 0] == trial]
            tr = tr[np.argsort(tr[:, 1])]
            errs.extend(tr[-_NOISE_FIT_WINDOW:, 3])
        rms = float(np.sqrt(np.mean(np.square(errs))))
        points.append({"sigma_w": float(sigma_w),
                       "sigma_w_db": 10.0 * np.log10(sigma_w),
                       "rms_error_db": 20.0 * np.log10(rms)})
    slope = float(np.polyfit([p["sigma_w_db"] for p in points],
                             [p["rms_error_db"] for p in points], 1)[0])
    return {"points": points, "slope_db_per_db": slope}


def _build_report(cfg: ExperimentConfig, results: List[Dict]) -> Dict:
    summaries = [r["summary"] for r in results]
    ok = [s for s in summaries if not s["diverged"]]
    report: Dict = {
        "preset": cfg.preset,
        "n_trials": cfg.trials,
        "n_diverged": sum(s["diverged"] for s in summaries),
        "n_converged": sum(bool(s.get("converged")) for s in ok),
        "final_relative_errors": [s.get("final_relative_error") for s in ok],
    }
    if cfg.preset == "ratio-growth":
        report["growth_rates"] = [s["stages"] for s in ok]
    if cfg.preset == "noise-sweep":
        all_rows = [row for r in results for row in r.get("noise_rows", [])]
        if all_rows:
            report["noise_sweep"] = fit_noise_slope(all_rows)
    if cfg.preset == "diagnostics":
        report["concentration"] = [r.get("concentration") for r in results]
    return report


def _trace_columns(trace, trial: int) -> List[List[float]]:
    rows = []
    for ti in range(len(trace.t)):
        row = [float(trial), float(trace.t[ti]), float(trace.loss[ti]),
               float(trace.relative_error[ti]), float(trace.dist[ti])]
        for i in range(trace.s):
            row.extend([abs(trace.alpha_h[ti, i]), float(trace.beta_h[ti, i]),
                        abs(trace.alpha_x[ti, i]), float(trace.beta_x[ti, i]),
                        float(trace.rmse_x[ti, i])])
        rows.append(row)
    return rows


def trace_header(s: int) -> List[str]:
    header = ["trial", "t", "loss", "relative_error", "dist"]
    for i in range(s):
        header.extend([f"abs_alpha_h_{i}", f"beta_h_{i}",
                       f"abs_alpha_x_{i}", f"beta_x_{i}", f"rmse_x_{i}"])
    return header


def _write_trace_csv(path: str, s: int, results: List[Dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(s))
        for r in results:          # results arrive in trial order
            for row in r["trace"]:
                writer.writerow([_fmt(v) for v in row])


def _write_noise_csv(path: str, results: List[Dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "t", "sigma_w", "noisy_relative_error"])
        for r in results:
            for row in r.get("noise_rows", []):
                writer.writerow([_fmt(v) for v in row])


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


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


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
        if summary["diverged"]:
            print(f"trial {summary['trial']}: DIVERGED ({summary['error']})")
        else:
            status = "converged" if summary.get("converged") else "finished"
            print(f"trial {summary['trial']}: {status} after "
                  f"{summary['n_iters']} iterations, final error "
                  f"{summary['final_relative_error']:.3e}")
    print(f"artifacts in {cfg.out}")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
