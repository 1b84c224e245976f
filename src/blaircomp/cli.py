"""Experiment presets, configuration parsing, and CSV/JSON artifact emission.

Presets encode the reference experimental settings (node counts, dimension
ratios m = factor*K); trials run in a worker pool and every
stochastic stream is derived from (seed, trial) so artifacts are bit-stable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import (Dict, List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

import numpy as np

from . import diagnostics as diag
from . import state_evolution
from .ensemble import make_instance
from .errors import BlaircompError, ConfigError, DivergenceError, ParameterError
from .solver import Iterate, SolverSettings, random_init, run_wf

# The values that set each preset apart, which ``parse_config`` lays the given
# keys over.  Every other field keeps its default; N, unless given, is K.
_PRESETS: Dict[str, Dict] = {
    "fig1-convergence": {"s": 10, "K": 20, "m_factor": 50, "tol": 1e-6},
    "components": {"s": 4, "K": 10, "m_factor": 50, "tol": 1e-6},
    "noise-sweep": {"s": 1, "K": 10, "m": 100, "tol": 1e-6,
                    "sigma_w_grid": [1.0, 1e1, 1e2, 1e3, 1e4, 1e5]},
    "diagnostics": {"s": 2, "K": 8, "m_factor": 50, "max_iters": 80},
    "custom": {},
}
PRESET_NAMES = tuple(_PRESETS)

_NOISE_FIT_WINDOW = 10
# The smallest sigma_w: its noise scale sqrt(0.5 / sigma_w) is 1e100, so the
# squared noisy errors of the fit stay far from overflow.
_MIN_SIGMA_W = 5e-201
_CSV_CHUNK_FIELDS = 8192
# Design-tensor bytes of the trials that share one lockstep solve.  It bounds
# the memory of a block's stacked designs (without it, four fig1-convergence
# trials at s=10, K=N=20, m=1000 would stack 12.8 MB), not its time: a 16 MiB
# cap is no slower.  A trial above it runs alone.
_BLOCK_BYTES = 1 << 20


@dataclass
class ExperimentConfig:
    """The experiment settings.  Each field is a config-file key and a CLI
    flag (``_`` written ``-``), its value coerced to the field's type."""

    preset: str = "custom"
    s: Optional[int] = None
    K: Optional[int] = None
    N: Optional[int] = None
    m: Optional[int] = None
    m_factor: Optional[int] = None
    eta: float = SolverSettings.eta
    max_iters: int = SolverSettings.max_iters
    tol: float = SolverSettings.tol
    sigma2_e: float = 0.0
    sigma_w_grid: Optional[List[float]] = None
    q: Optional[List[float]] = None
    trials: int = 1
    seed: int = 0
    out: str = "results"
    cadence: int = SolverSettings.cadence
    loo_samples: int = 8
    jobs: Optional[int] = None

    def resolved_m(self) -> int:
        return self.m if self.m is not None else self.m_factor * self.K

    def resolved_jobs(self) -> int:
        """Worker pool size: ``jobs``, else the core count."""
        return self.jobs or os.cpu_count() or 1

    def validate(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not (value is None and field.default is None
                    or _has_kind(value, _KEY_TYPES[field.name])):
                raise ConfigError(f"bad value for {field.name}: {value!r}")
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {self.preset!r}")
        # A preset needs every field it sets; m and m_factor are either-or.
        needed = {"s", "K", "N", *_PRESETS[self.preset]}
        missing = [key for key in _KEY_TYPES if key in needed - {"m", "m_factor"}
                   and getattr(self, key) is None]
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
        if self.preset == "diagnostics" and self.resolved_m() < 2:
            raise ConfigError("diagnostics needs m >= 2: its bounds scale with log m")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.loo_samples < 0:
            raise ConfigError("loo_samples must be >= 0")
        if not 0 <= self.sigma2_e < np.inf:
            raise ConfigError("sigma2_e must be finite and >= 0")
        if self.q is not None and len(self.q) != self.s:
            raise ConfigError(f"q must list {self.s} values")
        if self.q is not None and not all(1e-100 <= v <= 1 for v in self.q):
            raise ConfigError("every q value must lie in [1e-100, 1], "
                              "so that 1 / q**2 is at most 1e200")
        grid = self.sigma_w_grid
        if grid is not None and not all(_MIN_SIGMA_W <= v < np.inf for v in grid):
            raise ConfigError(f"every sigma_w_grid value must be finite and >= {_MIN_SIGMA_W:g}, "
                              "so that its noise scale sqrt(0.5 / value) is at most 1e100")
        try:
            self.solver_settings()
            if grid is not None:        # in range, so each value has a dB value
                _check_sigma_w_db(grid)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def solver_settings(self) -> SolverSettings:
        return SolverSettings(eta=self.eta, max_iters=self.max_iters, tol=self.tol,
                              cadence=self.cadence)

    def to_json_dict(self) -> Dict:
        """The settings that determine the results: every field but ``out``
        and ``jobs``, so the echo is the same wherever and however wide the
        pool a run goes."""
        d = asdict(self)
        del d["out"], d["jobs"]
        d["tol"] = None if not np.isfinite(self.tol) else self.tol
        return d


def _key_type(hint) -> type:
    """int, float, str or list: the type a field's values are coerced to."""
    if get_origin(hint) is Union:                   # Optional[X] -> X
        hint, = (arg for arg in get_args(hint) if arg is not type(None))
    return get_origin(hint) or hint                 # List[float] -> list


_KEY_TYPES: Dict[str, type] = {key: _key_type(hint) for key, hint
                               in get_type_hints(ExperimentConfig).items()}


def _has_kind(value, kind: type) -> bool:
    """An int field takes an int; a float field an int or a float; a list
    field a list of those; a str field a str.  No bool passes."""
    if kind is list:
        return isinstance(value, list) and all(_has_kind(v, float) for v in value)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is int if kind is int else isinstance(value, kind)


def parse_config(path: Optional[str] = None,
                 overrides: Optional[Dict] = None) -> ExperimentConfig:
    """Key=value config file plus overrides, which win, laid over the
    preset's values; giving m or m_factor drops both of the preset's.

    Unknown keys are rejected.  Each value is coerced to its field's type,
    N is K unless given, and the result is validated.
    """
    given = _read_config_file(path) if path is not None else {}
    given.update((key, value) for key, value in (overrides or {}).items()
                 if value is not None)
    unknown = set(given) - _KEY_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    preset = given.get("preset", "custom")
    base = _PRESETS.get(preset, {}) if isinstance(preset, str) else {}
    if given.keys() & {"m", "m_factor"}:
        base = {key: value for key, value in base.items() if key not in ("m", "m_factor")}
    cfg = ExperimentConfig(**{key: _coerce(key, value)
                              for key, value in {**base, **given}.items()})
    if cfg.N is None:
        cfg.N = cfg.K
    cfg.validate()
    return cfg


def run_experiment(cfg: ExperimentConfig) -> Dict:
    """Run all trials for a config and write the artifact set.

    Emits trace.csv (fixed 5 + 5s column schema), stages.json (config echo,
    per-trial summaries and stage reports), report.json (preset-specific
    summary), a gnuplot stub, per-preset extras, and timings.json (wall clock,
    pool size and the time spent writing the other artifacts: the only
    artifact that changes between reruns).  Returns
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
    report = _build_report(cfg, results)
    t_write = time.perf_counter()
    _write_csv(paths["trace"], trace_header(cfg.s), (r["trace"] for r in results))
    _write_plot_stub(paths["plot"], cfg)
    _write_json(paths["stages"], {"config": cfg.to_json_dict(),
                                  "trials": [r["summary"] for r in results]})
    if cfg.preset == "noise-sweep":
        paths["noise"] = os.path.join(cfg.out, "noise_sweep.csv")
        tables = [r["noise_rows"] for r in results if "noise_rows" in r]
        _write_csv(paths["noise"], ["trial", "t", "sigma_w", "noisy_relative_error"],
                   tables)
        if tables:
            report["noise_sweep"] = fit_noise_slope(cfg.sigma_w_grid, tables)
    if cfg.preset == "diagnostics":
        report["concentration"] = [r.get("concentration") for r in results]
        for r in results:
            if r.get("hypotheses") is not None:
                name = f"hypotheses_{r['summary']['trial']}.csv"
                _write_hypotheses_csv(os.path.join(cfg.out, name), r["hypotheses"])
                report.setdefault("hypotheses_csv", []).append(name)
    _write_json(paths["report"], report)
    t_end = time.perf_counter()
    _write_json(paths["timings"], {"wall_clock_s": t_end - t_start, "jobs": jobs,
                                   "artifacts_s": t_end - t_write})

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
    # trial -> its error, or its (trace, results)
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
    return [_trial_result(trial, solved[trial]) for trial in trials]


def _build_trial(cfg: ExperimentConfig, trial: int):
    """The trial's instance, random start and auxiliary stream."""
    inst_seed, init_seed, aux_seed = np.random.SeedSequence([cfg.seed, trial]).spawn(3)
    inst = make_instance(cfg.s, cfg.K, cfg.N, cfg.resolved_m(), q=cfg.q,
                         sigma2_e=cfg.sigma2_e, seed=inst_seed)
    z0 = random_init(cfg.s, cfg.K, cfg.N, np.random.default_rng(init_seed))
    return inst, z0, np.random.default_rng(aux_seed)


def _solve_block(cfg: ExperimentConfig, built: List[tuple]) -> Dict[int, object]:
    """Each built trial's error, or its trace and per-preset results: the
    trials in one ``run_wf`` call, a noise-sweep trial's rows drawn from its
    auxiliary stream; or a diagnostics trial canonicalized here and run in
    its suite, whose auxiliary runs draw from that stream."""
    settings = cfg.solver_settings()
    if cfg.preset == "diagnostics":
        (trial, inst, z0, aux_rng), = built
        inst = diag.canonicalize_instance(inst)
        loo = diag.select_loo_indices(inst.m, cfg.loo_samples, aux_rng)
        plain, flipped = diag.run_diagnostics_suite(inst, z0, settings, loo, aux_rng)
        result = {"hypotheses": diag.measure_hypotheses(plain, flipped, inst),
                  "concentration": asdict(diag.concentration_report(inst))}
        return {trial: (plain[0], result)}
    trials, insts, z0s, aux_rngs = zip(*built)
    batch = run_wf(insts, Iterate(h=np.stack([z.h for z in z0s]),
                                  x=np.stack([z.x for z in z0s])), settings)
    solved: Dict[int, object] = dict(zip(trials, batch.errors))
    for trial, aux_rng, trace in zip(trials, aux_rngs, batch.runs):
        if solved[trial] is None:
            result = {}
            if cfg.preset == "noise-sweep":
                result["noise_rows"] = _noise_sweep_rows(trace, cfg.sigma_w_grid,
                                                         aux_rng, trial)
            solved[trial] = (trace, result)
    return solved


def _trial_result(trial: int, solved) -> Dict:
    """The trial's summary, trace rows and per-preset results."""
    summary = {"trial": trial, "diverged": False, "error": None, "error_type": None}
    if isinstance(solved, BlaircompError):
        summary.update(diverged=isinstance(solved, DivergenceError), error=str(solved),
                       error_type=type(solved).__name__)
        return {"summary": summary, "trace": []}
    trace, result = solved
    summary.update(converged=trace.converged, n_iters=trace.n_iters,
                   final_relative_error=float(trace.relative_error[-1]),
                   final_loss=float(trace.loss[-1]),
                   stages=state_evolution.detect_stages(trace).to_json_dict())
    result.update(summary=summary, trace=_trace_columns(trace, trial))
    return result


def _noise_sweep_rows(trace, sigma_w_grid: Sequence[float],
                      rng: np.random.Generator, trial: int) -> np.ndarray:
    """Noisy relative error per sigma_w at the run's last
    ``_NOISE_FIT_WINDOW`` log points, the ones ``fit_noise_slope`` reads:
    the logged alignment parameters are perturbed and applied to the
    recovered sum.

    Rows (trial, t, sigma_w, error), iteration-major.  The noise is drawn
    for every log point, in a single draw of the stream that the per-row
    loop ``noise_sweep_rows_loop`` in the tests' helpers draws
    (iteration-major, then sigma_w, real before imaginary), so the rows
    kept are that loop's last ones.
    """
    target = np.sum(trace.truth.x, axis=0)
    denom = np.linalg.norm(target)
    grid = np.asarray(sigma_w_grid, dtype=float)
    window = slice(-_NOISE_FIT_WINDOW, None)
    noise = (rng.standard_normal((len(trace.t), len(grid), 2, trace.s))[window]
             * np.sqrt(0.5 / grid)[:, None, None])
    w_hat = trace.omega[window, None, :] + (noise[:, :, 0] + 1j * noise[:, :, 1])
    err = np.linalg.norm(w_hat @ trace.x[window] - target, axis=-1) / denom
    rows = np.empty(err.shape + (4,))
    rows[..., 0] = trial
    rows[..., 1] = trace.t[window, None]
    rows[..., 2] = grid
    rows[..., 3] = err
    return rows.reshape(-1, 4)


def _check_sigma_w_db(grid: Sequence[float]) -> None:
    """The noise sweep fits a line through one point per sigma_w value, at
    its dB value: two values that differ only in their last bits can share
    one, so the values must be two or more and distinct in dB."""
    if len(grid) < 2 or len(np.unique(10.0 * np.log10(grid))) < len(grid):
        raise ParameterError("sigma_w_grid needs at least two values, distinct in dB")


def fit_noise_slope(sigma_w_grid: Sequence[float], tables: Sequence[np.ndarray]) -> Dict:
    """Slope of error(dB) against sigma_w(dB), using the RMS noisy error over
    the last logged iterations of each trial (noise-dominated regime).
    ``tables`` are the trials' rows as ``_noise_sweep_rows`` lays them out,
    (T*G, 4) iteration-major over the G grid values, for any number T of
    log points; a line needs two or more grid values, all distinct in dB."""
    grid = np.asarray(sigma_w_grid, dtype=float)
    _check_sigma_w_db(grid)
    # (trials * window, G), each column in the (trial, t) order the mean sums
    errs = np.concatenate([rows.reshape(-1, len(grid), 4)[-_NOISE_FIT_WINDOW:, :, 3]
                           for rows in tables])
    points = []
    for j in np.argsort(grid):
        rms = float(np.sqrt(np.mean(np.square(errs[:, j]))))
        points.append({"sigma_w": float(grid[j]),
                       "sigma_w_db": 10.0 * np.log10(grid[j]),
                       "rms_error_db": 20.0 * np.log10(rms)})
    slope = float(np.polyfit([p["sigma_w_db"] for p in points],
                             [p["rms_error_db"] for p in points], 1)[0])
    return {"points": points, "slope_db_per_db": slope}


def _build_report(cfg: ExperimentConfig, results: List[Dict]) -> Dict:
    summaries = [r["summary"] for r in results]
    ok = [s for s in summaries if s["error"] is None]
    return {
        "preset": cfg.preset,
        "n_trials": cfg.trials,
        "n_diverged": sum(s["diverged"] for s in summaries),
        "n_failed": cfg.trials - len(ok),
        "n_converged": sum(bool(s.get("converged")) for s in ok),
        "final_relative_errors": [s.get("final_relative_error") for s in ok],
    }


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


def _write_csv(path: str, header: List[str], tables,
               line: Optional[str] = None) -> None:
    """The header, then every row of ``tables`` through the line template
    ``line``, by default each field as ``'%.17g' % value``, comma separated;
    CRLF line ends.  One ``%`` formats each chunk of about
    ``_CSV_CHUNK_FIELDS`` fields, whole templates of them, so only one
    chunk's values are Python floats at a time."""
    if line is None:
        line = ",".join(["%.17g"] * len(header)) + "\r\n"
    per_chunk = max(1, _CSV_CHUNK_FIELDS // line.count("%"))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rows in tables:
            rows = np.asarray(rows, dtype=float)
            for first in range(0, len(rows), per_chunk):
                chunk = rows[first:first + per_chunk]
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_hypotheses_csv(path: str, report: diag.HypothesisReport) -> None:
    """Per log point, a line per node of each (T, s) field of ``report``, and
    one at node -1 of each (T,) field with its ``<name>_scale``, if any, in
    field order.  One log point's template takes a (t, value) pair a line."""
    lines, columns = [], []
    for f in fields(report)[1:]:                      # t is the first field
        value = getattr(report, f.name)
        if np.ndim(value) == 2:
            lines += [f"%d,{f.name},{i},%.17g,\r\n" for i in range(value.shape[1])]
            columns.append(value)
        elif np.ndim(value) == 1:
            scale = getattr(report, f.name + "_scale", None)
            scale = "" if scale is None else "%.17g" % scale
            lines.append(f"%d,{f.name},-1,%.17g,{scale}\r\n")
            columns.append(value[:, None])
    values = np.concatenate(columns, axis=1)                    # (T, lines)
    pairs = np.stack(np.broadcast_arrays(np.asarray(report.t)[:, None], values), axis=-1)
    _write_csv(path, ["t", "quantity", "node", "value", "scale"],
               [pairs.reshape(len(values), 2 * len(lines))], "".join(lines))


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
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in entries:
                    raise ConfigError(f"{path}:{lineno}: {key} given twice")
                entries[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return entries


def _coerce(key: str, value):
    """Text read as its field's type, as in a config file, where a list is
    comma separated; a list of numbers copied as floats.  Any other value is
    left for ``validate`` to judge."""
    kind = _KEY_TYPES[key]
    if kind is list and _has_kind(value, list):
        return [float(v) for v in value]
    if not isinstance(value, str):
        return value
    try:
        if kind is list:
            return [float(v) for v in value.split(",") if v.strip()]
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def _add_common_flags(parser: argparse.ArgumentParser, keys: Sequence[str]) -> None:
    """``--config``, then one flag per given config key, read as text."""
    parser.add_argument("--config", help="key = value config file")
    for key in keys:
        kind = _KEY_TYPES[key]
        extra = ({"choices": PRESET_NAMES} if key == "preset" else
                 {"help": "comma separated list"} if kind is list else {})
        parser.add_argument("--" + key.replace("_", "-"), **extra)


def _numbers_as_values(argv: Sequence[str]) -> List[str]:
    """``--flag -1e-6,2`` as ``--flag=-1e-6,2``: argparse reads a token that
    starts with ``-`` as a flag unless it is one plain negative number."""
    out: List[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1]:
            try:
                [float(v) for v in token.split(",")]
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blaircomp",
        description="Blind over-the-air computation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment preset")
    _add_common_flags(run_p, list(_KEY_TYPES))
    diag_p = sub.add_parser("diagnostics",
                            help="leave-one-out / sign-flip diagnostics suite")
    _add_common_flags(diag_p, [key for key in _KEY_TYPES if key != "preset"])

    args = vars(parser.parse_args(
        _numbers_as_values(sys.argv[1:] if argv is None else argv)))
    command = args.pop("command")
    config_path = args.pop("config")
    if command == "run" and args["preset"] is None and config_path is None:
        run_p.error("need --preset or --config")

    try:
        given = _read_config_file(config_path) if config_path is not None else {}
        given.update((key, value) for key, value in args.items() if value is not None)
        if command == "diagnostics":    # its preset; a config file may only repeat it
            preset = given.setdefault("preset", "diagnostics")
            if preset != "diagnostics":
                raise ConfigError(f"diagnostics runs the diagnostics preset, not {preset!r}")
        cfg = parse_config(overrides=given)
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
