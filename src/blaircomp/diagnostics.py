"""Leave-one-out and random-sign auxiliary runs plus empirical hypothesis checks.

Auxiliary solver trajectories share the base run's initial point: dropping
one sample decouples the iterates from that sample's design vector, and
unit-modulus sign flips on the first design entry (paired with flips on the
access vectors) leave every measurement unchanged once the ground-truth
signals are rotated onto the first basis vector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import metrics
from .ensemble import GroundTruth, ProblemInstance, _apply_b
from .errors import ParameterError
from .solver import Iterate, SolverSettings, StateTrace, run_wf


@dataclass(frozen=True)
class AuxiliaryRun:
    kind: str                 # "loo" | "sign" | "sign_loo"
    index: Optional[int]      # dropped sample for loo kinds, else None
    trace: StateTrace


@dataclass(frozen=True)
class ConcentrationReport:
    max_abs_first_entry: float
    first_entry_bound: float      # 5 sqrt(log m)
    max_design_norm: float
    design_norm_bound: float      # 3 sqrt(N)
    incoherence: float
    first_entry_ok: bool
    design_norm_ok: bool

    def to_json_dict(self) -> Dict:
        return {k: getattr(self, k) for k in (
            "max_abs_first_entry", "first_entry_bound", "max_design_norm",
            "design_norm_bound", "incoherence", "first_entry_ok", "design_norm_ok")}


@dataclass
class HypothesisReport:
    """Measured left-hand sides of the induction hypotheses per iteration,
    alongside the comparison scales the analysis bounds them with."""

    t: np.ndarray                  # (T,)
    loo_dist: np.ndarray           # (T, s) max over dropped samples
    loo_signal_h: np.ndarray       # (T, s)
    loo_signal_x: np.ndarray       # (T, s)
    sign_dist_h: np.ndarray        # (T, s)
    sign_dist_x: np.ndarray        # (T, s)
    double_diff_h: np.ndarray      # (T, s)
    double_diff_x: np.ndarray      # (T, s)
    norm_min: np.ndarray           # (T,) min block norm over nodes
    norm_max: np.ndarray           # (T,)
    norm_ratio_h: np.ndarray       # (T, s) ||h_i|| / (|alpha_h| sqrt(log^5 m))
    norm_ratio_x: np.ndarray       # (T, s)
    incoh_x: np.ndarray            # (T,) max |a_il^H x~| / ||x~||
    incoh_x_scale: float           # sqrt(log m)
    incoh_h: np.ndarray            # (T,) max |b_l^H h~| / ||h~||
    incoh_h_scale: float           # (mu/sqrt(m)) log^2 m

    def write_csv(self, path: str) -> None:
        """Long format: one row per iteration per quantity (node -1 = scalar)."""
        per_node = ["loo_dist", "loo_signal_h", "loo_signal_x", "sign_dist_h",
                    "sign_dist_x", "double_diff_h", "double_diff_x",
                    "norm_ratio_h", "norm_ratio_x"]
        scalars = [("norm_min", None), ("norm_max", None),
                   ("incoh_x", self.incoh_x_scale), ("incoh_h", self.incoh_h_scale)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "quantity", "node", "value", "scale"])
            for ti, t in enumerate(self.t):
                for name in per_node:
                    arr = getattr(self, name)
                    for i in range(arr.shape[1]):
                        writer.writerow([int(t), name, i, _fmt(arr[ti, i]), ""])
                for name, scale in scalars:
                    writer.writerow([int(t), name, -1,
                                     _fmt(getattr(self, name)[ti]),
                                     "" if scale is None else _fmt(scale)])


def canonicalize_instance(inst: ProblemInstance) -> ProblemInstance:
    """Rotate each node's signal frame so the true signal is q_i * e_1.

    Applies the same unitary to that node's design vectors, which preserves
    every model value and the design distribution; measurements are kept.
    """
    if inst.b_rows.ndim != 2:
        raise ParameterError("canonicalize the base instance, not a sign ensemble")
    s, N = inst.s, inst.N
    a_new = np.empty_like(inst.a)
    x_new = np.zeros((s, N), dtype=complex)
    for i in range(s):
        u = _e1_unitary(inst.truth.x[i] / inst.truth.q[i])
        a_new[i] = inst.a[i] @ u.T
        x_new[i, 0] = inst.truth.q[i]
    truth = GroundTruth(h=inst.truth.h.copy(), x=x_new, q=inst.truth.q.copy())
    return ProblemInstance(s=s, K=inst.K, N=N, m=inst.m, b_rows=inst.b_rows,
                           a=a_new, truth=truth, y=inst.y.copy(),
                           sigma2_e=inst.sigma2_e, seed=inst.seed)


def sample_sign_flips(s: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """s x m unit-modulus scalars u/|u| with u standard complex Gaussian."""
    u = rng.normal(0.0, np.sqrt(0.5), (s, m)) + 1j * rng.normal(0.0, np.sqrt(0.5), (s, m))
    mag = np.abs(u)
    mag[mag == 0.0] = 1.0
    return u / mag


def apply_sign_flips(inst: ProblemInstance, xi: np.ndarray) -> ProblemInstance:
    """Flip the first design entry and the access rows by xi_ij.

    Measurements are not regenerated: with canonical ground truth the flipped
    ensemble produces identical measurements term by term.
    """
    if xi.shape != (inst.s, inst.m):
        raise ParameterError(f"sign flips shape {xi.shape} != {(inst.s, inst.m)}")
    _require_canonical(inst.truth)
    a_new = inst.a.copy()
    a_new[:, :, 0] *= xi
    b_new = xi.conj()[:, :, None] * np.broadcast_to(
        inst.b_rows[None, :, :], (inst.s, inst.m, inst.K))
    return ProblemInstance(s=inst.s, K=inst.K, N=inst.N, m=inst.m, b_rows=b_new,
                           a=a_new, truth=inst.truth, y=inst.y,
                           sigma2_e=inst.sigma2_e, seed=inst.seed)


def sign_flip_ensemble(inst: ProblemInstance, rng: np.random.Generator
                       ) -> Tuple[ProblemInstance, np.ndarray]:
    xi = sample_sign_flips(inst.s, inst.m, rng)
    return apply_sign_flips(inst, xi), xi


def leave_one_out_run(inst: ProblemInstance, l: int, z0: Iterate,
                      settings: SolverSettings,
                      base_weights: Optional[np.ndarray] = None) -> AuxiliaryRun:
    """Run the flow on the loss with sample l dropped, from the shared init."""
    if not 0 <= l < inst.m:
        raise IndexError(f"sample index {l} outside [0, {inst.m})")
    w = np.ones(inst.m) if base_weights is None else np.asarray(base_weights, float).copy()
    w[l] = 0.0
    trace = run_wf(inst, z0, settings, sample_weights=w)
    return AuxiliaryRun(kind="loo", index=l, trace=trace)


def run_diagnostics_suite(inst: ProblemInstance, z0: Iterate,
                          settings: SolverSettings, loo_indices: Sequence[int],
                          rng: np.random.Generator
                          ) -> Tuple[StateTrace, List[AuxiliaryRun], np.ndarray]:
    """Base run plus the three auxiliary families, all from the same z0."""
    if not settings.keep_iterates:
        raise ParameterError("diagnostics needs keep_iterates=True in the settings")
    base = run_wf(inst, z0, settings)
    aux: List[AuxiliaryRun] = []
    for l in loo_indices:
        aux.append(leave_one_out_run(inst, l, z0, settings))
    inst_sgn, xi = sign_flip_ensemble(inst, rng)
    aux.append(AuxiliaryRun(kind="sign", index=None,
                            trace=run_wf(inst_sgn, z0, settings)))
    for l in loo_indices:
        run = leave_one_out_run(inst_sgn, l, z0, settings)
        aux.append(AuxiliaryRun(kind="sign_loo", index=run.index, trace=run.trace))
    return base, aux, xi


def select_loo_indices(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of dropped-sample indices (checking all m is O(m) runs)."""
    count = min(count, m)
    return np.sort(rng.choice(m, size=count, replace=False))


def measure_hypotheses(base: StateTrace, aux: Sequence[AuxiliaryRun],
                       truth: GroundTruth, inst: ProblemInstance) -> HypothesisReport:
    """Evaluate the distance/norm/incoherence quantities the induction
    hypotheses bound, for every iteration logged in all runs.

    Mutual alignments between auxiliary and base iterates are resolved with
    the same scalar alignment used for the truth alignment.  Entries where an
    alignment is degenerate are NaN.
    """
    loo = [r for r in aux if r.kind == "loo"]
    sign = [r for r in aux if r.kind == "sign"]
    sign_loo = {r.index: r for r in aux if r.kind == "sign_loo"}
    if base.iterates is None or any(r.trace.iterates is None for r in aux):
        raise ParameterError("all traces must be run with keep_iterates=True")
    n_t = min([len(base.iterates)] + [len(r.trace.iterates) for r in aux])
    s = truth.s
    q = truth.q
    d_i = 2.0 * q ** 2
    mu = metrics.incoherence(truth, inst.b_rows)
    m = inst.m
    log_m = np.log(m)
    log5m_sqrt = np.sqrt(log_m ** 5)

    shape = (n_t, s)
    out = {name: np.full(shape, np.nan) for name in
           ("loo_dist", "loo_signal_h", "loo_signal_x", "sign_dist_h",
            "sign_dist_x", "double_diff_h", "double_diff_x",
            "norm_ratio_h", "norm_ratio_x")}
    norm_min = np.full(n_t, np.nan)
    norm_max = np.full(n_t, np.nan)
    incoh_x = np.full(n_t, np.nan)
    incoh_h = np.full(n_t, np.nan)

    for ti in range(n_t):
        z = base.iterates[ti]
        h_t, x_t = _aligned_blocks(z, truth)          # (s,K), (s,N) truth-aligned
        alpha_h = np.abs(base.alpha_h[ti])
        alpha_x = np.abs(base.alpha_x[ti])

        h_norms = np.linalg.norm(z.h, axis=1)
        x_norms = np.linalg.norm(z.x, axis=1)
        norm_min[ti] = min(h_norms.min(), x_norms.min())
        norm_max[ti] = max(h_norms.max(), x_norms.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            out["norm_ratio_h"][ti] = h_norms / (alpha_h * log5m_sqrt)
            out["norm_ratio_x"][ti] = x_norms / (alpha_x * log5m_sqrt)

        ht_norm = np.linalg.norm(h_t, axis=1)
        xt_norm = np.linalg.norm(x_t, axis=1)
        incoh_x[ti] = np.abs((inst.a @ x_t.conj()[:, :, None])[:, :, 0] /
                             xt_norm[:, None]).max()
        incoh_h[ti] = np.abs(_apply_b(inst.b_rows, h_t) / ht_norm[:, None]).max()

        loo_aligned = {}
        for run in loo:
            z_l = run.trace.iterates[ti]
            h_hat, x_hat, cost = _mutual_align(z_l, h_t, x_t)
            loo_aligned[run.index] = (h_hat, x_hat)
            for i in range(s):
                d_val = np.sqrt(cost[i] / d_i[i])
                out["loo_dist"][ti, i] = _nanmax(out["loo_dist"][ti, i], d_val)
                sig_h = abs(np.vdot(truth.h[i], h_hat[i] - h_t[i])) / q[i]
                sig_x = abs(np.vdot(truth.x[i], x_hat[i] - x_t[i])) / q[i]
                out["loo_signal_h"][ti, i] = _nanmax(out["loo_signal_h"][ti, i], sig_h)
                out["loo_signal_x"][ti, i] = _nanmax(out["loo_signal_x"][ti, i], sig_x)

        if sign:
            z_s = sign[0].trace.iterates[ti]
            h_chk, x_chk, _ = _mutual_align(z_s, h_t, x_t)
            out["sign_dist_h"][ti] = np.linalg.norm(h_chk - h_t, axis=1)
            out["sign_dist_x"][ti] = np.linalg.norm(x_chk - x_t, axis=1)
            for l, (h_hat, x_hat) in loo_aligned.items():
                if l not in sign_loo:
                    continue
                z_sl = sign_loo[l].trace.iterates[ti]
                h_sl, x_sl, _ = _mutual_align(z_sl, h_chk, x_chk)
                dd_h = np.linalg.norm(h_t - h_hat - h_chk + h_sl, axis=1)
                dd_x = np.linalg.norm(x_t - x_hat - x_chk + x_sl, axis=1)
                for i in range(s):
                    out["double_diff_h"][ti, i] = _nanmax(out["double_diff_h"][ti, i], dd_h[i])
                    out["double_diff_x"][ti, i] = _nanmax(out["double_diff_x"][ti, i], dd_x[i])

    return HypothesisReport(
        t=np.asarray(base.t[:n_t]),
        norm_min=norm_min, norm_max=norm_max,
        incoh_x=incoh_x, incoh_x_scale=float(np.sqrt(log_m)),
        incoh_h=incoh_h, incoh_h_scale=float(mu / np.sqrt(m) * log_m ** 2),
        **out)


def concentration_report(inst: ProblemInstance) -> ConcentrationReport:
    """Design-vector maxima against their concentration bounds, plus the
    incoherence parameter of the instance."""
    max_first = float(np.abs(inst.a[:, :, 0]).max())
    bound_first = 5.0 * np.sqrt(np.log(inst.m))
    max_norm = float(np.linalg.norm(inst.a, axis=2).max())
    bound_norm = 3.0 * np.sqrt(inst.N)
    b_rows = inst.b_rows if inst.b_rows.ndim == 2 else inst.b_rows[0]
    mu = metrics.incoherence(inst.truth, b_rows)
    return ConcentrationReport(
        max_abs_first_entry=max_first, first_entry_bound=float(bound_first),
        max_design_norm=max_norm, design_norm_bound=float(bound_norm),
        incoherence=mu,
        first_entry_ok=bool(max_first <= bound_first),
        design_norm_ok=bool(max_norm <= bound_norm))


def _aligned_blocks(z: Iterate, truth: GroundTruth):
    s = truth.s
    h_t = np.empty_like(z.h)
    x_t = np.empty_like(z.x)
    for i in range(s):
        omega = metrics.align_pair(z.h[i], z.x[i], truth.h[i], truth.x[i]).omega
        h_t[i] = z.h[i] / np.conj(omega)
        x_t[i] = omega * z.x[i]
    return h_t, x_t


def _mutual_align(z_aux: Iterate, h_ref: np.ndarray, x_ref: np.ndarray):
    s = h_ref.shape[0]
    h_out = np.empty_like(h_ref)
    x_out = np.empty_like(x_ref)
    cost = np.empty(s)
    for i in range(s):
        res = metrics.align_pair(z_aux.h[i], z_aux.x[i], h_ref[i], x_ref[i])
        h_out[i] = z_aux.h[i] / np.conj(res.omega)
        x_out[i] = res.omega * z_aux.x[i]
        cost[i] = res.cost
    return h_out, x_out, cost


def _e1_unitary(u: np.ndarray) -> np.ndarray:
    """Unitary sending the unit vector u to e_1 (Householder plus a phase)."""
    n = u.size
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    c = u[0] / abs(u[0]) if u[0] != 0 else 1.0 + 0j
    w = u - c * e1
    wn2 = np.vdot(w, w).real
    if wn2 < 1e-30:
        house = np.eye(n, dtype=complex)
    else:
        house = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj()) / wn2
    # house @ u = c * e1; strip the leftover phase on the first coordinate
    phase = np.eye(n, dtype=complex)
    phase[0, 0] = np.conj(c)
    return phase @ house


def _require_canonical(truth: GroundTruth, tol: float = 1e-9) -> None:
    off = np.linalg.norm(truth.x[:, 1:], axis=1) if truth.x.shape[1] > 1 else np.zeros(truth.s)
    first = truth.x[:, 0]
    if np.any(off > tol * truth.q) or np.any(np.abs(first - truth.q) > tol * truth.q):
        raise ParameterError(
            "sign flips need ground-truth signals along e_1; canonicalize_instance first")


def _nanmax(current: float, new: float) -> float:
    return new if np.isnan(current) else max(current, new)


def _fmt(v) -> str:
    return f"{float(v):.17g}"
