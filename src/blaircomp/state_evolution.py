"""State-evolution recursions, perturbation extraction, and stage detection.

In the infinite-sample limit the per-node signal/perpendicular components
follow a closed two-variable recursion; on finite-sample traces the same
recursion holds up to small perturbation terms, which are extracted here by
inverting it.  Stage boundaries mark when the signal components grow large
(T_1, T_2) and when all components enter the contraction region (T_gamma).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class SEState:
    """Population-level state: real component sizes per node plus q and eta."""

    alpha_h: np.ndarray
    beta_h: np.ndarray
    alpha_x: np.ndarray
    beta_x: np.ndarray
    q: np.ndarray
    eta: float


@dataclass(frozen=True)
class PerturbationSeries:
    """Deviations of a measured trace from the population recursion.

    phi is uniquely determined by the beta recursions.  The alpha recursions
    carry two unknowns per scalar equation, so the full deviation is reported
    as delta (measured alpha minus the population prediction) and psi is the
    residual solve under the convention rho == 0, so rho is not reported.
    Entries where an inversion denominator vanishes are NaN.
    """

    psi_h: np.ndarray   # (T-1, s)
    psi_x: np.ndarray
    phi_h: np.ndarray
    phi_x: np.ndarray
    delta_h: np.ndarray
    delta_x: np.ndarray


@dataclass(frozen=True)
class StageReport:
    """Stage boundaries (iteration numbers, None when never reached) and the
    fitted per-iteration growth rates of log(|alpha|/beta) over Stage I."""

    T_gamma: Optional[int]
    T_1: Optional[int]
    T_2: Optional[int]
    gamma: float
    t1_threshold: float
    t2_threshold: float
    growth_rate_h: np.ndarray   # (s,)
    growth_rate_x: np.ndarray   # (s,)

    def to_json_dict(self) -> Dict:
        doc = asdict(self)
        for key in ("growth_rate_h", "growth_rate_x"):
            doc[key] = [float(v) if np.isfinite(v) else None for v in doc[key]]
        return doc


def population_se_step(state: SEState) -> SEState:
    """One synchronous recursion step using the pre-step values throughout."""
    den_h = state.alpha_h ** 2 + state.beta_h ** 2
    den_x = state.alpha_x ** 2 + state.beta_x ** 2
    if np.any(den_h == 0.0) or np.any(den_x == 0.0):
        raise ParameterError("degenerate state: zero component energy")
    eta, q = state.eta, state.q
    alpha_x = (1.0 - eta) * state.alpha_x + eta * q * state.alpha_h / den_h
    beta_x = (1.0 - eta) * state.beta_x
    alpha_h = (1.0 - eta) * state.alpha_h + eta * q * state.alpha_x / den_x
    beta_h = (1.0 - eta) * state.beta_h
    return SEState(alpha_h=alpha_h, beta_h=beta_h, alpha_x=alpha_x,
                   beta_x=beta_x, q=q, eta=eta)


def run_population_se(state: SEState, steps: int) -> Dict[str, np.ndarray]:
    """Stack the recursion for ``steps`` iterations; arrays are (steps+1, s)."""
    hist = {k: [getattr(state, k)] for k in ("alpha_h", "beta_h", "alpha_x", "beta_x")}
    for _ in range(steps):
        state = population_se_step(state)
        for k in hist:
            hist[k].append(getattr(state, k))
    return {k: np.asarray(v) for k, v in hist.items()}


def extract_perturbations(trace) -> PerturbationSeries:
    """Invert the approximate recursions on consecutive logged iterations,
    with the trace's own q and step size eta.

    Works on the magnitudes (measured alpha may be complex) of a cadence-1
    trace; delta is alpha minus ``population_se_step``'s prediction.
    """
    if np.any(np.diff(trace.t) != 1):
        raise ParameterError("perturbations need a trace logged at every iteration")
    now = _measured_state(trace)
    pred = population_se_step(now)      # row t predicts row t + 1
    a_h, b_h, a_x, b_x = now.alpha_h, now.beta_h, now.alpha_x, now.beta_x
    eta, eta_q = now.eta, now.eta * now.q[None, :]
    den_h = a_h ** 2 + b_h ** 2     # multiplies the x-update terms
    den_x = a_x ** 2 + b_x ** 2

    phi_h = _safe_div((b_h[1:] / _nan_zero(b_h[:-1]) - (1.0 - eta)) * den_x[:-1], eta_q)
    phi_x = _safe_div((b_x[1:] / _nan_zero(b_x[:-1]) - (1.0 - eta)) * den_h[:-1], eta_q)
    delta_h = a_h[1:] - pred.alpha_h[:-1]
    delta_x = a_x[1:] - pred.alpha_x[:-1]
    psi_h = _safe_div(delta_h * den_x[:-1], eta_q * _nan_zero(a_h[:-1]))
    psi_x = _safe_div(delta_x * den_h[:-1], eta_q * _nan_zero(a_x[:-1]))
    return PerturbationSeries(psi_h=psi_h, psi_x=psi_x, phi_h=phi_h, phi_x=phi_x,
                              delta_h=delta_h, delta_x=delta_x)


def detect_stages(trace, gamma: float = 0.1, t1_threshold: float = 1.0,
                  t2_threshold: float = 0.1) -> StageReport:
    """Scan a trace for the stage boundaries and fit Stage-I growth rates.

    T_gamma is the first logged iteration where every per-node component
    satisfies the contraction-region conditions; T_1 and T_2 are the first
    iterations where the normalized signal components clear 1/log^5(m)-scale
    and constant thresholds respectively.
    """
    now = _measured_state(trace)
    q, a_h, b_h, a_x, b_x = now.q, now.alpha_h, now.beta_h, now.alpha_x, now.beta_x
    kappa = float(np.max(q) / np.min(q))
    t_idx = np.asarray(trace.t)

    thr = gamma / (2.0 * kappa * np.sqrt(q.size))
    in_region = ((np.abs(a_h - q[None, :]) <= thr) & (b_h <= thr)
                 & (np.abs(a_x - q[None, :]) <= thr) & (b_x <= thr)).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):   # m = 1: never reached
        t1_scale = t1_threshold / np.log(trace.m) ** 5
    signal = (np.minimum(a_h, a_x) / q[None, :]).min(axis=1)   # weakest |alpha_i|/q_i

    T_gamma = _first_true(in_region, t_idx)
    T_1 = _first_true(signal >= t1_scale, t_idx)
    T_2 = _first_true(signal > t2_threshold, t_idx)

    window = np.ones(len(t_idx), dtype=bool) if T_gamma is None else (t_idx <= T_gamma)
    growth_h = _fit_log_ratio(t_idx[window], a_h[window], b_h[window])
    growth_x = _fit_log_ratio(t_idx[window], a_x[window], b_x[window])
    return StageReport(T_gamma=T_gamma, T_1=T_1, T_2=T_2, gamma=gamma,
                       t1_threshold=t1_threshold, t2_threshold=t2_threshold,
                       growth_rate_h=growth_h, growth_rate_x=growth_x)


def _measured_state(trace) -> SEState:
    """The trace's component magnitudes as (T, s) arrays."""
    return SEState(np.abs(trace.alpha_h), np.asarray(trace.beta_h), np.abs(trace.alpha_x),
                   np.asarray(trace.beta_x), np.asarray(trace.q, dtype=float), trace.eta)


def _first_true(mask: np.ndarray, t_idx: np.ndarray) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(t_idx[hits[0]]) if hits.size else None


def _fit_log_ratio(t_idx, alpha_abs, beta) -> np.ndarray:
    s = alpha_abs.shape[1]
    slopes = np.full(s, np.nan)
    for i in range(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.log(alpha_abs[:, i] / beta[:, i])
        ok = np.isfinite(log_ratio)
        if ok.sum() >= 2:
            slopes[i] = np.polyfit(t_idx[ok], log_ratio[ok], 1)[0]
    return slopes


def _safe_div(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    return np.where(np.isfinite(out), out, np.nan)


def _nan_zero(arr, eps: float = 1e-300):
    return np.where(np.abs(arr) <= eps, np.nan, arr)
