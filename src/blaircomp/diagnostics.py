"""Leave-one-out and random-sign auxiliary runs plus empirical hypothesis checks.

Auxiliary solver trajectories share the base run's initial point: dropping
one sample decouples the iterates from that sample's design vector, and
unit-modulus sign flips on the first design entry (paired with flips on the
access vectors) leave every measurement unchanged once the ground-truth
signals are rotated onto the first basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from . import metrics
from .ensemble import (GroundTruth, ProblemInstance, _complex_gaussian, _is_count,
                       measurement_factors)
from .errors import DimensionMismatchError, ParameterError
from .solver import Iterate, SolverSettings, StateTrace, run_wf

# measure_hypotheses' blocks: log points per incoherence block, and
# leave-one-out rows of each family per alignment call.
_INCOH_BLOCK = 8
_LOO_ROWS = 2
# Weight rows per run_wf call of run_diagnostics_suite.  Every step of a call
# allocates (rows, s, m) complex factors: for all 401 rows at L = m = 400,
# about 5 MB a step, which set the run's peak memory.
_SUITE_ROWS = 32


@dataclass(frozen=True)
class ConcentrationReport:
    max_abs_first_entry: float
    first_entry_bound: float      # 5 sqrt(log m)
    max_design_norm: float
    design_norm_bound: float      # 3 sqrt(N)
    incoherence: float
    first_entry_ok: bool
    design_norm_ok: bool


@dataclass
class HypothesisReport:
    """Measured left-hand sides of the induction hypotheses per iteration,
    alongside the comparison scales the analysis bounds them with, in the
    row order of ``hypotheses_<trial>.csv``."""

    t: np.ndarray                  # (T,)
    loo_dist: np.ndarray           # (T, s) max over dropped samples
    loo_signal_h: np.ndarray       # (T, s)
    loo_signal_x: np.ndarray       # (T, s)
    sign_dist_h: np.ndarray        # (T, s)
    sign_dist_x: np.ndarray        # (T, s)
    double_diff_h: np.ndarray      # (T, s)
    double_diff_x: np.ndarray      # (T, s)
    norm_ratio_h: np.ndarray       # (T, s) ||h_i|| / (|alpha_h| sqrt(log^5 m))
    norm_ratio_x: np.ndarray       # (T, s)
    norm_min: np.ndarray           # (T,) min block norm over nodes
    norm_max: np.ndarray           # (T,)
    incoh_x: np.ndarray            # (T,) max |a_il^H x~| / ||x~||
    incoh_h: np.ndarray            # (T,) max |b_l^H h~| / ||h~||
    incoh_x_scale: float           # sqrt(log m)
    incoh_h_scale: float           # (mu/sqrt(m)) log^2 m


def canonicalize_instance(inst: ProblemInstance) -> ProblemInstance:
    """Rotate each node's signal frame so the true signal is q_i * e_1.

    Applies the same unitary to that node's design vectors, which preserves
    every model value and the design distribution; measurements are kept.
    A folded sign ensemble keeps its truth on e_1, so for it the rotation is
    the identity.
    """
    s, N = inst.s, inst.N
    a_new = np.empty_like(inst.a)
    x_new = np.zeros((s, N), dtype=complex)
    for i in range(s):
        u = _e1_unitary(inst.truth.x[i] / inst.truth.q[i])
        a_new[i] = inst.a[i] @ u.T
        x_new[i, 0] = inst.truth.q[i]
    truth = GroundTruth(h=inst.truth.h.copy(), x=x_new, q=inst.truth.q.copy())
    return ProblemInstance(b_rows=inst.b_rows, a=a_new, truth=truth, y=inst.y.copy())


def sample_sign_flips(s: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """s x m unit-modulus scalars u/|u| with u standard complex Gaussian."""
    u = _complex_gaussian(rng, (s, m), 1.0)
    mag = np.abs(u)
    mag[mag == 0.0] = 1.0
    return u / mag


def apply_sign_flips(inst: ProblemInstance, xi: np.ndarray) -> ProblemInstance:
    """Flip the first design entry by xi_ij and the access row by conj(xi_ij).

    The flips are stored folded into the design tensor, on the shared rows:
    conj(xi_ij) (b_j^H h_i) (x_i^H a^sgn_ij) = (b_j^H h_i) (x_i^H a~_ij) with
    a^sgn_ij = (xi_ij a_ij,1, a_ij,2:N) and a~_ij = (a_ij,1, conj(xi_ij) a_ij,2:N),
    so the returned instance has the loss of the per-node construction.
    Measurements are not regenerated: with canonical ground truth the flipped
    ensemble produces identical measurements term by term.
    """
    if xi.shape != (inst.s, inst.m):
        raise ParameterError(f"sign flips shape {xi.shape} != {(inst.s, inst.m)}")
    _require_canonical(inst.truth)
    a_new = inst.a * xi.conj()[:, :, None]
    a_new[:, :, 0] = inst.a[:, :, 0]    # copied, not |xi|^2 a: the identity is exact
    return ProblemInstance(b_rows=inst.b_rows, a=a_new, truth=inst.truth, y=inst.y)


def run_diagnostics_suite(inst: ProblemInstance, z0: Iterate,
                          settings: SolverSettings, loo_indices: Sequence[int],
                          rng: np.random.Generator
                          ) -> Tuple[List[StateTrace], List[StateTrace]]:
    """Base run plus the three auxiliary families, all from the same z0.

    Lockstep ``run_wf`` calls, on ``inst`` and on its sign-flipped
    ensemble, each family with 1+L weight rows: all ones, then one row per
    dropped sample of ``loo_indices``.  One stop holds for every row: only
    the base run tests ``settings.tol``, and every auxiliary row runs with
    none to the base run's last iteration, so it logs the base run's log
    points and aligns nothing to the truth in the solver loop.  With a
    finite tolerance the base runs alone first (a base that stops at t = 0
    still gives the rows the one step a run takes); with none the stop is
    ``max_iters`` and the base is row 0 of its family.  A family's rows
    go ``_SUITE_ROWS`` to a call, so no call holds per-step factors for more
    rows than that; rows are independent, so their traces do not depend on
    the groups.  Returns both families' traces in row order, (base,
    loo_1..L) and (sign, sign_loo_1..L); row k of both dropped the same
    sample.  The first failed row, in row order, raises its error.
    """
    weights = _loo_weights(inst.m, loo_indices)
    stop, plain = settings.max_iters, []
    if np.isfinite(settings.tol):
        plain = [run_wf(inst, z0, settings)]
        stop = max(plain[0].n_iters, 1)
    rows = replace(settings, tol=np.inf, max_iters=stop)
    plain += _run_rows(inst, z0, rows, weights[len(plain):])
    inst_sgn = apply_sign_flips(inst, sample_sign_flips(inst.s, inst.m, rng))
    return plain, _run_rows(inst_sgn, z0, rows, weights)


def _run_rows(inst: ProblemInstance, z0: Iterate, settings: SolverSettings,
              weights: np.ndarray) -> List[StateTrace]:
    """The traces of ``run_wf`` on each weight row, ``_SUITE_ROWS`` rows a call."""
    groups = (weights[first:first + _SUITE_ROWS]
              for first in range(0, len(weights), _SUITE_ROWS))
    return [trace for group in groups
            for trace in run_wf(inst, z0, settings, sample_weights=group).traces()]


def select_loo_indices(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of dropped-sample indices (checking all m takes m + 1
    weight rows in each of the suite's two families)."""
    _check_loo_count(count)
    count = min(count, m)
    return np.sort(rng.choice(m, size=count, replace=False))


def _check_loo_count(count) -> None:
    if not _is_count(count, 0):
        raise ParameterError(f"dropped-sample count must be an integer >= 0, got {count}")


def _check_log_m(m: int) -> None:
    if m < 2:
        raise ParameterError(f"the hypothesis scales need log m > 0, got m={m}")


def measure_hypotheses(plain: Sequence[StateTrace], flipped: Sequence[StateTrace],
                       inst: ProblemInstance) -> HypothesisReport:
    """Evaluate the distance/norm/incoherence quantities the induction
    hypotheses bound, at every log point of the base run.

    ``plain`` and ``flipped`` are the two trace lists of
    ``run_diagnostics_suite``, paired by position.  Every row of the suite
    runs to the base run's stop, so the report covers the base run's log
    points, those of the trial's ``trace.csv``; a row that logged fewer
    raises ``DimensionMismatchError``.  Base iterates are aligned to
    ``inst.truth`` with the omega the base run logged, and the sign run to
    the aligned base.  The leave-one-out rows are taken ``_LOO_ROWS`` pairs
    at a time: one batched call aligns plain row k to the aligned base and
    flipped row k to the aligned sign run over all iterations, and per-run
    quantities keep a running max over the rows.  With no dropped samples
    the leave-one-out entries are NaN.  The incoherence maxima are taken
    ``_INCOH_BLOCK`` log points at a time, and each block's (s, m)
    measurement factors are dropped before the next, so the pass's memory
    does not grow with the number of dropped samples.  Alignments and
    products are per pair and per row and a max is exact, so the values do
    not depend on either block size.
    Needs m >= 2: the scales are powers of log m.
    """
    if not plain or len(plain) != len(flipped):
        raise DimensionMismatchError(
            f"need two equal, non-empty trace lists, got {len(plain)} and {len(flipped)}")
    _check_log_m(inst.m)
    base, sign = plain[0], flipped[0]
    truth = inst.truth
    n_t = len(base.t)
    if min(len(tr.t) for tr in (*plain, *flipped)) < n_t:
        raise DimensionMismatchError(
            f"every run needs the base run's {n_t} log points, some logged fewer")
    mu = metrics.incoherence(truth, inst.b_rows)
    m = inst.m
    log_m = np.log(m)
    log5m_sqrt = np.sqrt(log_m ** 5)

    out = {name: np.full((n_t, truth.s), np.nan) for name in
           ("loo_dist", "loo_signal_h", "loo_signal_x", "double_diff_h", "double_diff_x")}
    h, x = base.h[:n_t], base.x[:n_t]            # (T, s, K), (T, s, N)
    omega = base.omega[:n_t, :, None]
    h_t, x_t = h / np.conj(omega), omega * x     # truth-aligned
    h_norms = np.linalg.norm(h, axis=2)
    x_norms = np.linalg.norm(x, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out["norm_ratio_h"] = h_norms / (np.abs(base.alpha_h[:n_t]) * log5m_sqrt)
        out["norm_ratio_x"] = x_norms / (np.abs(base.alpha_x[:n_t]) * log5m_sqrt)
    incoh_x, incoh_h = np.empty(n_t), np.empty(n_t)
    for start in range(0, n_t, _INCOH_BLOCK):
        sl = slice(start, start + _INCOH_BLOCK)
        bh, xa = measurement_factors(h_t[sl], x_t[sl], inst.b_rows, inst.a)
        incoh_x[sl] = np.abs(xa / np.linalg.norm(x_t[sl], axis=2)[..., None]).max(axis=(1, 2))
        incoh_h[sl] = np.abs(bh / np.linalg.norm(h_t[sl], axis=2)[..., None]).max(axis=(1, 2))
        del bh, xa                    # before the next block's factors

    chk = metrics.align_pair(sign.h[:n_t], sign.x[:n_t], h_t, x_t)
    out["sign_dist_h"] = np.linalg.norm(chk.h - h_t, axis=-1)
    out["sign_dist_x"] = np.linalg.norm(chk.x - x_t, axis=-1)
    refs = np.stack([h_t, chk.h]), np.stack([x_t, chk.x])
    for start in range(1, len(plain), _LOO_ROWS):
        rows = (plain[start:start + _LOO_ROWS], flipped[start:start + _LOO_ROWS])
        for name, peak in _loo_peaks(rows, n_t, truth, *refs).items():
            out[name] = peak if start == 1 else np.maximum(out[name], peak)

    return HypothesisReport(
        t=np.asarray(base.t[:n_t]),
        norm_min=np.minimum(h_norms.min(axis=1), x_norms.min(axis=1)),
        norm_max=np.maximum(h_norms.max(axis=1), x_norms.max(axis=1)),
        incoh_x=incoh_x, incoh_x_scale=float(np.sqrt(log_m)),
        incoh_h=incoh_h, incoh_h_scale=float(mu / np.sqrt(m) * log_m ** 2),
        **out)


def _loo_peaks(rows: Tuple[Sequence[StateTrace], Sequence[StateTrace]], n_t: int,
               truth: GroundTruth, h_ref: np.ndarray, x_ref: np.ndarray) -> dict:
    """The leave-one-out quantities of one block of paired rows (plain,
    flipped), maxed over the block's rows.  One ``align_pair`` call aligns
    the plain rows to (h_ref[0], x_ref[0]), the aligned base, and the flipped
    rows to (h_ref[1], x_ref[1]), the aligned sign run.  Dividing by q > 0
    after the max is monotone, so a max over blocks is the max over rows."""
    res = metrics.align_pair(np.stack([[tr.h[:n_t] for tr in r] for r in rows]),
                             np.stack([[tr.x[:n_t] for tr in r] for r in rows]),
                             h_ref[:, None], x_ref[:, None])
    (hat_h, both_h), (hat_x, both_x) = res.h, res.x
    (h_t, chk_h), (x_t, chk_x) = h_ref, x_ref
    q = truth.q
    return {
        "loo_dist": np.sqrt(res.cost[0] / (2.0 * q ** 2)).max(axis=0),
        "loo_signal_h": np.abs(np.sum(truth.h.conj() * (hat_h - h_t), axis=-1)
                               ).max(axis=0) / q,
        "loo_signal_x": np.abs(np.sum(truth.x.conj() * (hat_x - x_t), axis=-1)
                               ).max(axis=0) / q,
        "double_diff_h": np.linalg.norm(h_t - hat_h - chk_h + both_h, axis=-1).max(axis=0),
        "double_diff_x": np.linalg.norm(x_t - hat_x - chk_x + both_x, axis=-1).max(axis=0)}


def concentration_report(inst: ProblemInstance) -> ConcentrationReport:
    """Design-vector maxima against their concentration bounds, plus the
    incoherence parameter of the instance."""
    max_first = float(np.abs(inst.a[:, :, 0]).max())
    bound_first = 5.0 * np.sqrt(np.log(inst.m))
    max_norm = float(np.linalg.norm(inst.a, axis=2).max())
    bound_norm = 3.0 * np.sqrt(inst.N)
    mu = metrics.incoherence(inst.truth, inst.b_rows)
    return ConcentrationReport(
        max_abs_first_entry=max_first, first_entry_bound=float(bound_first),
        max_design_norm=max_norm, design_norm_bound=float(bound_norm),
        incoherence=mu,
        first_entry_ok=bool(max_first <= bound_first),
        design_norm_ok=bool(max_norm <= bound_norm))


def _loo_weights(m: int, indices: Sequence[int]) -> np.ndarray:
    """(1+L, m) sample weights: row 0 all ones, row k+1 drops sample
    ``indices[k]``."""
    rows = np.ones((1 + len(indices), m))
    for k, l in enumerate(indices):
        if not (_is_count(l, 0) and l < m):
            raise ParameterError(f"sample index {l} is not an integer in [0, {m})")
        rows[k + 1, l] = 0.0
    return rows


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

