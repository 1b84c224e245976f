"""Ambiguity alignment, error metrics, and signal/perpendicular splits.

Every bilinear pair (h_i, x_i) carries the gauge ambiguity
(h_i, x_i) -> (h_i/omega*, omega*x_i); all metrics first resolve it by
minimizing the alignment objective over the complex scalar omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .ensemble import GroundTruth
from .errors import DegenerateAlignmentError, UndefinedMetricError

_SUBDIAGONAL = np.eye(6, k=-1)     # the ones of a sextic's companion matrix


@dataclass(frozen=True)
class AlignmentResult:
    omega: Union[complex, np.ndarray]   # batch-shaped for stacked blocks
    cost: Union[float, np.ndarray]


@dataclass(frozen=True)
class ComponentDecomposition:
    """Per-node overlap with the ground-truth direction and its complement.

    alpha may be complex on measured traces; |alpha|^2 + beta^2 equals the
    squared norm of the aligned block (Pythagoras).
    """

    alpha_h: np.ndarray      # (s,) complex
    beta_h: np.ndarray       # (s,) real >= 0
    alpha_x: np.ndarray      # (s,) complex
    beta_x: np.ndarray       # (s,) real >= 0
    rmse_x: np.ndarray       # (s,) beta_x / ||x_i|| of the raw iterate
    omega: np.ndarray        # (s,) complex alignment parameters used


@dataclass(frozen=True)
class MetricSnapshot:
    relative_error: Union[float, np.ndarray]    # batch-shaped for stacked runs
    dist: Union[float, np.ndarray]
    decomposition: ComponentDecomposition


def align_pair(h_a: np.ndarray, x_a: np.ndarray,
               h_b: np.ndarray, x_b: np.ndarray) -> AlignmentResult:
    """Global minimizer of ||h_a/w* - h_b||^2 + ||w*x_a - x_b||^2 over w.

    Blocks may be stacked, h_a (..., K) and x_a (..., N) against h_b and x_b
    that broadcast with them; every pair is aligned at once and omega and
    cost have the batch shape.  1-D blocks give a complex and a float.

    Writing w = r*exp(i*theta), the optimal phase for fixed r is
    theta = -arg(c1/r + c2*r) with c1 = h_b^H h_a and c2 = x_b^H x_a, which
    leaves g(u) = a2/u + b2*u - 2*sqrt(p/u + q*u + rc) in u = r^2.  Its
    stationary points are positive roots of the sextic
    (b2*u^2 - a2)^2 (q*u^2 + rc*u + p) - u*(q*u^2 - p)^2, found as
    companion-matrix eigenvalues; the root with the lowest g, or
    u = sqrt(a2/b2) if that is lower, gets two Newton steps on g', since a
    near-double root keeps only half its digits in the eigenvalues.  The
    reported cost re-evaluates the objective at w.
    """
    a2 = (np.abs(h_a) ** 2).sum(axis=-1)
    b2 = (np.abs(x_a) ** 2).sum(axis=-1)
    if not (a2.all() and b2.all()):
        raise DegenerateAlignmentError("cannot align a zero block")
    c1 = (np.conj(h_b) * h_a).sum(axis=-1)
    c2 = (np.conj(x_b) * x_a).sum(axis=-1)
    # The root finding runs on the flattened batch, since numpy's cost per
    # call grows with the number of axes.
    batch = c1.shape
    if a2.shape != batch or b2.shape != batch:     # a broadcast reference
        a2, b2 = np.broadcast_to(a2, batch), np.broadcast_to(b2, batch)
    a2, b2, c1, c2 = a2.ravel(), b2.ravel(), c1.ravel(), c2.ravel()
    # u = sqrt(a2/b2)*v gives g = sqrt(a2*b2)*G(v) + const with
    # G(v) = v + 1/v - 2*sqrt(p/v + q*v + rc) in the rescaled p, q, rc below.
    # Swapping p and q maps v to 1/v, so the sextic is solved in w = v or 1/v,
    # whichever puts the larger of the two in the leading coefficient.
    u_scale = np.sqrt(a2 / b2)
    ab = a2 * b2
    p = np.abs(c1) ** 2 / (u_scale * ab)
    q = np.abs(c2) ** 2 * u_scale / ab
    rc = 2.0 * (c1 * np.conj(c2)).real / ab
    hi, lo = np.maximum(p, q), np.minimum(p, q)
    # (w^2 - 1)^2 (hi*w^2 + rc*w + lo) - w*(hi*w^2 - lo)^2, over its lead hi
    comp = np.empty(rc.shape + (6, 6))
    comp[...] = _SUBDIAGONAL
    for k, coef in enumerate((rc - hi * hi, lo - 2.0 * hi, 2.0 * (lo * hi - rc),
                              hi - 2.0 * lo, rc - lo * lo, lo)):
        comp[..., 0, k] = coef
    # hi = 0 means c1 = c2 = 0: every coefficient vanishes and only the
    # fallback w = 1 is left.
    comp[..., 0, :] /= -np.where(hi == 0.0, 1.0, hi)[..., None]
    w = np.concatenate([np.linalg.eigvals(comp).real, np.ones(rc.shape + (1,))],
                       axis=-1)
    w = np.where(w > 0.0, w, 1.0)        # non-positive roots: the fallback
    lo_, hi_, rc_ = lo[..., None], hi[..., None], rc[..., None]
    big_g = w + 1.0 / w - 2.0 * np.sqrt(np.maximum(lo_ / w + hi_ * w + rc_, 0.0))
    w = w[np.arange(len(w)), np.argmin(big_g, axis=-1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            phi = np.sqrt(lo / w + hi * w + rc)
            slope = hi - lo / w ** 2
            g1 = 1.0 - 1.0 / w ** 2 - slope / phi
            g2 = 2.0 / w ** 3 * (1.0 - lo / phi) + slope ** 2 / (2.0 * phi ** 3)
            step = w - g1 / g2
            w = np.where(np.isfinite(step) & (step > 0.0), step, w)
    r = np.sqrt(u_scale * np.where(p > q, 1.0 / w, w))
    omega = (r * np.exp(-1j * np.angle(c1 / r + c2 * r))).reshape(batch)
    cost = ((np.abs(h_a / np.conj(omega)[..., None] - h_b) ** 2).sum(axis=-1)
            + (np.abs(omega[..., None] * x_a - x_b) ** 2).sum(axis=-1))
    if omega.ndim == 0:
        return AlignmentResult(omega=complex(omega), cost=float(cost))
    return AlignmentResult(omega=omega, cost=cost)


def dist(z, truth: GroundTruth) -> float:
    """Aggregate gauge-invariant discrepancy between an iterate and the truth.

    Square root of the sum over nodes of the minimal alignment cost divided
    by d_i = ||h_bar_i||^2 + ||x_bar_i||^2.
    """
    return _dist(align_pair(z.h, z.x, truth.h, truth.x).cost, truth)


def relative_error(z, truth: GroundTruth) -> float:
    """Normalized error of the recovered target sum, with per-node alignment
    parameters recomputed at call time."""
    return _relative_error(align_pair(z.h, z.x, truth.h, truth.x).omega, z, truth)


def decompose(z, truth: GroundTruth) -> ComponentDecomposition:
    """Split each aligned block into its ground-truth-direction component
    (alpha) and perpendicular remainder norm (beta)."""
    return _decompose(z, truth, align_pair(z.h, z.x, truth.h, truth.x).omega)


def snapshot_metrics(z, truth: GroundTruth) -> MetricSnapshot:
    """relative_error, dist, and the component split from one alignment pass.

    The iterate may stack runs, h (..., s, K) and x (..., s, N); errors then
    have the batch shape and the decomposition's arrays (..., s).  The truth
    may stack per-run truths, h (..., s, K), x (..., s, N) and q (..., s),
    that broadcast against the iterate.
    """
    res = align_pair(z.h, z.x, truth.h, truth.x)
    return MetricSnapshot(relative_error=_relative_error(res.omega, z, truth),
                          dist=_dist(res.cost, truth),
                          decomposition=_decompose(z, truth, res.omega))


def incoherence(truth: GroundTruth, b_rows: np.ndarray) -> float:
    """sqrt(m) times the largest normalized correlation between access rows
    and ground-truth channels."""
    if np.any(truth.q == 0.0):
        raise DegenerateAlignmentError("zero channel in ground truth")
    corr = np.abs(truth.h @ b_rows.T) / truth.q[:, None]   # (s, m)
    return float(np.sqrt(b_rows.shape[0]) * corr.max())


def target_norm(truth: GroundTruth) -> np.ndarray:
    """||sum_i x_bar_i||, the relative error's normalizer, one per stacked
    truth; zero makes the relative error undefined."""
    target = truth.x.sum(axis=-2)
    # One 1-D norm per target: norm(axis=-1) rounds differently.
    return np.array([np.linalg.norm(v) for v in target.reshape(-1, target.shape[-1])]
                    ).reshape(target.shape[:-1])


def _relative_error(omega: np.ndarray, z, truth: GroundTruth):
    denom = target_norm(truth)
    if not denom.all():
        raise UndefinedMetricError("target vector sums to zero")
    recovered = (omega[..., None, :] @ z.x)[..., 0, :]
    return _scalar(np.linalg.norm(recovered - truth.x.sum(axis=-2), axis=-1) / denom)


def _dist(cost: np.ndarray, truth: GroundTruth):
    return _scalar(np.sqrt((cost / (2.0 * truth.q ** 2)).sum(axis=-1)))


def _decompose(z, truth: GroundTruth, omega: np.ndarray) -> ComponentDecomposition:
    alpha_h, beta_h = _components(z.h / np.conj(omega)[..., None], truth.h)
    alpha_x, beta_x = _components(omega[..., None] * z.x, truth.x)
    return ComponentDecomposition(alpha_h=alpha_h, beta_h=beta_h,
                                  alpha_x=alpha_x, beta_x=beta_x,
                                  rmse_x=beta_x / np.linalg.norm(z.x, axis=-1),
                                  omega=omega)


def _components(v_tilde: np.ndarray, v_bar: np.ndarray):
    """Per-row overlap with v_bar's direction and the norm of the remainder."""
    nb = np.linalg.norm(v_bar, axis=-1)
    overlap = (np.conj(v_bar) * v_tilde).sum(axis=-1)
    perp = v_tilde - (overlap / nb ** 2)[..., None] * v_bar
    return overlap / nb, np.linalg.norm(perp, axis=-1)


def _scalar(v: np.ndarray):
    """A float for a 0-d result, else the array."""
    return float(v) if v.ndim == 0 else v
