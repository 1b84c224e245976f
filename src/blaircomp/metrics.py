"""Ambiguity alignment, error metrics, and signal/perpendicular splits.

Every bilinear pair (h_i, x_i) carries the gauge ambiguity
(h_i, x_i) -> (h_i/omega*, omega*x_i); all metrics first resolve it by
minimizing the alignment objective over the complex scalar omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .ensemble import _RANGE_ERROR, GroundTruth, _block_norms2, _rows_product
from .errors import DegenerateAlignmentError, UndefinedMetricError

_SUBDIAGONAL = np.eye(6, k=-1)     # the ones of a sextic's companion matrix
_NEWTON_PASSES = 60                # cap on the certified pairs' Newton passes


@dataclass(frozen=True)
class AlignmentResult:
    omega: Union[complex, np.ndarray]   # batch-shaped for stacked blocks
    cost: Union[float, np.ndarray]
    h: np.ndarray                       # h_a / omega*, (..., K) batch-shaped
    x: np.ndarray                       # omega * x_a, (..., N)


@dataclass(frozen=True)
class MetricSnapshot:
    """The truth metrics of an iterate, batch-shaped for stacked runs; the
    fields are ``StateTrace``'s metric columns.

    alpha may be complex on measured traces; |alpha|^2 + beta^2 equals the
    squared norm of the aligned block (Pythagoras).
    """

    relative_error: Union[float, np.ndarray]
    dist: Union[float, np.ndarray]
    alpha_h: np.ndarray      # (s,) complex overlap with the truth direction
    beta_h: np.ndarray       # (s,) real >= 0, norm of the remainder
    alpha_x: np.ndarray      # (s,) complex
    beta_x: np.ndarray       # (s,) real >= 0
    rmse_x: np.ndarray       # (s,) beta_x / ||x_i|| of the raw iterate
    omega: np.ndarray        # (s,) complex alignment parameters used


def align_pair(h_a: np.ndarray, x_a: np.ndarray,
               h_b: np.ndarray, x_b: np.ndarray) -> AlignmentResult:
    """Global minimizer of ||h_a/w* - h_b||^2 + ||w*x_a - x_b||^2 over w.

    Blocks may be stacked, h_a (..., K) and x_a (..., N) against h_b and x_b
    that broadcast with them; every pair is aligned at once and omega and
    cost have the batch shape.  1-D blocks give a complex and a float.  The
    aligned blocks h_a/omega* and omega*x_a come back as ``h`` and ``x``.

    Writing w = r*exp(i*theta), the optimal phase for fixed r is
    theta = -arg(c1/r + c2*r) with c1 = h_b^H h_a and c2 = x_b^H x_a.  A
    rescaling of r^2 leaves a scale search over w > 0: minimize
        G(w) = w + 1/w - 2*sqrt(f(w)),   f(w) = lo/w + hi*w + rc,   hi >= lo,
    whose second derivative is
        G''(w) = (2/w^3)(1 - lo/sqrt(f)) + (hi - lo/w^2)^2 / (2*f^(3/2)).
    By AM-GM f >= 2*sqrt(lo*hi) + rc, so where the per-pair certificate
    hi > 0 and 2*sqrt(lo*hi) + rc >= lo^2 holds, sqrt(f) >= lo: G is convex
    and its one stationary point is the global minimizer, which lies at
    w >= 1 since G'(1) = -(hi - lo)/sqrt(f(1)) <= 0.  Those pairs get a
    bracketed Newton solve on G' from w = 1.

    The other pairs (hi = 0, or a G that may have two local minima), and
    any certified pair Newton does not finish within its pass cap, take the
    stationary points as the positive roots of the sextic
    (w^2 - 1)^2 (hi*w^2 + rc*w + lo) - w*(hi*w^2 - lo)^2, found as
    companion-matrix eigenvalues, and keep the one, or w = 1, with the
    lowest G.  Every pair then gets two Newton steps on G', since a
    near-double root keeps only half its digits in the eigenvalues.  The
    reported cost re-evaluates the objective at w.

    A block h_a or x_a whose norm is zero or outside ``ensemble._NORM_RANGE``
    (``ensemble._block_norms2``, the test ``wf_step`` and ``run_wf`` make)
    raises DegenerateAlignmentError; inside it, against references of norm
    in [1e-75, 1], every coefficient stays finite.  Against other
    references, scale or sextic coefficients that overflow raise it too.
    """
    # Sums that overflow surface below as non-finite coefficients.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a2, b2, aligns = _block_norms2(h_a, x_a)
        if not aligns:
            raise DegenerateAlignmentError(_RANGE_ERROR)
        c1 = (np.conj(h_b) * h_a).sum(axis=-1)
        c2 = (np.conj(x_b) * x_a).sum(axis=-1)
        # The root finding runs on the flattened batch, since numpy's cost
        # per call grows with the number of axes.
        batch = c1.shape
        if a2.shape != batch or b2.shape != batch:     # a broadcast reference
            a2, b2 = np.broadcast_to(a2, batch), np.broadcast_to(b2, batch)
        a2, b2, c1, c2 = a2.ravel(), b2.ravel(), c1.ravel(), c2.ravel()
        # u = sqrt(a2/b2)*v gives g = sqrt(a2*b2)*G(v) + const with
        # G(v) = v + 1/v - 2*sqrt(p/v + q*v + rc) in the rescaled p, q, rc
        # below.  Swapping p and q maps v to 1/v, so G is searched in w = v
        # or 1/v, whichever puts the larger of the two on w.
        u_scale = np.sqrt(a2 / b2)
        ab = a2 * b2
        p = np.abs(c1) ** 2 / (u_scale * ab)
        q = np.abs(c2) ** 2 * u_scale / ab
        rc = 2.0 * (c1 * np.conj(c2)).real / ab
        if not (np.isfinite(p) & np.isfinite(q) & np.isfinite(rc)).all():
            raise DegenerateAlignmentError("alignment coefficients overflow")
        hi, lo = np.maximum(p, q), np.minimum(p, q)
        convex = (hi > 0.0) & (2.0 * np.sqrt(lo * hi) + rc >= lo * lo)
        w = np.ones_like(rc)
        w[convex], converged = _newton_scale(lo[convex], hi[convex], rc[convex])
        rest = ~convex
        rest[convex] = ~converged      # Newton did not finish within its cap
        if rest.any():
            w[rest] = _companion_scale(lo[rest], hi[rest], rc[rest])
        for _ in range(2):
            g1, g2 = _scale_slopes(w, lo, hi, rc)
            step = w - g1 / g2
            w = np.where(np.isfinite(step) & (step > 0.0), step, w)
    r = np.sqrt(u_scale * np.where(p > q, 1.0 / w, w))
    omega = (r * np.exp(-1j * np.angle(c1 / r + c2 * r))).reshape(batch)
    h, x = h_a / np.conj(omega)[..., None], omega[..., None] * x_a
    cost = (np.abs(h - h_b) ** 2).sum(axis=-1) + (np.abs(x - x_b) ** 2).sum(axis=-1)
    if omega.ndim == 0:
        return AlignmentResult(omega=complex(omega), cost=float(cost), h=h, x=x)
    return AlignmentResult(omega=omega, cost=cost, h=h, x=x)


def _scale_slopes(w, lo, hi, rc):
    """G'(w) and G''(w) of align_pair's scale search."""
    w2 = w * w
    phi = np.sqrt(lo / w + hi * w + rc)
    slope = hi - lo / w2
    return (1.0 - 1.0 / w2 - slope / phi,
            2.0 / (w2 * w) * (1.0 - lo / phi) + slope * slope / (2.0 * phi ** 3))


def _newton_scale(lo, hi, rc):
    """Minimizer of a certified-convex G and which pairs converged.

    Newton on G' from w = 1 inside a bracket [left, right] of G's sign
    change; a step that leaves it is replaced by sqrt(left*right), or by
    2*left while right is still infinite.  A pair stops, frozen, once its
    step is below 1e-12 relative, so its result does not depend on the batch.
    """
    w, left, right = np.ones_like(lo), np.ones_like(lo), np.full_like(lo, np.inf)
    moving = np.ones(lo.shape, dtype=bool)
    for _ in range(_NEWTON_PASSES):
        if not moving.any():
            break
        g1, g2 = _scale_slopes(w, lo, hi, rc)
        np.copyto(left, w, where=g1 < 0.0)
        np.copyto(right, w, where=g1 > 0.0)
        step = w - g1 / g2
        outside = ~((step >= left) & (step <= right))
        if outside.any():
            np.copyto(step, np.where(right < np.inf, np.sqrt(left * right), 2.0 * left),
                      where=outside)
        # an overflowed G'' makes any step look small
        done = np.isfinite(g2) & (np.abs(step - w) <= 1e-12 * w)
        np.copyto(w, step, where=moving)
        moving &= ~done
    return w, ~moving


def _companion_scale(lo, hi, rc):
    """Minimizer of G among the sextic's positive roots and w = 1."""
    # (w^2 - 1)^2 (hi*w^2 + rc*w + lo) - w*(hi*w^2 - lo)^2, over its lead hi
    comp = np.empty(rc.shape + (6, 6))
    comp[...] = _SUBDIAGONAL
    for k, coef in enumerate((rc - hi * hi, lo - 2.0 * hi, 2.0 * (lo * hi - rc),
                              hi - 2.0 * lo, rc - lo * lo, lo)):
        comp[..., 0, k] = coef
    # hi = 0 means c1 = c2 = 0: every coefficient vanishes and only the
    # fallback w = 1 is left.
    comp[..., 0, :] /= -np.where(hi == 0.0, 1.0, hi)[..., None]
    if not np.isfinite(comp).all():
        raise DegenerateAlignmentError("alignment coefficients overflow")
    w = np.concatenate([np.linalg.eigvals(comp).real, np.ones(rc.shape + (1,))],
                       axis=-1)
    w = np.where(w > 0.0, w, 1.0)        # non-positive roots: the fallback
    lo, hi, rc = lo[..., None], hi[..., None], rc[..., None]
    big_g = w + 1.0 / w - 2.0 * np.sqrt(np.maximum(lo / w + hi * w + rc, 0.0))
    return w[np.arange(len(w)), np.argmin(big_g, axis=-1)]


def snapshot_metrics(z, truth: GroundTruth) -> MetricSnapshot:
    """relative_error, dist, and the component split from one alignment pass.

    relative_error is the aligned iterates' error in the target sum over
    ||sum_i x_bar_i||; dist is the square root of the sum over nodes of the
    alignment cost over d_i = ||h_bar_i||^2 + ||x_bar_i||^2 = 2*q_i^2.  The
    iterate may stack runs, h (..., s, K) and x (..., s, N); errors then
    have the batch shape and the per-node arrays (..., s).  The truth
    may stack per-run truths, h (..., s, K), x (..., s, N) and q (..., s),
    that broadcast against the iterate.
    """
    res = align_pair(z.h, z.x, truth.h, truth.x)
    omega = res.omega
    denom = target_norm(truth)
    if not denom.all():
        raise UndefinedMetricError("target vector sums to zero")
    recovered = (omega[..., None, :] @ z.x)[..., 0, :]
    error = np.linalg.norm(recovered - truth.x.sum(axis=-2), axis=-1) / denom
    dist = np.sqrt((res.cost / (2.0 * truth.q ** 2)).sum(axis=-1))
    alpha_h, beta_h = _components(res.h, truth.h)
    alpha_x, beta_x = _components(res.x, truth.x)
    return MetricSnapshot(relative_error=_scalar(error), dist=_scalar(dist),
                          alpha_h=alpha_h, beta_h=beta_h, alpha_x=alpha_x, beta_x=beta_x,
                          rmse_x=beta_x / np.linalg.norm(z.x, axis=-1), omega=omega)


def incoherence(truth: GroundTruth, b_rows: np.ndarray) -> float:
    """sqrt(m) times the largest normalized correlation between access rows
    and ground-truth channels."""
    if np.any(truth.q == 0.0):
        raise DegenerateAlignmentError("zero channel in ground truth")
    corr = np.abs(_rows_product(truth.h, b_rows.T)) / truth.q[:, None]   # (s, m)
    return float(np.sqrt(b_rows.shape[0]) * corr.max())


def target_norm(truth: GroundTruth) -> np.ndarray:
    """||sum_i x_bar_i||, the relative error's normalizer, one per stacked
    truth; zero makes the relative error undefined."""
    target = truth.x.sum(axis=-2)
    # One 1-D norm per target: norm(axis=-1) rounds differently.
    return np.array([np.linalg.norm(v) for v in target.reshape(-1, target.shape[-1])]
                    ).reshape(target.shape[:-1])


def _components(v_tilde: np.ndarray, v_bar: np.ndarray):
    """Per-row overlap with v_bar's direction and the norm of the remainder."""
    nb = np.linalg.norm(v_bar, axis=-1)
    overlap = (np.conj(v_bar) * v_tilde).sum(axis=-1)
    perp = v_tilde - (overlap / nb ** 2)[..., None] * v_bar
    return overlap / nb, np.linalg.norm(perp, axis=-1)


def _scalar(v: np.ndarray):
    """A float for a 0-d result, else the array."""
    return float(v) if v.ndim == 0 else v
