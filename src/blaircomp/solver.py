"""Wirtinger flow for the superposed bilinear recovery objective.

The objective is f(z) = sum_j |sum_i b_j^H h_i x_i^H a_ij - y_j|^2 over the
stacked complex blocks z = (h_1, x_1, ..., h_s, x_s).  Gradients follow the
Wirtinger convention df = 2*eps*Re<delta, grad> for a real perturbation step
eps along delta, and the update scales each block's step by the partner
block's squared norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from . import metrics
from .ensemble import GroundTruth, ProblemInstance, _apply_b
from .errors import (DegenerateIterateError, DimensionMismatchError,
                     DivergenceError)

_DIVERGENCE_FACTOR = 1e6

Observer = Callable[[int, "Iterate", float], None]


@dataclass
class Iterate:
    h: np.ndarray   # (s, K) complex
    x: np.ndarray   # (s, N) complex
    t: int = 0

    def copy(self) -> "Iterate":
        return Iterate(h=self.h.copy(), x=self.x.copy(), t=self.t)


@dataclass(frozen=True)
class GradientBlocks:
    h: np.ndarray   # (s, K) complex
    x: np.ndarray   # (s, N) complex


@dataclass(frozen=True)
class SolverSettings:
    """Step size, iteration budget, and stopping/logging policy.

    ``tol`` stops on relative error (needs ground truth, simulation only) and
    ``loss_tol`` on the raw loss; non-finite values disable a rule.  The
    default step size is the experimental value 0.1; pass eta ~ c/s for the
    theoretical scaling at large node counts.
    """

    eta: float = 0.1
    max_iters: int = 500
    tol: float = np.inf
    loss_tol: float = np.nan
    cadence: int = 1
    keep_iterates: bool = False

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("step size must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")


@dataclass
class StateTrace:
    """Per-logged-iteration history of a solver run plus run metadata."""

    t: np.ndarray                 # (T,) logged iteration indices
    loss: np.ndarray              # (T,)
    relative_error: np.ndarray    # (T,)
    dist: np.ndarray              # (T,)
    alpha_h: np.ndarray           # (T, s) complex
    beta_h: np.ndarray            # (T, s)
    alpha_x: np.ndarray           # (T, s) complex
    beta_x: np.ndarray            # (T, s)
    rmse_x: np.ndarray            # (T, s)
    omega: np.ndarray             # (T, s) complex truth alignment of each node
    final: Iterate
    s: int
    K: int
    N: int
    m: int
    q: np.ndarray
    eta: float
    n_iters: int
    converged: bool
    stop_reason: str
    iterates: Optional[List[Iterate]] = None


def random_init(s: int, K: int, N: int, rng: np.random.Generator) -> Iterate:
    """Gaussian starting point with E||h_i||^2 = E||x_i||^2 = 1, unnormalized."""
    h = (rng.normal(0.0, np.sqrt(0.5 / K), (s, K))
         + 1j * rng.normal(0.0, np.sqrt(0.5 / K), (s, K)))
    x = (rng.normal(0.0, np.sqrt(0.5 / N), (s, N))
         + 1j * rng.normal(0.0, np.sqrt(0.5 / N), (s, N)))
    return Iterate(h=h, x=x, t=0)


def loss(z: Iterate, inst: ProblemInstance,
         sample_weights: Optional[np.ndarray] = None) -> float:
    r, _, _ = _forward(z, inst)
    w = _check_weights(sample_weights, inst.m)
    if w is None:
        return float(np.sum(np.abs(r) ** 2))
    return float(np.sum(w * np.abs(r) ** 2))


def wirtinger_gradient(z: Iterate, inst: ProblemInstance,
                       sample_weights: Optional[np.ndarray] = None) -> GradientBlocks:
    """Gradient blocks; the per-sample residual is computed once and shared
    across nodes."""
    g, _ = _gradient_and_loss(z, inst, sample_weights)
    return g


def population_gradient(z: Iterate, truth: GroundTruth) -> GradientBlocks:
    """Expectation of the gradient over the design ensemble, in closed form."""
    x_norm2 = np.sum(np.abs(z.x) ** 2, axis=1)          # (s,)
    h_norm2 = np.sum(np.abs(z.h) ** 2, axis=1)
    xbar_x = np.einsum("in,in->i", truth.x.conj(), z.x)  # x_bar_i^H x_i
    hbar_h = np.einsum("ik,ik->i", truth.h.conj(), z.h)
    grad_h = x_norm2[:, None] * z.h - xbar_x[:, None] * truth.h
    grad_x = h_norm2[:, None] * z.x - hbar_h[:, None] * truth.x
    return GradientBlocks(h=grad_h, x=grad_x)


def wf_step(z: Iterate, g: GradientBlocks, eta: float) -> Iterate:
    """One block-scaled descent step; the input iterate is left untouched."""
    x_norm2 = np.sum(np.abs(z.x) ** 2, axis=1)
    h_norm2 = np.sum(np.abs(z.h) ** 2, axis=1)
    if np.any(x_norm2 == 0.0) or np.any(h_norm2 == 0.0):
        raise DegenerateIterateError("zero block norm in update scaling")
    h = z.h - (eta / x_norm2)[:, None] * g.h
    x = z.x - (eta / h_norm2)[:, None] * g.x
    return Iterate(h=h, x=x, t=z.t + 1)


def run_wf(inst: ProblemInstance, z0: Iterate, settings: SolverSettings,
           observers: Iterable[Observer] = (),
           sample_weights: Optional[np.ndarray] = None) -> StateTrace:
    """Iterate Wirtinger flow, logging metrics at the configured cadence.

    Observers are called with (t, iterate, loss) at each logged iteration and
    must not mutate the iterate.  Stops at max_iters, at the relative-error
    or loss tolerance, or with a DivergenceError naming the offending
    iteration if the loss becomes non-finite or grows a millionfold.
    """
    observers = tuple(observers)
    w = _check_weights(sample_weights, inst.m)
    logged_t: List[int] = []
    logged = {k: [] for k in ("loss", "rel", "dist", "ah", "bh", "ax", "bx", "rm", "om")}
    kept: Optional[List[Iterate]] = [] if settings.keep_iterates else None

    z = z0.copy()
    z.t = 0
    stop_reason = "max_iters"

    def log_point(t: int, z_now: Iterate, loss_now: float) -> float:
        snap = metrics.snapshot_metrics(z_now, inst.truth)
        logged_t.append(t)
        logged["loss"].append(loss_now)
        logged["rel"].append(snap.relative_error)
        logged["dist"].append(snap.dist)
        d = snap.decomposition
        logged["ah"].append(d.alpha_h)
        logged["bh"].append(d.beta_h)
        logged["ax"].append(d.alpha_x)
        logged["bx"].append(d.beta_x)
        logged["rm"].append(d.rmse_x)
        logged["om"].append(d.omega)
        if kept is not None:
            kept.append(z_now.copy())
        for obs in observers:
            obs(t, z_now, loss_now)
        return snap.relative_error

    g, loss_t = _gradient_and_loss(z, inst, w)
    loss_0 = loss_t
    rel = log_point(0, z, loss_t)
    if _stopped(rel, loss_t, settings):
        stop_reason = "tol"
        t_final = 0
    else:
        t_final = 0
        for t in range(1, settings.max_iters + 1):
            z = wf_step(z, g, settings.eta)
            g, loss_t = _gradient_and_loss(z, inst, w)
            t_final = t
            if not np.isfinite(loss_t) or loss_t > _DIVERGENCE_FACTOR * max(loss_0, 1e-300):
                raise DivergenceError(f"loss diverged at iteration {t}: {loss_t!r}")
            if t % settings.cadence == 0 or t == settings.max_iters:
                rel = log_point(t, z, loss_t)
                if _stopped(rel, loss_t, settings):
                    stop_reason = "tol"
                    break

    return StateTrace(
        t=np.asarray(logged_t),
        loss=np.asarray(logged["loss"]),
        relative_error=np.asarray(logged["rel"]),
        dist=np.asarray(logged["dist"]),
        alpha_h=np.asarray(logged["ah"]),
        beta_h=np.asarray(logged["bh"]),
        alpha_x=np.asarray(logged["ax"]),
        beta_x=np.asarray(logged["bx"]),
        rmse_x=np.asarray(logged["rm"]),
        omega=np.asarray(logged["om"]),
        final=z,
        s=inst.s, K=inst.K, N=inst.N, m=inst.m,
        q=inst.truth.q.copy(), eta=settings.eta,
        n_iters=t_final, converged=(stop_reason == "tol"),
        stop_reason=stop_reason, iterates=kept)


def wirtinger_hessian_x_block(z: Iterate, inst: ProblemInstance, i: int,
                              sample_weights: Optional[np.ndarray] = None) -> np.ndarray:
    """2N x 2N Hessian of f with respect to (x_i, conj(x_i)), holding h fixed.

    The diagonal blocks are D = sum_j |b_j^H h_i|^2 a_ij a_ij^H and its
    conjugate.  The residual is linear in conj(x_i), so the pure
    second-derivative off-diagonal block vanishes identically; it is kept in
    the 2x2 layout so the quadratic form matches second differences of f.
    """
    w = _check_weights(sample_weights, inst.m)
    bh = _apply_b(inst.b_rows, z.h)[i]                # (m,) b_j^H h_i
    weights = np.abs(bh) ** 2
    if w is not None:
        weights = weights * w
    a_i = inst.a[i]                                   # (m, N)
    d_block = (weights[:, None] * a_i).T @ a_i.conj()
    n = inst.N
    hess = np.zeros((2 * n, 2 * n), dtype=complex)
    hess[:n, :n] = d_block
    hess[n:, n:] = d_block.conj()
    return hess


def hessian_quadratic_form(hess: np.ndarray, delta: np.ndarray) -> float:
    """[delta^H, delta^T] H [delta; conj(delta)] for a 2N x 2N Wirtinger block."""
    stacked = np.concatenate([delta, delta.conj()])
    return float(np.real(np.vdot(stacked, hess @ stacked)))


def gradient_inner(g: GradientBlocks, dh: np.ndarray, dx: np.ndarray) -> complex:
    """<delta, grad> with the convention f(z+eps*delta)-f(z) ~ 2*eps*Re<...>."""
    return complex(np.vdot(dh, g.h) + np.vdot(dx, g.x))


def _forward(z: Iterate, inst: ProblemInstance):
    if z.h.shape != (inst.s, inst.K) or z.x.shape != (inst.s, inst.N):
        raise DimensionMismatchError(
            f"iterate shapes {z.h.shape}/{z.x.shape} do not match instance dims")
    bh = _apply_b(inst.b_rows, z.h)                      # (s, m)
    xa = (inst.a @ z.x.conj()[:, :, None])[:, :, 0]      # (s, m): x_i^H a_ij
    r = np.sum(bh * xa, axis=0) - inst.y
    return r, bh, xa


def _gradient_and_loss(z: Iterate, inst: ProblemInstance,
                       w: Optional[np.ndarray]) -> Tuple[GradientBlocks, float]:
    r, bh, xa = _forward(z, inst)
    if w is None:
        loss_val = float(np.sum(np.abs(r) ** 2))
        rc = r.conj()      # the adjoints conjugate r, not the design arrays
    else:
        loss_val = float(np.sum(w * np.abs(r) ** 2))
        rc = w * r.conj()
    if inst.b_rows.ndim == 2:
        grad_h = ((rc * xa) @ inst.b_rows).conj()
    else:
        grad_h = ((rc * xa)[:, None, :] @ inst.b_rows)[:, 0, :].conj()
    grad_x = ((rc * bh)[:, None, :] @ inst.a)[:, 0, :]
    return GradientBlocks(h=grad_h, x=grad_x), loss_val


def _check_weights(w: Optional[np.ndarray], m: int) -> Optional[np.ndarray]:
    if w is None:
        return None
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise DimensionMismatchError(f"sample weights shape {w.shape} != ({m},)")
    return w


def _stopped(rel: float, loss_val: float, settings: SolverSettings) -> bool:
    if np.isfinite(settings.tol) and rel <= settings.tol:
        return True
    if np.isfinite(settings.loss_tol) and loss_val <= settings.loss_tol:
        return True
    return False
