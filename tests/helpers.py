"""Shared oracles for the test suite: brute-force evaluators and grid search."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

import blaircomp as bc


def brute_force_loss(z, inst):
    """O(s*m*K*N) triple-loop evaluation of the objective."""
    total = 0.0
    for j in range(inst.m):
        acc = 0.0 + 0.0j
        for i in range(inst.s):
            bh = sum(b_row(inst, i, j)[k] * z.h[i, k] for k in range(inst.K))
            xa = sum(np.conj(z.x[i, n]) * inst.a[i, j, n] for n in range(inst.N))
            acc += bh * xa
        total += abs(acc - inst.y[j]) ** 2
    return total


def brute_force_gradient(z, inst, sample_weights=None):
    """Naive per-(i, j) gradient accumulation, no residual sharing.

    Handles the shared (m, K) and the per-node sign-flip (s, m, K) access
    rows, and per-sample loss weights (e.g. a leave-one-out zero).
    """
    w = np.ones(inst.m) if sample_weights is None else sample_weights
    gh = np.zeros_like(z.h)
    gx = np.zeros_like(z.x)
    for j in range(inst.m):
        r_j = 0.0 + 0.0j
        for k in range(inst.s):
            r_j += (b_row(inst, k, j) @ z.h[k]) * (z.x[k].conj() @ inst.a[k, j])
        r_j = w[j] * (r_j - inst.y[j])
        for i in range(inst.s):
            b_j = b_row(inst, i, j)
            gh[i] += r_j * b_j.conj() * (inst.a[i, j].conj() @ z.x[i])
            gx[i] += np.conj(r_j) * inst.a[i, j] * (b_j @ z.h[i])
    return gh, gx


def brute_force_hessian_x_block(z, inst, i, sample_weights=None):
    """2N x 2N x-block Hessian from a per-sample sum of weighted outer products."""
    w = np.ones(inst.m) if sample_weights is None else sample_weights
    n = inst.N
    d_block = np.zeros((n, n), dtype=complex)
    for j in range(inst.m):
        weight = w[j] * abs(b_row(inst, i, j) @ z.h[i]) ** 2
        d_block += weight * np.outer(inst.a[i, j], inst.a[i, j].conj())
    hess = np.zeros((2 * n, 2 * n), dtype=complex)
    hess[:n, :n] = d_block
    hess[n:, n:] = d_block.conj()
    return hess


def b_row(inst, i, j):
    """Access row b_j^H as seen by node i, in either b_rows layout."""
    return inst.b_rows[j] if inst.b_rows.ndim == 2 else inst.b_rows[i, j]


def grid_search_cost(h_a, x_a, h_b, x_b, n_total=1_000_000):
    """Dense (r, theta) search: coarse stage plus one zoom, ~n_total points."""
    n = int(np.sqrt(n_total / 2))
    c1 = complex(np.vdot(h_b, h_a))
    c2 = complex(np.vdot(x_b, x_a))
    a2 = float(np.vdot(h_a, h_a).real)
    b2 = float(np.vdot(x_a, x_a).real)
    const = float(np.vdot(h_b, h_b).real + np.vdot(x_b, x_b).real)

    def cost(r, th):
        return (a2 / r ** 2 + b2 * r ** 2 + const
                - 2 * np.real(np.exp(1j * th) * (c1 / r + c2 * r)))

    r_mid = np.sqrt(np.sqrt(a2 / b2))
    log_lo, log_hi = np.log(r_mid) - 3 * np.log(10), np.log(r_mid) + 3 * np.log(10)
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    best = np.inf
    for _ in range(2):
        r = np.exp(np.linspace(log_lo, log_hi, n))
        grid = cost(r[:, None], th[None, :])
        idx = np.unravel_index(np.argmin(grid), grid.shape)
        best = grid[idx]
        dr = (log_hi - log_lo) / (n - 1)
        log_lo, log_hi = np.log(r[idx[0]]) - 2 * dr, np.log(r[idx[0]]) + 2 * dr
        dth = th[1] - th[0]
        th = np.linspace(th[idx[1]] - 2 * dth, th[idx[1]] + 2 * dth, n)
    return float(best)


def noise_sweep_rows_loop(trace, truth, sigma_w_grid, rng, trial):
    """Per-row noise sweep: one perturb_alignment draw and one recovered sum
    per (logged iteration, sigma_w), from the run's logged omega."""
    target = np.sum(truth.x, axis=0)
    denom = np.linalg.norm(target)
    rows = []
    for ti, z in enumerate(trace.iterates):
        for sigma_w in sigma_w_grid:
            w_hat = np.atleast_1d(bc.perturb_alignment(trace.omega[ti], sigma_w, rng))
            err = np.linalg.norm(np.einsum("i,in->n", w_hat, z.x) - target) / denom
            rows.append([trial, int(trace.t[ti]), sigma_w, float(err)])
    return rows


def draw_direction(rng, s, K, N, scale=0.1):
    """Random perturbation direction with a fixed small Frobenius norm."""
    dh = rng.normal(size=(s, K)) + 1j * rng.normal(size=(s, K))
    dx = rng.normal(size=(s, N)) + 1j * rng.normal(size=(s, N))
    nrm = np.sqrt(np.sum(np.abs(dh) ** 2) + np.sum(np.abs(dx) ** 2))
    return dh * (scale / nrm), dx * (scale / nrm)


@dataclass
class FakeTrace:
    """Minimal stand-in for a solver trace in state-evolution tests."""

    alpha_h: np.ndarray
    beta_h: np.ndarray
    alpha_x: np.ndarray
    beta_x: np.ndarray
    q: np.ndarray
    m: int
    eta: float
    t: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.t is None:
            self.t = np.arange(self.alpha_h.shape[0])


def trace_from_population(hist, q, m, eta):
    return FakeTrace(alpha_h=hist["alpha_h"], beta_h=hist["beta_h"],
                     alpha_x=hist["alpha_x"], beta_x=hist["beta_x"],
                     q=q, m=m, eta=eta)


def run_desk_scale(seed, s=2, K=8, N=8, m=400, eta=0.1, max_iters=500, tol=1e-6,
                   keep_iterates=False):
    """The standard small convergence configuration used across tests."""
    inst = bc.make_instance(s, K, N, m, seed=[1000, seed])
    z0 = bc.random_init(s, K, N, np.random.default_rng([2000, seed]))
    settings = bc.SolverSettings(eta=eta, max_iters=max_iters, tol=tol,
                                 keep_iterates=keep_iterates)
    return inst, z0, bc.run_wf(inst, z0, settings)
