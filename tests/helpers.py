"""Shared oracles for the test suite: brute-force evaluators and grid search."""

import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

import blaircomp as bc
from blaircomp import cli


def brute_force_loss(z, inst, sample_weights=None):
    """O(s*m*K*N) triple-loop evaluation of the (weighted) objective."""
    w = np.ones(inst.m) if sample_weights is None else sample_weights
    total = 0.0
    for j in range(inst.m):
        acc = 0.0 + 0.0j
        for i in range(inst.s):
            bh = sum(b_row(inst, i, j)[k] * z.h[i, k] for k in range(inst.K))
            xa = sum(np.conj(z.x[i, n]) * inst.a[i, j, n] for n in range(inst.N))
            acc += bh * xa
        total += w[j] * abs(acc - inst.y[j]) ** 2
    return total


def gradient_inner(g, dh, dx):
    """<delta, grad> with the convention f(z+eps*delta)-f(z) ~ 2*eps*Re<...>."""
    return complex(np.vdot(dh, g.h) + np.vdot(dx, g.x))


def brute_force_gradient(z, inst, sample_weights=None):
    """Naive per-(i, j) gradient accumulation, no residual sharing.

    Handles the shared (m, K) access rows and the per-node (s, m, K) rows of
    ``explicit_sign_flip``, and per-sample loss weights (e.g. a leave-one-out
    zero).
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


def hessian_quadratic_form(hess, delta):
    """[delta^H, delta^T] H [delta; conj(delta)] for a 2N x 2N Wirtinger block."""
    stacked = np.concatenate([delta, delta.conj()])
    return float(np.real(np.vdot(stacked, hess @ stacked)))


def population_gradient(z, truth):
    """Expectation of the gradient over the design ensemble, in closed form."""
    x_norm2 = np.sum(np.abs(z.x) ** 2, axis=1)          # (s,)
    h_norm2 = np.sum(np.abs(z.h) ** 2, axis=1)
    xbar_x = np.einsum("in,in->i", truth.x.conj(), z.x)  # x_bar_i^H x_i
    hbar_h = np.einsum("ik,ik->i", truth.h.conj(), z.h)
    grad_h = x_norm2[:, None] * z.h - xbar_x[:, None] * truth.h
    grad_x = h_norm2[:, None] * z.x - hbar_h[:, None] * truth.x
    return bc.Iterate(h=grad_h, x=grad_x)


def measurement_factors_reference(h, x, b_rows, a):
    """b_j^H h_i and x_i^H a_ij with one product per leading index, the
    products ``ensemble.measurement_factors`` must match bit for bit."""
    return h @ b_rows.T, (a @ x.conj()[..., None])[..., 0]


def incoherence_reference(trace, inst):
    """``measure_hypotheses``' incoh_x and incoh_h in one pass over every log
    point of the base run ``trace``, with one product per log point."""
    omega = trace.omega[:, :, None]
    h_t, x_t = trace.h / np.conj(omega), omega * trace.x
    bh, xa = measurement_factors_reference(h_t, x_t, inst.b_rows, inst.a)
    return (np.abs(xa / np.linalg.norm(x_t, axis=2)[..., None]).max(axis=(1, 2)),
            np.abs(bh / np.linalg.norm(h_t, axis=2)[..., None]).max(axis=(1, 2)))


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes it had allocated at once, as
    tracemalloc counts them (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gradient_and_loss_reference(z, inst, w):
    """``solver._gradient_and_loss`` with one product per run and fresh
    arrays for every elementwise pass, the form the fast kernel must match
    bit for bit."""
    bh, xa = measurement_factors_reference(z.h, z.x, inst.b_rows, inst.a)
    r = (bh * xa).sum(axis=-2) - inst.y
    if w is None:
        loss_val = (np.abs(r) ** 2).sum(axis=-1)
        rc = r.conj()
    else:
        loss_val = (w * np.abs(r) ** 2).sum(axis=-1)
        rc = w * r.conj()
    rc = rc[..., None, :]
    grad_h = ((rc * xa) @ inst.b_rows).conj()
    grad_x = ((rc * bh)[..., None, :] @ inst.a)[..., 0, :]
    return bc.Iterate(h=grad_h, x=grad_x), loss_val


def b_row(inst, i, j):
    """Access row b_j^H as seen by node i: shared (m, K) rows of an instance,
    or the per-node (s, m, K) rows of ``explicit_sign_flip``."""
    return inst.b_rows[j] if inst.b_rows.ndim == 2 else inst.b_rows[i, j]


def explicit_sign_flip(inst, xi):
    """The sign-flip ensemble built per node, as the analysis writes it.

    Node i sees the access rows conj(xi_ij) b_j^H and the design vectors with
    first entry xi_ij a_ij,1; ``bc.apply_sign_flips`` stores the same loss
    folded into the design tensor.  The (s, m, K) rows are not a valid
    ``ProblemInstance``, so this is a plain namespace with the same attributes,
    read by the brute-force evaluators.
    """
    a = inst.a.copy()
    a[:, :, 0] *= xi
    b_rows = xi.conj()[:, :, None] * inst.b_rows[None, :, :]
    return SimpleNamespace(s=inst.s, K=inst.K, N=inst.N, m=inst.m, b_rows=b_rows,
                           a=a, truth=inst.truth, y=inst.y)


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


def align_pair_eigvals(h_a, x_a, h_b, x_b):
    """``bc.align_pair`` with every pair through companion-matrix eigenvalues.

    The scale search's stationary points are the positive roots of the
    sextic (w^2 - 1)^2 (hi*w^2 + rc*w + lo) - w*(hi*w^2 - lo)^2; the root or
    w = 1 with the lowest G(w) = w + 1/w - 2*sqrt(lo/w + hi*w + rc) gets two
    Newton steps on G'.  Returns (omega, cost) with the batch shape.
    """
    a2 = (np.abs(h_a) ** 2).sum(axis=-1)
    b2 = (np.abs(x_a) ** 2).sum(axis=-1)
    c1 = (np.conj(h_b) * h_a).sum(axis=-1)
    c2 = (np.conj(x_b) * x_a).sum(axis=-1)
    batch = c1.shape
    a2, b2 = np.broadcast_to(a2, batch).ravel(), np.broadcast_to(b2, batch).ravel()
    c1, c2 = c1.ravel(), c2.ravel()
    u_scale = np.sqrt(a2 / b2)
    lo, hi, rc = scale_coefficients(h_a, x_a, h_b, x_b)
    lo, hi, rc = lo.ravel(), hi.ravel(), rc.ravel()
    comp = np.zeros(rc.shape + (6, 6))
    comp[:, 1:, :-1] = np.eye(5)
    for k, coef in enumerate((rc - hi * hi, lo - 2.0 * hi, 2.0 * (lo * hi - rc),
                              hi - 2.0 * lo, rc - lo * lo, lo)):
        comp[:, 0, k] = -coef / np.where(hi == 0.0, 1.0, hi)
    w = np.concatenate([np.linalg.eigvals(comp).real, np.ones(rc.shape + (1,))],
                       axis=-1)
    w = np.where(w > 0.0, w, 1.0)
    big_g = scale_objective(w, lo[:, None], hi[:, None], rc[:, None])
    w = w[np.arange(len(w)), np.argmin(big_g, axis=-1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            phi = np.sqrt(lo / w + hi * w + rc)
            slope = hi - lo / w ** 2
            g1 = 1.0 - 1.0 / w ** 2 - slope / phi
            g2 = 2.0 / w ** 3 * (1.0 - lo / phi) + slope ** 2 / (2.0 * phi ** 3)
            step = w - g1 / g2
            w = np.where(np.isfinite(step) & (step > 0.0), step, w)
    ab = a2 * b2
    p = np.abs(c1) ** 2 / (u_scale * ab)
    q = np.abs(c2) ** 2 * u_scale / ab
    r = np.sqrt(u_scale * np.where(p > q, 1.0 / w, w))
    omega = (r * np.exp(-1j * np.angle(c1 / r + c2 * r))).reshape(batch)
    cost = ((np.abs(h_a / np.conj(omega)[..., None] - h_b) ** 2).sum(axis=-1)
            + (np.abs(omega[..., None] * x_a - x_b) ** 2).sum(axis=-1))
    return omega, cost


def scale_coefficients(h_a, x_a, h_b, x_b):
    """(lo, hi, rc) of ``align_pair``'s rescaled scale search, batch-shaped."""
    a2 = (np.abs(h_a) ** 2).sum(axis=-1)
    b2 = (np.abs(x_a) ** 2).sum(axis=-1)
    c1 = (np.conj(h_b) * h_a).sum(axis=-1)
    c2 = (np.conj(x_b) * x_a).sum(axis=-1)
    u_scale, ab = np.sqrt(a2 / b2), a2 * b2
    p = np.abs(c1) ** 2 / (u_scale * ab)
    q = np.abs(c2) ** 2 * u_scale / ab
    rc = 2.0 * (c1 * np.conj(c2)).real / ab
    return np.minimum(p, q), np.maximum(p, q), rc


def scale_objective(w, lo, hi, rc):
    """G(w) = w + 1/w - 2*sqrt(lo/w + hi*w + rc), clipped at f = 0."""
    return w + 1.0 / w - 2.0 * np.sqrt(np.maximum(lo / w + hi * w + rc, 0.0))


def convex_certificate(lo, hi, rc):
    """hi > 0 and 2*sqrt(lo*hi) + rc >= lo^2: sqrt(f) >= lo, so G is convex."""
    return (hi > 0.0) & (2.0 * np.sqrt(lo * hi) + rc >= lo * lo)


def perturb_alignment(omega, sigma_w, rng):
    """omega plus circularly symmetric noise with E|noise|^2 = 1/sigma_w."""
    if sigma_w <= 0.0:
        raise bc.ParameterError("sigma_w must be > 0")
    omega = np.asarray(omega, dtype=complex)
    scale = np.sqrt(0.5 / sigma_w)
    noise = rng.normal(0.0, scale, omega.shape) + 1j * rng.normal(0.0, scale, omega.shape)
    out = omega + noise
    return complex(out) if out.ndim == 0 else out


def noise_sweep_rows_loop(trace, truth, sigma_w_grid, rng, trial):
    """Per-row noise sweep: one perturb_alignment draw and one recovered sum
    per (logged iteration, sigma_w), from the run's logged omega."""
    target = np.sum(truth.x, axis=0)
    denom = np.linalg.norm(target)
    rows = []
    for ti, x in enumerate(trace.x):
        for sigma_w in sigma_w_grid:
            w_hat = np.atleast_1d(perturb_alignment(trace.omega[ti], sigma_w, rng))
            err = np.linalg.norm(np.einsum("i,in->n", w_hat, x) - target) / denom
            rows.append([trial, int(trace.t[ti]), sigma_w, float(err)])
    return rows


def fit_noise_slope_loop(noise_rows):
    """``cli.fit_noise_slope`` with one mask per (sigma_w, trial): each
    trial's last ``cli._NOISE_FIT_WINDOW`` rows by t, per sigma_w."""
    rows = np.asarray(noise_rows, dtype=float)
    points = []
    for sigma_w in np.unique(rows[:, 2]):
        sel = rows[rows[:, 2] == sigma_w]
        errs = []
        for trial in np.unique(sel[:, 0]):
            tr = sel[sel[:, 0] == trial]
            tr = tr[np.argsort(tr[:, 1])]
            errs.extend(tr[-cli._NOISE_FIT_WINDOW:, 3])
        rms = float(np.sqrt(np.mean(np.square(errs))))
        points.append({"sigma_w": float(sigma_w),
                       "sigma_w_db": 10.0 * np.log10(sigma_w),
                       "rms_error_db": 20.0 * np.log10(rms)})
    slope = float(np.polyfit([p["sigma_w_db"] for p in points],
                             [p["rms_error_db"] for p in points], 1)[0])
    return {"points": points, "slope_db_per_db": slope}


def write_csv_rows(path, header, tables):
    """``cli._write_csv`` one row at a time: every field of every row through
    its own ``%.17g``."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rows in tables:
            fh.writelines(line % tuple(row) for row in np.asarray(rows).tolist())


def write_hypotheses_rows(report, path):
    """``cli._write_hypotheses_csv`` one row at a time, each row through its
    own ``%``."""
    per_node = ["loo_dist", "loo_signal_h", "loo_signal_x", "sign_dist_h",
                "sign_dist_x", "double_diff_h", "double_diff_x",
                "norm_ratio_h", "norm_ratio_x"]
    scalars = [("norm_min", ""), ("norm_max", ""),
               ("incoh_x", "%.17g" % report.incoh_x_scale),
               ("incoh_h", "%.17g" % report.incoh_h_scale)]
    with open(path, "w", newline="") as fh:
        fh.write("t,quantity,node,value,scale\r\n")
        for ti, t in enumerate(report.t.tolist()):
            for name in per_node:
                fh.writelines("%d,%s,%d,%.17g,\r\n" % (t, name, i, v) for i, v
                              in enumerate(getattr(report, name)[ti].tolist()))
            for name, scale in scalars:
                fh.write("%d,%s,-1,%.17g,%s\r\n"
                         % (t, name, getattr(report, name)[ti], scale))


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


def recursion_deltas(trace):
    """alpha_{t+1} - [(1 - eta) alpha_t + eta q alpha'_t / (alpha'_t^2 + beta'_t^2)]
    per block, with alpha' and beta' the partner block's magnitudes."""
    q = np.asarray(trace.q, dtype=float)
    eta = trace.eta
    a_h, a_x = np.abs(trace.alpha_h), np.abs(trace.alpha_x)
    den_h = a_h ** 2 + np.asarray(trace.beta_h) ** 2
    den_x = a_x ** 2 + np.asarray(trace.beta_x) ** 2
    delta_h = a_h[1:] - ((1.0 - eta) * a_h[:-1] + eta * q[None, :] * a_x[:-1] / den_x[:-1])
    delta_x = a_x[1:] - ((1.0 - eta) * a_x[:-1] + eta * q[None, :] * a_h[:-1] / den_h[:-1])
    return delta_h, delta_x


def run_desk_scale(seed, s=2, K=8, N=8, m=400, eta=0.1, max_iters=500, tol=1e-6):
    """The standard small convergence configuration used across tests."""
    inst = bc.make_instance(s, K, N, m, seed=[1000, seed])
    z0 = bc.random_init(s, K, N, np.random.default_rng([2000, seed]))
    settings = bc.SolverSettings(eta=eta, max_iters=max_iters, tol=tol)
    return inst, z0, bc.run_wf(inst, z0, settings)
