"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import time

import numpy as np
import pytest

import blaircomp as bc
from blaircomp.cli import ExperimentConfig

from helpers import draw_direction, explicit_sign_flip, gradient_inner, grid_search_cost

ETA = 0.1
# Criteria 2-4 measured on the 20 fig1_runs of the unmodified solver: median
# T_gamma 47 (39-54) and median iterations 222 (191-251); each run's worst
# error ratio per step after T_gamma 0.936-0.952, and its smallest stage-I
# growth rate 0.069-0.108.  Each band is the measured value or range widened
# by a factor MARGIN either way.  A solver that steps at eta/2 or 1.5 eta, or
# that scales a block's step by its own norm or by none instead of its
# partner's, leaves at least one band.
MARGIN = 1.25
T_GAMMA_MEDIAN = 47
ITERS_MEDIAN = 222
WORST_RATIO = (0.936, 0.952)
SMALLEST_GROWTH = (0.069, 0.108)


def _in_band(value, low, high=None):
    """``value`` within a factor MARGIN of [low, high], or of low alone."""
    return low / MARGIN <= value <= (low if high is None else high) * MARGIN


def _criterion(n, ok, detail):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def fig1_runs():
    """Twenty desk-scale convergence runs shared by criteria 2-4."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(20):
        inst = bc.make_instance(2, 8, 8, 400, seed=[1000, seed])
        z0 = bc.random_init(2, 8, 8, np.random.default_rng([2000, seed]))
        trace = bc.run_wf(inst, z0,
                          bc.SolverSettings(eta=ETA, max_iters=500, tol=1e-6))
        runs.append((trace, bc.detect_stages(trace)))
    return runs, time.perf_counter() - t0


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    diffs = {1e-4: [], 1e-5: []}
    preds = {1e-4: [], 1e-5: []}
    per_triple = []
    for trial in range(50):
        rng = np.random.default_rng([3000, trial])
        inst = bc.make_instance(2, 6, 6, 120, seed=[3100, trial])
        z = bc.random_init(2, 6, 6, rng)
        dh, dx = draw_direction(rng, 2, 6, 6)
        g = bc.wirtinger_gradient(z, inst)
        first_order = gradient_inner(g, dh, dx).real
        f0 = bc.loss(z, inst)
        for eps in (1e-4, 1e-5):
            zp = bc.Iterate(h=z.h + eps * dh, x=z.x + eps * dx)
            df = bc.loss(zp, inst) - f0
            diffs[eps].append(df)
            preds[eps].append(2 * eps * first_order)
        per_triple.append(abs(diffs[1e-5][-1] - preds[1e-5][-1])
                          / abs(diffs[1e-5][-1]))
    agg = {}
    for eps in (1e-4, 1e-5):
        d, p = np.asarray(diffs[eps]), np.asarray(preds[eps])
        agg[eps] = np.linalg.norm(d - p) / np.linalg.norm(d)
    ratio = agg[1e-4] / agg[1e-5]
    elapsed = time.perf_counter() - t0
    ok = (agg[1e-5] <= 1e-5 and 8.0 <= ratio <= 12.0
          and np.median(per_triple) <= 1e-5 and elapsed < 10.0)
    _criterion(1, ok,
               f"FD rel err {agg[1e-5]:.2e} (tol 1e-5), eps-ratio {ratio:.2f} "
               f"in [8, 12], median per-triple {np.median(per_triple):.2e}, "
               f"{elapsed:.1f}s < 10s")


def test_criterion_2_two_stage_convergence(fig1_runs):
    runs, elapsed = fig1_runs
    converged = [trace for trace, _ in runs if trace.converged]
    ordering_ok = all(
        rep.T_1 is not None and rep.T_2 is not None and rep.T_gamma is not None
        and rep.T_1 <= rep.T_2 <= rep.T_gamma
        for trace, rep in runs if trace.converged)
    # empirical check of the error <= dist ordering on logged iterations
    total = sum(len(t.relative_error) for t in converged)
    ordered = sum(int(np.sum(t.relative_error <= t.dist * (1 + 1e-9)))
                  for t in converged)
    sane = all(np.all(t.relative_error <= 2.0 * t.dist + 1e-12)
               for t in converged)
    # a run that never enters the contraction region counts as the latest
    t_gamma = np.median([np.inf if rep.T_gamma is None else rep.T_gamma
                         for _, rep in runs])
    iters = np.median([trace.n_iters for trace, _ in runs])
    ok = (len(converged) >= 18 and ordering_ok and sane and elapsed < 60.0
          and _in_band(t_gamma, T_GAMMA_MEDIAN) and _in_band(iters, ITERS_MEDIAN))
    _criterion(2, ok,
               f"{len(converged)}/20 runs at rel err <= 1e-6 within 500 iters, "
               f"stage ordering in all converged runs; median T_gamma {t_gamma:g} and "
               f"median iterations {iters:g} within {MARGIN}x of {T_GAMMA_MEDIAN} "
               f"and {ITERS_MEDIAN}; error<=dist at {ordered}/{total} logged "
               f"points (error<=2*dist everywhere); {elapsed:.1f}s < 60s")


def test_criterion_3_stage_two_linear_rate(fig1_runs):
    runs, _ = fig1_runs
    worst = []
    for trace, rep in runs:
        err = trace.relative_error
        idx = np.flatnonzero(trace.t >= rep.T_gamma) if rep.T_gamma is not None else []
        worst.append(max((err[b] / err[a] for a, b in zip(idx[:-1], idx[1:])),
                         default=np.inf))
    # the band on the contraction 1 - ratio; its top, 0.9616, is below the
    # paper's 1 - eta/(16 kappa) = 0.99375
    low, high = (1.0 - r for r in reversed(WORST_RATIO))
    ok = all(_in_band(1.0 - r, low, high) for r in worst)
    _criterion(3, ok,
               f"each run's worst post-T_gamma error ratio per step, "
               f"{min(worst):.4f}-{max(worst):.4f}, has its contraction 1 - ratio "
               f"within {MARGIN}x of {low:.3f}-{high:.3f}")


def test_criterion_4_ratio_growth(fig1_runs):
    runs, _ = fig1_runs
    # NaN, a rate that cannot be fitted, propagates and fails the band
    smallest = [np.min(np.concatenate([rep.growth_rate_h, rep.growth_rate_x]))
                for _, rep in runs]
    ok = all(_in_band(g, *SMALLEST_GROWTH) for g in smallest)
    _criterion(4, ok,
               f"each run's smallest stage-I log(|alpha|/beta) slope, "
               f"{min(smallest):.4f}-{max(smallest):.4f}, within {MARGIN}x of "
               f"{SMALLEST_GROWTH[0]}-{SMALLEST_GROWTH[1]} in all 20 runs")


def test_criterion_5_population_state_evolution():
    state = bc.SEState(alpha_h=np.array([0.2]), beta_h=np.array([0.7]),
                       alpha_x=np.array([0.3]), beta_x=np.array([1.0]),
                       q=np.array([1.0]), eta=ETA)
    hist = bc.run_population_se(state, 100)
    t = np.arange(101)
    decay_dev = np.max(np.abs(hist["beta_x"][:, 0] - (1 - ETA) ** t * 1.0)
                       / (1 - ETA) ** t)
    decay_dev_h = np.max(np.abs(hist["beta_h"][:, 0] - (1 - ETA) ** t * 0.7)
                         / (1 - ETA) ** t)
    fixed = bc.SEState(alpha_h=np.array([1.0]), beta_h=np.array([0.0]),
                       alpha_x=np.array([1.0]), beta_x=np.array([0.0]),
                       q=np.array([1.0]), eta=ETA)
    nxt = bc.population_se_step(fixed)
    fixed_dev = max(abs(nxt.alpha_h[0] - 1.0), abs(nxt.alpha_x[0] - 1.0),
                    abs(nxt.beta_h[0]), abs(nxt.beta_x[0]))
    ok = decay_dev < 1e-13 and decay_dev_h < 1e-13 and fixed_dev < 1e-14
    _criterion(5, ok,
               f"beta decays as (1-eta)^t over 100 steps (max rel dev "
               f"{max(decay_dev, decay_dev_h):.2e}), fixed point stationary to "
               f"{fixed_dev:.2e}")


def test_criterion_6_alignment_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k, n = rng.integers(2, 8), rng.integers(2, 8)
        h_a = rng.normal(size=k) + 1j * rng.normal(size=k)
        x_a = rng.normal(size=n) + 1j * rng.normal(size=n)
        h_b = rng.normal(size=k) + 1j * rng.normal(size=k)
        x_b = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = bc.align_pair(h_a, x_a, h_b, x_b)
        worst = max(worst, abs(res.cost - grid_search_cost(h_a, x_a, h_b, x_b)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _criterion(6, ok,
               f"align_pair vs 1e6-point grid search on 100 pairs: worst "
               f"deviation {worst:.2e} < 1e-6, {elapsed:.1f}s < 30s")


def test_criterion_7_sign_flip_measurement_equality():
    def per_node_terms(b_rows, a, h, x):
        """b_j^H h_i x_i^H a_ij for per-node (s, m, K) access rows."""
        return (np.einsum("imk,ik->im", b_rows, h)
                * np.einsum("imn,in->im", a, x.conj()))

    worst_term = 0.0
    worst_sum = 0.0
    worst_fold = 0.0
    for seed in range(10):
        inst = bc.canonicalize_instance(
            bc.make_instance(2, 6, 6, 120, seed=[500, seed]))
        xi = bc.sample_sign_flips(inst.s, inst.m, np.random.default_rng([501, seed]))
        inst_sgn = bc.apply_sign_flips(inst, xi)
        oracle = explicit_sign_flip(inst, xi)
        terms = per_node_terms(oracle.b_rows, oracle.a, inst.truth.h, inst.truth.x)
        bh0 = inst.truth.h @ inst.b_rows.T
        xa0 = np.einsum("imn,in->im", inst.a, inst.truth.x.conj())
        worst_term = max(worst_term, np.abs(terms - bh0 * xa0).max())
        worst_sum = max(worst_sum, np.abs(terms.sum(0) - inst.y).max())
        # the folded design on the shared rows gives the oracle's terms at any z
        z = bc.random_init(2, 6, 6, np.random.default_rng([502, seed]))
        folded = (z.h @ inst_sgn.b_rows.T) * np.einsum("imn,in->im", inst_sgn.a,
                                                       z.x.conj())
        explicit = per_node_terms(oracle.b_rows, oracle.a, z.h, z.x)
        worst_fold = max(worst_fold, np.abs(folded - explicit).max())
    ok = worst_term <= 1e-12 and worst_sum <= 1e-12 and worst_fold <= 1e-12
    _criterion(7, ok,
               f"sign-flipped ensembles reproduce measurements on 10 instances: "
               f"worst per-term dev {worst_term:.2e}, worst sum-vs-y dev "
               f"{worst_sum:.2e}, worst folded-vs-per-node term dev at a random "
               f"iterate {worst_fold:.2e} (tol 1e-12)")


def test_criterion_8_noise_sweep_slope(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(preset="noise-sweep", s=1, K=10, N=10, m=100,
                           eta=ETA, max_iters=500, tol=1e-6,
                           sigma_w_grid=[1e0, 1e1, 1e2, 1e3, 1e4, 1e5],
                           trials=3, seed=99, out=str(tmp_path / "sweep"),
                           jobs=1)
    result = bc.run_experiment(cfg)
    slope = result["report"]["noise_sweep"]["slope_db_per_db"]
    elapsed = time.perf_counter() - t0
    ok = result["ok"] and -1.2 <= slope <= -0.8 and elapsed < 60.0
    _criterion(8, ok,
               f"error(dB) vs sigma_w(dB) slope {slope:.3f} in [-1.2, -0.8] (set "
               f"by the injected omega noise: certifies converged iterates, not the "
               f"error's scaling with sigma2_e), {elapsed:.1f}s < 60s")


def test_criterion_9_concentration_suite():
    m, n_dim = 10_000, 16
    bound_first = 5 * np.sqrt(np.log(m))
    bound_norm = 3 * np.sqrt(n_dim)
    ok_first = ok_norm = 0
    for seed in range(100):
        a = bc.sample_design_tensor(1, m, n_dim, np.random.default_rng([77, seed]))
        ok_first += int(np.abs(a[0, :, 0]).max() <= bound_first)
        ok_norm += int(np.linalg.norm(a[0], axis=1).max() <= bound_norm)
    ok = ok_first >= 99 and ok_norm >= 99
    _criterion(9, ok,
               f"first-entry bound held in {ok_first}/100 seeds, norm bound in "
               f"{ok_norm}/100 (need >= 99 each)")


def test_criterion_10_deterministic_artifacts(tmp_path):
    overrides = dict(preset="fig1-convergence", s=2, K=4, max_iters=150,
                     trials=2, seed=7, jobs=1)
    cfg_a = bc.parse_config(overrides=dict(overrides, out=str(tmp_path / "a")))
    cfg_b = bc.parse_config(overrides=dict(overrides, out=str(tmp_path / "b")))
    res_a = bc.run_experiment(cfg_a)
    res_b = bc.run_experiment(cfg_b)
    with open(res_a["paths"]["trace"], "rb") as fa, \
            open(res_b["paths"]["trace"], "rb") as fb:
        bytes_a, bytes_b = fa.read(), fb.read()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _criterion(10, ok,
               f"same preset and seed twice: trace.csv byte-identical "
               f"({len(bytes_a)} bytes)")
