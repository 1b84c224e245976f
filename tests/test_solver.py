import numpy as np
import pytest

import blaircomp as bc
from blaircomp.errors import DegenerateIterateError, DivergenceError
from blaircomp.solver import gradient_inner, hessian_quadratic_form

from helpers import (brute_force_gradient, brute_force_hessian_x_block,
                     brute_force_loss, draw_direction)


def _kernel_case(m, layout, weights):
    """Instance, iterate and sample weights for the kernel equivalence checks.

    ``layout`` "sign" swaps in the per-node (s, m, K) access rows of a
    sign-flip ensemble; ``weights`` "loo" drops one sample from the loss.
    m=10, "shared", "none" is the small_instance / small_iterate pair.
    """
    inst = bc.make_instance(2, 3, 3, m, seed=1)
    if layout == "sign":
        inst, _ = bc.sign_flip_ensemble(bc.canonicalize_instance(inst),
                                        np.random.default_rng(3))
    z = bc.random_init(2, 3, 3, np.random.default_rng(2))
    w = None
    if weights == "loo":
        w = np.ones(m)
        w[m // 3] = 0.0
    return inst, z, w


M_VALUES = pytest.mark.parametrize("m", [10, 64])
LAYOUTS = pytest.mark.parametrize("layout", ["shared", "sign"])
WEIGHTS = pytest.mark.parametrize("weights", ["none", "loo"])


class TestRandomInit:
    def test_expected_block_energy(self):
        z = bc.random_init(10_000, 8, 8, np.random.default_rng(11))
        assert abs(np.mean(np.sum(np.abs(z.h) ** 2, axis=1)) - 1.0) < 0.03
        assert abs(np.mean(np.sum(np.abs(z.x) ** 2, axis=1)) - 1.0) < 0.03

    def test_scalar_variance(self):
        z = bc.random_init(100_000, 1, 1, np.random.default_rng(12))
        assert abs(np.mean(np.abs(z.h) ** 2) - 1.0) < 0.02
        assert abs(np.mean(np.abs(z.x) ** 2) - 1.0) < 0.02

    def test_seed_determinism(self):
        z1 = bc.random_init(2, 3, 4, np.random.default_rng(1))
        z2 = bc.random_init(2, 3, 4, np.random.default_rng(1))
        assert np.array_equal(z1.h, z2.h) and np.array_equal(z1.x, z2.x)


class TestLoss:
    def test_zero_at_truth(self, small_instance):
        z = bc.Iterate(h=small_instance.truth.h.copy(),
                       x=small_instance.truth.x.copy())
        assert bc.loss(z, small_instance) < 1e-20

    def test_all_zero_blocks(self, small_instance):
        z = bc.Iterate(h=np.zeros((2, 3), dtype=complex),
                       x=np.zeros((2, 3), dtype=complex))
        expected = np.sum(np.abs(small_instance.y) ** 2)
        assert bc.loss(z, small_instance) == pytest.approx(expected, rel=1e-14)

    def test_matches_brute_force(self, small_instance, small_iterate):
        lv = bc.loss(small_iterate, small_instance)
        bv = brute_force_loss(small_iterate, small_instance)
        assert abs(lv - bv) / bv < 1e-12

    def test_gauge_invariance(self, small_instance, small_iterate):
        rng = np.random.default_rng(21)
        omegas = rng.normal(size=2) + 1j * rng.normal(size=2)
        z_gauged = bc.Iterate(h=small_iterate.h / np.conj(omegas)[:, None],
                              x=omegas[:, None] * small_iterate.x)
        l0 = bc.loss(small_iterate, small_instance)
        l1 = bc.loss(z_gauged, small_instance)
        assert abs(l0 - l1) / l0 < 1e-12


class TestWirtingerGradient:
    def test_zero_at_truth(self, small_instance):
        z = bc.Iterate(h=small_instance.truth.h.copy(),
                       x=small_instance.truth.x.copy())
        g = bc.wirtinger_gradient(z, small_instance)
        assert max(np.abs(g.h).max(), np.abs(g.x).max()) < 1e-14

    @M_VALUES
    @LAYOUTS
    @WEIGHTS
    def test_matches_naive_accumulation(self, m, layout, weights):
        inst, z, w = _kernel_case(m, layout, weights)
        g = bc.wirtinger_gradient(z, inst, sample_weights=w)
        gh, gx = brute_force_gradient(z, inst, sample_weights=w)
        assert np.abs(g.h - gh).max() / np.abs(gh).max() < 1e-12
        assert np.abs(g.x - gx).max() / np.abs(gx).max() < 1e-12

    def test_finite_difference_identity(self):
        for trial in range(5):
            rng = np.random.default_rng([300, trial])
            inst = bc.make_instance(2, 6, 6, 120, seed=[301, trial])
            z = bc.random_init(2, 6, 6, rng)
            dh, dx = draw_direction(rng, 2, 6, 6)
            g = bc.wirtinger_gradient(z, inst)
            pred_scale = gradient_inner(g, dh, dx).real
            f0 = bc.loss(z, inst)
            errs = {}
            for eps in (1e-4, 1e-5):
                zp = bc.Iterate(h=z.h + eps * dh, x=z.x + eps * dx)
                df = bc.loss(zp, inst) - f0
                errs[eps] = abs(df - 2 * eps * pred_scale) / abs(df)
            assert errs[1e-5] <= 1e-4
            assert 7 <= errs[1e-4] / errs[1e-5] <= 13

    def test_scalar_case_hand_derivation(self):
        inst = bc.make_instance(1, 1, 1, 3, seed=17)
        z = bc.Iterate(h=np.array([[0.7 - 0.2j]]), x=np.array([[-0.4 + 1.1j]]))
        g = bc.wirtinger_gradient(z, inst)
        gh = 0j
        gx = 0j
        for j in range(3):
            bj_h = inst.b_rows[j, 0]        # this is b_j^H as a scalar
            r_j = bj_h * z.h[0, 0] * np.conj(z.x[0, 0]) * inst.a[0, j, 0] - inst.y[j]
            gh += r_j * np.conj(bj_h) * np.conj(inst.a[0, j, 0]) * z.x[0, 0]
            gx += np.conj(r_j) * inst.a[0, j, 0] * bj_h * z.h[0, 0]
        assert abs(g.h[0, 0] - gh) < 1e-14
        assert abs(g.x[0, 0] - gx) < 1e-14


class TestPopulationGradient:
    def test_zero_at_truth(self):
        t = bc.sample_ground_truth(2, 4, 4, [1, 0.5], np.random.default_rng(1))
        g = bc.population_gradient(bc.Iterate(h=t.h.copy(), x=t.x.copy()), t)
        assert np.abs(g.h).max() < 1e-14

    def test_zero_signal_block(self):
        t = bc.sample_ground_truth(1, 3, 3, [1.0], np.random.default_rng(2))
        z = bc.Iterate(h=t.h.copy(), x=np.zeros((1, 3), dtype=complex))
        g = bc.population_gradient(z, t)
        assert np.abs(g.h).max() < 1e-14

    def test_matches_monte_carlo_expectation(self):
        s, K, N, m = 2, 4, 4, 64
        truth = bc.sample_ground_truth(s, K, N, [1.0, 1.0], np.random.default_rng(7))
        z = bc.random_init(s, K, N, np.random.default_rng(8))
        expected = bc.population_gradient(z, truth)
        b_rows = bc.generate_partial_dft(m, K)
        mc_rng = np.random.default_rng(9)
        acc_h = np.zeros_like(expected.h)
        acc_x = np.zeros_like(expected.x)
        n_mc = 2000
        for _ in range(n_mc):
            a = bc.sample_design_tensor(s, m, N, mc_rng)
            y = bc.synthesize_measurements(b_rows, a, truth, 0.0)
            inst = bc.ProblemInstance(s=s, K=K, N=N, m=m, b_rows=b_rows, a=a,
                                      truth=truth, y=y)
            g = bc.wirtinger_gradient(z, inst)
            acc_h += g.h
            acc_x += g.x
        acc_h /= n_mc
        acc_x /= n_mc
        for i in range(s):
            assert (np.linalg.norm(acc_h[i] - expected.h[i])
                    / np.linalg.norm(expected.h[i])) < 0.05
            assert (np.linalg.norm(acc_x[i] - expected.x[i])
                    / np.linalg.norm(expected.x[i])) < 0.05


class TestWfStep:
    def test_zero_gradient_is_identity(self, small_iterate):
        g = bc.GradientBlocks(h=np.zeros_like(small_iterate.h),
                              x=np.zeros_like(small_iterate.x))
        z1 = bc.wf_step(small_iterate, g, 0.1)
        assert np.array_equal(z1.h, small_iterate.h)
        assert np.array_equal(z1.x, small_iterate.x)

    def test_zero_step_size_is_identity(self, small_instance, small_iterate):
        g = bc.wirtinger_gradient(small_iterate, small_instance)
        z1 = bc.wf_step(small_iterate, g, 0.0)
        assert np.array_equal(z1.h, small_iterate.h)

    def test_scalar_hand_values(self):
        z = bc.Iterate(h=np.array([[2.0 + 0j]]), x=np.array([[3.0 + 0j]]))
        g = bc.GradientBlocks(h=np.array([[0.5 + 0j]]), x=np.array([[0.25 + 0j]]))
        z1 = bc.wf_step(z, g, 0.1)
        assert z1.h[0, 0] == pytest.approx(2.0 - 0.1 / 9.0 * 0.5, abs=1e-15)
        assert z1.x[0, 0] == pytest.approx(3.0 - 0.1 / 4.0 * 0.25, abs=1e-15)

    def test_input_not_mutated(self, small_instance, small_iterate):
        h0 = small_iterate.h.copy()
        g = bc.wirtinger_gradient(small_iterate, small_instance)
        bc.wf_step(small_iterate, g, 0.1)
        assert np.array_equal(small_iterate.h, h0)

    def test_zero_norm_block_rejected(self):
        z = bc.Iterate(h=np.zeros((1, 2), dtype=complex),
                       x=np.ones((1, 2), dtype=complex))
        g = bc.GradientBlocks(h=np.zeros((1, 2), dtype=complex),
                              x=np.zeros((1, 2), dtype=complex))
        with pytest.raises(DegenerateIterateError):
            bc.wf_step(z, g, 0.1)


class TestRunWf:
    def test_disabled_tolerance_runs_full_budget(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.01, max_iters=7, tol=np.inf)
        trace = bc.run_wf(small_instance, small_iterate, settings)
        assert trace.n_iters == 7
        assert trace.t[-1] == 7
        assert not trace.converged

    def test_bit_identical_reruns(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.05, max_iters=20, tol=np.inf)
        t1 = bc.run_wf(small_instance, small_iterate, settings)
        t2 = bc.run_wf(small_instance, small_iterate, settings)
        assert np.array_equal(t1.loss, t2.loss)
        assert np.array_equal(t1.relative_error, t2.relative_error)
        assert np.array_equal(t1.final.h, t2.final.h)
        assert np.array_equal(t1.final.x, t2.final.x)

    def test_logged_omega_is_truth_alignment(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.05, max_iters=12, tol=np.inf, cadence=4,
                                     keep_iterates=True)
        trace = bc.run_wf(small_instance, small_iterate, settings)
        truth = small_instance.truth
        assert trace.omega.shape == (len(trace.t), small_instance.s)
        for ti, z in enumerate(trace.iterates):
            res = bc.align_pair(z.h, z.x, truth.h, truth.x)
            np.testing.assert_allclose(trace.omega[ti], res.omega, rtol=1e-14, atol=0)

    def test_observer_cadence(self, small_instance, small_iterate):
        seen = []
        settings = bc.SolverSettings(eta=0.01, max_iters=10, tol=np.inf, cadence=3)
        bc.run_wf(small_instance, small_iterate, settings,
                  observers=[lambda t, z, lv: seen.append((t, lv))])
        assert [t for t, _ in seen] == [0, 3, 6, 9, 10]
        assert all(np.isfinite(lv) for _, lv in seen)

    def test_converges_single_node(self):
        converged = 0
        for seed in range(5):
            inst = bc.make_instance(1, 8, 8, 400, seed=[400, seed])
            z0 = bc.random_init(1, 8, 8, np.random.default_rng([401, seed]))
            trace = bc.run_wf(inst, z0,
                              bc.SolverSettings(eta=0.1, max_iters=500, tol=1e-6))
            converged += trace.converged
        assert converged >= 4

    def test_divergence_raises_with_iteration(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=1e6, max_iters=50, tol=np.inf)
        with pytest.raises(DivergenceError, match=r"iteration \d+"):
            bc.run_wf(small_instance, small_iterate, settings)

    def test_loss_tolerance_stops(self, small_instance):
        z0 = bc.Iterate(h=small_instance.truth.h.copy(),
                        x=small_instance.truth.x.copy())
        settings = bc.SolverSettings(eta=0.1, max_iters=50, tol=np.inf,
                                     loss_tol=1e-12)
        trace = bc.run_wf(small_instance, z0, settings)
        assert trace.converged and trace.n_iters == 0


class TestHessianXBlock:
    def test_zero_channel_kills_block(self, small_instance):
        z = bc.Iterate(h=np.zeros((2, 3), dtype=complex),
                       x=np.ones((2, 3), dtype=complex))
        hess = bc.wirtinger_hessian_x_block(z, small_instance, 0)
        assert np.abs(hess).max() == 0.0

    def test_hermitian(self, small_instance, small_iterate):
        hess = bc.wirtinger_hessian_x_block(small_iterate, small_instance, 1)
        assert np.abs(hess - hess.conj().T).max() < 1e-12

    def test_second_difference_matches_quadratic_form(self):
        inst = bc.make_instance(1, 4, 4, 30, seed=3)
        z = bc.random_init(1, 4, 4, np.random.default_rng(4))
        hess = bc.wirtinger_hessian_x_block(z, inst, 0)
        delta = bc.random_init(1, 4, 4, np.random.default_rng(5)).x[0]
        eps = 1e-4
        zp = bc.Iterate(h=z.h.copy(), x=z.x.copy())
        zm = bc.Iterate(h=z.h.copy(), x=z.x.copy())
        zp.x[0] = z.x[0] + eps * delta
        zm.x[0] = z.x[0] - eps * delta
        fd2 = (bc.loss(zp, inst) - 2 * bc.loss(z, inst) + bc.loss(zm, inst)) / eps ** 2
        qf = hessian_quadratic_form(hess, delta)
        assert abs(fd2 - qf) / abs(qf) < 1e-4

    @M_VALUES
    @LAYOUTS
    @WEIGHTS
    def test_matches_per_sample_loop(self, m, layout, weights):
        inst, z, w = _kernel_case(m, layout, weights)
        for i in range(inst.s):
            hess = bc.wirtinger_hessian_x_block(z, inst, i, sample_weights=w)
            ref = brute_force_hessian_x_block(z, inst, i, sample_weights=w)
            assert np.abs(hess - ref).max() / np.abs(ref).max() < 1e-12

    def test_scalar_hand_case(self):
        inst = bc.make_instance(1, 2, 1, 2, seed=6)
        z = bc.random_init(1, 2, 1, np.random.default_rng(7))
        hess = bc.wirtinger_hessian_x_block(z, inst, 0)
        d_hand = sum(abs(inst.b_rows[j] @ z.h[0]) ** 2 * abs(inst.a[0, j, 0]) ** 2
                     for j in range(2))
        assert abs(hess[0, 0] - d_hand) < 1e-14
        assert abs(hess[1, 1] - d_hand) < 1e-14
