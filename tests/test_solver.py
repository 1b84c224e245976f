import dataclasses
import itertools

import numpy as np
import pytest

import blaircomp as bc
from blaircomp import ensemble, metrics, solver
from blaircomp.ensemble import measurement_factors
from blaircomp.errors import (DegenerateAlignmentError, DimensionMismatchError,
                              DivergenceError, ParameterError, UndefinedMetricError)

from helpers import (brute_force_gradient, brute_force_hessian_x_block,
                     brute_force_loss, draw_direction, explicit_sign_flip,
                     gradient_and_loss_reference, gradient_inner,
                     hessian_quadratic_form, measurement_factors_reference,
                     population_gradient, traced_peak)


def _kernel_case(m, layout, weights):
    """Instance, brute-force oracle, iterate and sample weights for the kernel
    equivalence checks.

    ``layout`` "sign" swaps in a sign-flip ensemble (flips folded into the
    design tensor) and, as its oracle, the same flips built per node by
    ``helpers.explicit_sign_flip``; "shared" is its own oracle.  ``weights``
    "loo" drops one sample from the loss.  m=10, "shared", "none" is the
    small_instance / small_iterate pair.
    """
    inst = oracle = bc.make_instance(2, 3, 3, m, seed=1)
    if layout == "sign":
        base = bc.canonicalize_instance(inst)
        xi = bc.sample_sign_flips(base.s, base.m, np.random.default_rng(3))
        inst = bc.apply_sign_flips(base, xi)
        oracle = explicit_sign_flip(base, xi)
    z = bc.random_init(2, 3, 3, np.random.default_rng(2))
    w = None
    if weights == "loo":
        w = np.ones(m)
        w[m // 3] = 0.0
    return inst, oracle, z, w


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

    @M_VALUES
    @LAYOUTS
    @WEIGHTS
    def test_matches_brute_force(self, m, layout, weights):
        inst, oracle, z, w = _kernel_case(m, layout, weights)
        lv = bc.loss(z, inst, sample_weights=w)
        bv = brute_force_loss(z, oracle, sample_weights=w)
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
        inst, oracle, z, w = _kernel_case(m, layout, weights)
        g = bc.wirtinger_gradient(z, inst, sample_weights=w)
        gh, gx = brute_force_gradient(z, oracle, sample_weights=w)
        assert np.abs(g.h - gh).max() / np.abs(gh).max() < 1e-12
        assert np.abs(g.x - gx).max() / np.abs(gx).max() < 1e-12

    @pytest.mark.parametrize("shape", [(7,), (3, 10)])
    def test_bad_weights_shape_rejected(self, small_instance, small_iterate, shape):
        with pytest.raises(DimensionMismatchError, match="sample weights"):
            bc.wirtinger_gradient(small_iterate, small_instance,
                                  sample_weights=np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("entry", ["loss", "wirtinger_gradient", "run_wf"])
    def test_bad_weight_values_rejected(self, small_instance, small_iterate, entry,
                                        value):
        w = np.ones(small_instance.m)
        w[3] = value
        call = {"loss": lambda: bc.loss(small_iterate, small_instance, w),
                "wirtinger_gradient": lambda: bc.wirtinger_gradient(
                    small_iterate, small_instance, w),
                "run_wf": lambda: bc.run_wf(small_instance, small_iterate,
                                            bc.SolverSettings(max_iters=3),
                                            sample_weights=np.stack([np.ones_like(w), w]))}
        with pytest.raises(ParameterError, match="finite and >= 0"):
            call[entry]()

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


class TestKernelBits:
    """The lockstep kernel gives the bits of one product per run with fresh
    arrays for every pass, and writes into none of its inputs; the
    measurement operator, the measurements and the incoherence give the
    bits of one product per leading index."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("instances", ["shared", "per_run"])
    def test_matches_reference_bit_for_bit(self, s, instances):
        K, N, m = 5, 4, 97
        rng = np.random.default_rng([40, s])
        for n_runs in (1, 2, 5):
            insts = [bc.make_instance(s, K, N, m, seed=[41, s, k])
                     for k in range(n_runs if instances == "per_run" else 1)]
            for inst in insts:
                bh, xa = measurement_factors_reference(inst.truth.h, inst.truth.x,
                                                       inst.b_rows, inst.a)
                assert inst.y.tobytes() == np.sum(bh * xa, axis=0).tobytes()
                assert metrics.incoherence(inst.truth, inst.b_rows) == float(
                    np.sqrt(m) * (np.abs(bh) / inst.truth.q[:, None]).max())
            rows = solver._stack_instances(insts)
            z = bc.random_init(n_runs * s, K, N, rng)
            z = bc.Iterate(h=z.h.reshape(n_runs, s, K), x=z.x.reshape(n_runs, s, N))
            cases = [(z, rows)]
            if n_runs == 1 and instances == "shared":   # no run axis at all
                cases.append((bc.Iterate(h=z.h[0], x=z.x[0]), insts[0]))
            z_tr = bc.random_init(3 * n_runs * s, K, N, np.random.default_rng([42, s]))
            z_tr = bc.Iterate(h=z_tr.h.reshape(3, n_runs, s, K),
                              x=z_tr.x.reshape(3, n_runs, s, N))     # (T, R) axes
            for zk, inst in cases + [(z_tr, rows)]:
                got = measurement_factors(zk.h, zk.x, inst.b_rows, inst.a)
                want = measurement_factors_reference(zk.h, zk.x, inst.b_rows, inst.a)
                for g, w in zip(got, want):
                    assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())
            for zk, inst in cases:
                for w in (None, rng.uniform(0.0, 2.0, m),
                          rng.uniform(0.0, 2.0, (n_runs, m))):
                    if w is not None and w.ndim == 2 and zk.h.ndim == 2:
                        continue
                    before = [v.copy() for v in (zk.h, zk.x, inst.a, inst.y)]
                    w_before = None if w is None else w.copy()
                    g, loss_val = solver._gradient_and_loss(zk, inst, w)
                    g_ref, loss_ref = gradient_and_loss_reference(zk, inst, w)
                    assert g.h.tobytes() == g_ref.h.tobytes()
                    assert g.x.tobytes() == g_ref.x.tobytes()
                    assert loss_val.tobytes() == loss_ref.tobytes()
                    for old, new in zip(before, (zk.h, zk.x, inst.a, inst.y)):
                        assert np.array_equal(old, new)
                    assert w is None or np.array_equal(w_before, w)


class TestPopulationGradient:
    def test_zero_at_truth(self):
        t = bc.sample_ground_truth(2, 4, 4, [1, 0.5], np.random.default_rng(1))
        g = population_gradient(bc.Iterate(h=t.h.copy(), x=t.x.copy()), t)
        assert np.abs(g.h).max() < 1e-14

    def test_zero_signal_block(self):
        t = bc.sample_ground_truth(1, 3, 3, [1.0], np.random.default_rng(2))
        z = bc.Iterate(h=t.h.copy(), x=np.zeros((1, 3), dtype=complex))
        g = population_gradient(z, t)
        assert np.abs(g.h).max() < 1e-14

    def test_matches_monte_carlo_expectation(self):
        s, K, N, m = 2, 4, 4, 64
        truth = bc.sample_ground_truth(s, K, N, [1.0, 1.0], np.random.default_rng(7))
        z = bc.random_init(s, K, N, np.random.default_rng(8))
        expected = population_gradient(z, truth)
        b_rows = bc.generate_partial_dft(m, K)
        mc_rng = np.random.default_rng(9)
        acc_h = np.zeros_like(expected.h)
        acc_x = np.zeros_like(expected.x)
        n_mc = 2000
        for _ in range(n_mc):
            a = bc.sample_design_tensor(s, m, N, mc_rng)
            y = bc.synthesize_measurements(b_rows, a, truth, 0.0)
            inst = bc.ProblemInstance(b_rows=b_rows, a=a, truth=truth, y=y)
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
        g = bc.Iterate(h=np.zeros_like(small_iterate.h),
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
        g = bc.Iterate(h=np.array([[0.5 + 0j]]), x=np.array([[0.25 + 0j]]))
        z1 = bc.wf_step(z, g, 0.1)
        assert z1.h[0, 0] == pytest.approx(2.0 - 0.1 / 9.0 * 0.5, abs=1e-15)
        assert z1.x[0, 0] == pytest.approx(3.0 - 0.1 / 4.0 * 0.25, abs=1e-15)

    def test_input_not_mutated(self, small_instance, small_iterate):
        h0 = small_iterate.h.copy()
        g = bc.wirtinger_gradient(small_iterate, small_instance)
        bc.wf_step(small_iterate, g, 0.1)
        assert np.array_equal(small_iterate.h, h0)

    def test_zero_norm_block_rejected(self, small_iterate):
        z = bc.Iterate(h=np.zeros((1, 2), dtype=complex),
                       x=np.ones((1, 2), dtype=complex))
        g = bc.Iterate(h=np.zeros((1, 2), dtype=complex),
                       x=np.zeros((1, 2), dtype=complex))
        with pytest.raises(DegenerateAlignmentError, match="zero block"):
            bc.wf_step(z, g, 0.1)
        # A block of norm just outside ensemble._NORM_RANGE raises, as
        # align_pair does; just inside, wf_step takes a finite step.
        low, high = ensemble._NORM_RANGE
        g = bc.Iterate(h=np.ones_like(small_iterate.h), x=np.ones_like(small_iterate.x))
        for norm, inside in ((1.01 * low, True), (0.99 * low, False),
                             (0.99 * high, True), (1.01 * high, False)):
            for block in ("h", "x"):
                z = bc.Iterate(h=small_iterate.h.copy(), x=small_iterate.x.copy())
                v = getattr(z, block)
                v[0] *= norm / np.linalg.norm(v[0])
                if inside:
                    z1 = bc.wf_step(z, g, 0.1)
                    assert np.isfinite(z1.h).all() and np.isfinite(z1.x).all()
                else:
                    with pytest.raises(DegenerateAlignmentError, match="zero block"):
                        bc.wf_step(z, g, 0.1)


class TestSolverSettings:
    @pytest.mark.parametrize("bad", [
        dict(eta=0.0), dict(eta=-0.1), dict(eta=np.nan), dict(eta=np.inf),
        dict(tol=0.0), dict(tol=-1.0), dict(tol=np.nan),
        dict(max_iters=0), dict(cadence=0), dict(max_iters=2.5), dict(cadence=1.5),
        dict(max_iters=True), dict(cadence=True),
    ], ids=["eta_zero", "eta_negative", "eta_nan", "eta_inf", "tol_zero",
            "tol_negative", "tol_nan", "max_iters", "cadence", "max_iters_float",
            "cadence_float", "max_iters_bool", "cadence_bool"])
    def test_bad_value_rejected(self, bad):
        with pytest.raises(ParameterError):
            bc.SolverSettings(**bad)

    def test_numpy_integers_accepted(self):
        settings = bc.SolverSettings(max_iters=np.int64(5), cadence=np.int32(2))
        assert (settings.max_iters, settings.cadence) == (5, 2)


class TestRunWf:
    def test_disabled_tolerance_runs_full_budget(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.01, max_iters=7, tol=np.inf)
        trace = bc.run_wf(small_instance, small_iterate, settings)
        assert trace.n_iters == 7
        assert trace.t[-1] == 7
        assert not trace.converged

    def test_snapshot_fields_are_the_trace_columns(self, small_instance, small_iterate):
        names = {f.name for f in dataclasses.fields(bc.MetricSnapshot)}
        derived = {"q", "s", "K", "N", "n_iters", "converged", "final"}
        columns = {name for name, attr in vars(bc.StateTrace).items()
                   if isinstance(attr, property)} - derived
        assert names == columns
        for tol in (np.inf, 1e-300):    # the columns on first read, and from the loop
            trace = bc.run_wf(small_instance, small_iterate,
                              bc.SolverSettings(max_iters=3, tol=tol))
            assert set(trace._metric_columns()) == names

    def test_bit_identical_reruns(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.05, max_iters=20, tol=np.inf)
        t1 = bc.run_wf(small_instance, small_iterate, settings)
        t2 = bc.run_wf(small_instance, small_iterate, settings)
        assert np.array_equal(t1.loss, t2.loss)
        assert np.array_equal(t1.relative_error, t2.relative_error)
        assert np.array_equal(t1.final.h, t2.final.h)
        assert np.array_equal(t1.final.x, t2.final.x)

    def test_logged_omega_is_truth_alignment(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.05, max_iters=12, tol=np.inf, cadence=4)
        trace = bc.run_wf(small_instance, small_iterate, settings)
        truth = small_instance.truth
        assert trace.omega.shape == (len(trace.t), small_instance.s)
        assert trace.h.shape == (len(trace.t), small_instance.s, small_instance.K)
        assert trace.x.shape == (len(trace.t), small_instance.s, small_instance.N)
        for ti in range(len(trace.t)):
            res = bc.align_pair(trace.h[ti], trace.x[ti], truth.h, truth.x)
            np.testing.assert_allclose(trace.omega[ti], res.omega, rtol=1e-14, atol=0)

    def test_log_cadence(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.01, max_iters=10, tol=np.inf, cadence=3)
        trace = bc.run_wf(small_instance, small_iterate, settings)
        assert trace.t.tolist() == [0, 3, 6, 9, 10]
        assert np.all(np.isfinite(trace.loss))
        # Every run ends at a log point, so the final iterate is the last one
        # stored, and the first is the start.
        assert np.array_equal(trace.h[0], small_iterate.h)
        assert np.array_equal(trace.x[0], small_iterate.x)
        assert np.array_equal(trace.final.h, trace.h[-1])
        assert np.array_equal(trace.final.x, trace.x[-1])

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
        # In the second case noise of variance 1e300 overflows the loss at the
        # first step: the run still ends as a divergence, not a RuntimeWarning.
        for inst, z0, eta, match in (
                (small_instance, small_iterate, 1e6, r"iteration \d+"),
                (bc.make_instance(1, 2, 2, 4, sigma2_e=1e300, seed=0),
                 bc.random_init(1, 2, 2, np.random.default_rng(0)), 0.1,
                 "^loss diverged at iteration 1: inf$")):
            settings = bc.SolverSettings(eta=eta, max_iters=50, tol=np.inf)
            with pytest.raises(DivergenceError, match=match):
                bc.run_wf(inst, z0, settings)


def _single_runs(inst, z0, settings, weights):
    """The rows of a weight matrix run one by one, as single-run calls."""
    return [bc.run_wf(inst, z0, settings, sample_weights=w) for w in weights]


def _assert_same_run(batched, single):
    """A batched run against its single-run trace, to 1e-12 relative."""
    assert np.array_equal(batched.t, single.t)
    assert (batched.n_iters, batched.stop_reason, batched.converged) == \
        (single.n_iters, single.stop_reason, single.converged)
    pairs = [(getattr(batched, name), getattr(single, name)) for name in (
        "loss", "relative_error", "dist", "omega", "alpha_h", "beta_h",
        "alpha_x", "beta_x", "rmse_x", "h", "x")]
    pairs += [(batched.final.h, single.final.h), (batched.final.x, single.final.x)]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestRunBatch:
    @LAYOUTS
    def test_runs_match_single_run_traces(self, layout):
        inst, _, z0, _ = _kernel_case(40, layout, "none")
        rng = np.random.default_rng(5)
        weights = np.ones((4, inst.m))
        weights[1, 7] = 0.0
        weights[2] = rng.uniform(0.5, 1.5, inst.m)
        weights[3, [0, 39]] = 0.0
        settings = bc.SolverSettings(eta=0.1, max_iters=25, tol=np.inf, cadence=3)
        batch = bc.run_wf(inst, z0, settings, sample_weights=weights)
        singles = _single_runs(inst, z0, settings, weights)
        assert isinstance(batch, bc.RunBatch) and len(batch.runs) == 4
        for run, single in zip(batch.runs, singles):
            _assert_same_run(run, single)
        assert batch.n_iters == sum(tr.n_iters for tr in singles)
        assert np.array_equal(batch.t, np.concatenate([tr.t for tr in singles]))
        assert batch.s == inst.s

    def test_run_meeting_tol_stops_alone(self):
        # Halving the weights halves the step, so the runs stop at different
        # iterations: 232 and 470 at tol, and the last at max_iters.
        inst = bc.make_instance(1, 4, 4, 80, seed=3)
        z0 = bc.random_init(1, 4, 4, np.random.default_rng(4))
        settings = bc.SolverSettings(eta=0.1, max_iters=600, tol=1e-6)
        weights = np.array([1.0, 0.5, 0.25])[:, None] * np.ones(inst.m)
        batch = bc.run_wf(inst, z0, settings, sample_weights=weights)
        singles = _single_runs(inst, z0, settings, weights)
        for run, single in zip(batch.runs, singles):
            _assert_same_run(run, single)
        assert [run.stop_reason for run in batch.runs] == ["tol", "tol", "max_iters"]
        assert batch.runs[0].n_iters < batch.runs[1].n_iters < 600
        assert batch.runs[2].t[-1] == 600
        # each run owns its columns: none is a view into another run's
        for name in ("t", "loss", "h", "relative_error"):
            for a, b in itertools.combinations(batch.runs, 2):
                assert not np.shares_memory(getattr(a, name), getattr(b, name)), name

    def test_first_diverging_row_is_reported(self):
        # Weight rows: row 1 diverges at iteration 5 and row 2 already at
        # iteration 1; the rows run one by one raise row 1's error, and so
        # does the batch's traces().  Stacked instances: noise of variance
        # 1e300 overflows row 1's loss at iteration 1, which ends that row,
        # not the call.  Each row records its own error, and row 0 runs on.
        settings = bc.SolverSettings(eta=0.1, max_iters=60, tol=np.inf)
        inst = bc.make_instance(1, 4, 4, 80, seed=3)
        weights = np.array([1.0, 30.0, 1e3])[:, None] * np.ones(inst.m)
        noisy = [bc.make_instance(1, 2, 2, 4, sigma2_e=v, seed=0) for v in (0.0, 1e300)]
        for rows, batch_inst, batch_w, first in (
                ([(inst, w) for w in weights], inst, weights, "iteration 5:"),
                ([(i, None) for i in noisy], noisy, None, "iteration 1: inf")):
            n = rows[0][0].K
            z0 = bc.random_init(1, n, n, np.random.default_rng(4))
            with pytest.raises(DivergenceError) as sequential:
                for row_inst, row_w in rows:
                    bc.run_wf(row_inst, z0, settings, sample_weights=row_w)
            assert first in str(sequential.value)
            batch = bc.run_wf(batch_inst, z0, settings, sample_weights=batch_w)
            with pytest.raises(DivergenceError) as batched:
                batch.traces()
            assert str(batched.value) == str(sequential.value)
            assert batch.runs[1:] == [None] * (len(rows) - 1) and batch.errors[0] is None
            for (row_inst, row_w), exc in zip(rows[1:], batch.errors[1:]):
                with pytest.raises(DivergenceError) as alone:
                    bc.run_wf(row_inst, z0, settings, sample_weights=row_w)
                assert type(exc) is DivergenceError and str(exc) == str(alone.value)
            _assert_identical_traces(batch.runs[0], bc.run_wf(rows[0][0], z0, settings))
            assert batch.n_iters == batch.runs[0].n_iters
            assert np.array_equal(batch.t, batch.runs[0].t)

    def test_bad_input_rejected(self, small_instance, small_iterate):
        settings = bc.SolverSettings(eta=0.05, max_iters=3, tol=np.inf)
        for shape in [(2, small_instance.m + 1), (0, small_instance.m),
                      (1, 2, small_instance.m)]:
            with pytest.raises(DimensionMismatchError):
                bc.run_wf(small_instance, small_iterate, settings,
                          sample_weights=np.ones(shape))
        stacked = bc.Iterate(h=np.stack([small_iterate.h] * 2),
                             x=np.stack([small_iterate.x] * 2))
        with pytest.raises(DimensionMismatchError):      # 2 runs against 3
            bc.run_wf(small_instance, stacked, settings,
                      sample_weights=np.ones((3, small_instance.m)))
        with pytest.raises(DimensionMismatchError):
            bc.run_wf([small_instance] * 3, stacked, settings)
        with pytest.raises(DimensionMismatchError):
            bc.run_wf([small_instance, bc.make_instance(2, 3, 3, 12, seed=1)],
                      small_iterate, settings)
        with pytest.raises(DimensionMismatchError):
            bc.run_wf([], small_iterate, settings)
        with pytest.raises(DimensionMismatchError):
            bc.loss(stacked, small_instance)
        h, x = small_iterate.h, small_iterate.x
        for z0 in (bc.Iterate(h=h[0], x=x[0]), bc.Iterate(h=h[None, None], x=x[None, None]),
                   bc.Iterate(h=h, x=x[None])):
            with pytest.raises(DimensionMismatchError, match="z0 must be one iterate"):
                bc.run_wf(small_instance, z0, settings)
        for z in (bc.Iterate(h=h[:, :2], x=x), bc.Iterate(h=h, x=x[:1])):
            with pytest.raises(DimensionMismatchError, match="do not match instance dims"):
                bc.loss(z, small_instance)

    def test_zero_block_in_one_run_raises(self, small_instance, small_iterate):
        h = np.stack([small_iterate.h] * 3)
        h[2, 1] = 0.0
        z = bc.Iterate(h=h, x=np.stack([small_iterate.x] * 3))
        g = bc.Iterate(h=np.ones_like(z.h), x=np.ones_like(z.x))
        with pytest.raises(DegenerateAlignmentError, match="zero block"):
            bc.wf_step(z, g, 0.1)
        # A zero start block fails the truth alignment of the first log
        # point, in every run that starts there.
        z0 = bc.Iterate(h=h[2], x=small_iterate.x)
        settings = bc.SolverSettings(max_iters=3)
        with pytest.raises(DegenerateAlignmentError, match="zero block"):
            bc.run_wf(small_instance, z0, settings)
        batch = bc.run_wf(small_instance, z0, settings,
                          sample_weights=np.ones((3, small_instance.m)))
        assert batch.runs == [None] * 3 and batch.n_iters == 0
        assert batch.t.shape == (0,) and batch.s == 2
        assert all(isinstance(e, DegenerateAlignmentError) for e in batch.errors)
        with pytest.raises(DegenerateAlignmentError, match="zero block"):
            batch.traces()

    def test_zero_block_row_retires_alone(self, small_instance, small_iterate):
        # Per-row starts: row 1 has a zero block, rows 0 and 2 run as alone.
        z_bad = bc.Iterate(h=small_iterate.h.copy(), x=small_iterate.x.copy())
        z_bad.h[1] = 0.0
        z_other = bc.random_init(2, 3, 3, np.random.default_rng(9))
        z0s = [small_iterate, z_bad, z_other]
        z0 = bc.Iterate(h=np.stack([z.h for z in z0s]),
                        x=np.stack([z.x for z in z0s]))
        settings = bc.SolverSettings(eta=0.05, max_iters=40, cadence=3)
        batch = bc.run_wf(small_instance, z0, settings)
        assert batch.runs[1] is None
        assert isinstance(batch.errors[1], DegenerateAlignmentError)
        assert str(batch.errors[1]) == f"{ensemble._RANGE_ERROR} at iteration 0"
        for k in (0, 2):
            assert batch.errors[k] is None
            _assert_identical_traces(batch.runs[k],
                                     bc.run_wf(small_instance, z0s[k], settings))

    def test_starts_near_a_truth_at_the_lowest_q_run(self):
        # sample_ground_truth rescales each block to norm q, which rounds
        # just below q for some draws; at q = 1e-75, the lowest accepted,
        # runs started at the truth and 1 % off it still run, and their
        # metrics read.
        settings = bc.SolverSettings(max_iters=3)
        scales = np.array([0.99, 1.0, 1.01])[:, None, None]
        for seed in range(200):
            inst = bc.make_instance(1, 4, 4, 40, q=[1e-75], seed=seed)
            z0 = bc.Iterate(h=scales * inst.truth.h, x=scales * inst.truth.x)
            for trace in bc.run_wf(inst, z0, settings).traces():
                assert trace.n_iters == 3 and np.isfinite(trace.relative_error).all()

    def test_scaled_starts_retire_alone(self):
        # Row 1 starts at (10^a h, 10^b x), across both edges of the block
        # norm range [1e-76, 1e76].  Whatever its outcome, the call returns,
        # rows 0 and 2 run as alone, every finished trace's metrics read,
        # and row 1 ends the same way with the tolerance on or off.
        inst = bc.make_instance(1, 4, 4, 40, seed=1)
        z = bc.random_init(1, 4, 4, np.random.default_rng(2))
        outcomes = {}
        for tol in (1e-6, np.inf):
            settings = bc.SolverSettings(max_iters=5, tol=tol)
            alone = bc.run_wf(inst, z, settings)
            for a, b in itertools.product((-200, -80, -74, 0, 74, 80, 200), repeat=2):
                z0 = bc.Iterate(h=np.stack([z.h, 10.0 ** a * z.h, z.h]),
                                x=np.stack([z.x, 10.0 ** b * z.x, z.x]))
                batch = bc.run_wf(inst, z0, settings)
                for k in (0, 2):
                    _assert_identical_traces(batch.runs[k], alone)
                for trace in batch.runs:
                    if trace is not None:
                        for column in dataclasses.fields(metrics.MetricSnapshot):
                            getattr(trace, column.name)
                error = batch.errors[1]
                outcomes.setdefault((a, b), []).append(
                    batch.runs[1].n_iters if error is None else (type(error), str(error)))
        assert all(at_tol == at_inf for at_tol, at_inf in outcomes.values())

    def test_zero_block_in_the_step_retires_alone(self, monkeypatch, small_instance,
                                                  small_iterate):
        # Logging every 5th iteration, row 1 reaches a zero x block at
        # iteration 2, off the log points: it ends there with the error and
        # message a log point gives.
        real = solver._gradient_and_loss
        calls = []      # one call per iteration, from iteration 0

        def zero_row_1(z, inst, w):
            calls.append(len(z.h))
            if calls == [3, 3, 3]:
                z.x[1, 0] = 0.0
            return real(z, inst, w)

        monkeypatch.setattr(solver, "_gradient_and_loss", zero_row_1)
        settings = bc.SolverSettings(eta=0.05, max_iters=20, cadence=5)
        batch = bc.run_wf(small_instance, small_iterate, settings,
                          sample_weights=np.ones((3, small_instance.m)))
        assert batch.runs[1] is None
        assert isinstance(batch.errors[1], DegenerateAlignmentError)
        assert str(batch.errors[1]) == f"{ensemble._RANGE_ERROR} at iteration 2"
        monkeypatch.setattr(solver, "_gradient_and_loss", real)
        want = bc.run_wf(small_instance, small_iterate, settings)
        for k in (0, 2):
            _assert_identical_traces(batch.runs[k], want)

    def test_divergence_just_after_a_settled_block_retires_alone(
            self, monkeypatch, small_instance, small_iterate):
        # At cadence 1 the log points 0-31 fill the first block, which
        # settles at iteration 31; row 1's loss then diverges at iteration
        # 32, with no log point pending.
        assert solver._METRIC_BLOCK == 32
        real = solver._gradient_and_loss
        calls = []      # one call per iteration, from iteration 0

        def diverge_row_1(z, inst, w):
            g, loss_val = real(z, inst, w)
            calls.append(len(z.h))
            if len(calls) == 33:
                loss_val[1] = np.inf
            return g, loss_val

        monkeypatch.setattr(solver, "_gradient_and_loss", diverge_row_1)
        settings = bc.SolverSettings(eta=0.05, max_iters=40)
        batch = bc.run_wf(small_instance, small_iterate, settings,
                          sample_weights=np.ones((3, small_instance.m)))
        assert calls[32:34] == [3, 2]
        assert batch.runs[1] is None
        assert type(batch.errors[1]) is DivergenceError
        assert str(batch.errors[1]) == "loss diverged at iteration 32: inf"
        monkeypatch.setattr(solver, "_gradient_and_loss", real)
        want = bc.run_wf(small_instance, small_iterate, settings)
        for k in (0, 2):
            assert batch.errors[k] is None
            _assert_identical_traces(batch.runs[k], want)


class TestStackedInstances:
    """Runs on per-row instances and starts give the traces of one call per
    row, bit for bit; a row's failure ends only that row."""

    def test_rows_match_separate_calls(self):
        insts = [bc.make_instance(3, 4, 4, 300, seed=k) for k in range(4)]
        z0s = [bc.random_init(3, 4, 4, np.random.default_rng(10 + k))
               for k in range(4)]
        z0 = bc.Iterate(h=np.stack([z.h for z in z0s]),
                        x=np.stack([z.x for z in z0s]))
        settings = bc.SolverSettings(eta=0.1, max_iters=400, tol=1e-6, cadence=1)
        batch = bc.run_wf(insts, z0, settings)
        singles = [bc.run_wf(i, z, settings) for i, z in zip(insts, z0s)]
        assert {tr.stop_reason for tr in singles} == {"tol"}
        assert len({tr.n_iters for tr in singles}) > 1
        for run, single in zip(batch.runs, singles):
            _assert_identical_traces(run, single)
            assert np.array_equal(run.q, single.q)
        assert batch.n_iters == sum(tr.n_iters for tr in singles)

    def test_relative_error_divides_by_the_1d_target_norm(self):
        # The noise-sweep shape, where norm(axis=-1) of the target differs
        # from its 1-D norm in the last bit; trace.csv prints 17 digits.
        insts = [bc.make_instance(1, 10, 10, 100, seed=k) for k in range(6)]
        z0 = bc.random_init(1, 10, 10, np.random.default_rng(3))
        batch = bc.run_wf(insts, z0, bc.SolverSettings(max_iters=40))
        for inst, run in zip(insts, batch.runs):
            target = inst.truth.x.sum(axis=0)
            recovered = (run.omega[:, None, :] @ run.x)[:, 0]
            want = np.linalg.norm(recovered - target, axis=-1) / np.linalg.norm(target)
            assert run.relative_error.tobytes() == want.tobytes()

    def test_one_instance_in_a_list_is_a_batch_of_one(self, small_instance,
                                                      small_iterate):
        settings = bc.SolverSettings(eta=0.05, max_iters=30, cadence=4)
        batch = bc.run_wf([small_instance], small_iterate, settings)
        assert isinstance(batch, bc.RunBatch) and len(batch.runs) == 1
        _assert_identical_traces(batch.runs[0],
                                 bc.run_wf(small_instance, small_iterate, settings))

    def test_diverging_instance_ends_only_its_row(self):
        # Row 1's measurements are scaled up, so at this step size it
        # diverges; rows 0 and 2 match their separate calls.
        insts = [bc.make_instance(1, 4, 4, 80, seed=k) for k in range(3)]
        big = insts[1]
        insts[1] = bc.ProblemInstance(b_rows=big.b_rows, a=big.a * 30.0,
                                      truth=big.truth, y=big.y * 30.0)
        z0 = bc.random_init(1, 4, 4, np.random.default_rng(4))
        settings = bc.SolverSettings(eta=0.1, max_iters=300, tol=1e-6)
        batch = bc.run_wf(insts, z0, settings)
        with pytest.raises(DivergenceError) as alone:
            bc.run_wf(insts[1], z0, settings)
        assert batch.runs[1] is None and str(batch.errors[1]) == str(alone.value)
        for k in (0, 2):
            _assert_identical_traces(batch.runs[k], bc.run_wf(insts[k], z0, settings))
            _assert_summaries_from_arrays(batch.runs[k])
        done = [batch.runs[0], batch.runs[2]]
        assert batch.s == 1 and batch.n_iters == sum(tr.n_iters for tr in done)
        assert batch.t.tobytes() == np.concatenate([tr.t for tr in done]).tobytes()

    @pytest.mark.parametrize("tol", [np.inf, 1e-6])
    def test_zero_target_ends_only_its_row(self, tol):
        # Row 1's two signals cancel, so its relative error is undefined; it
        # fails before the first step and the other rows run as alone.
        insts = [bc.make_instance(2, 4, 4, 80, seed=k) for k in range(3)]
        tr = insts[1].truth
        x = tr.x.copy()
        x[1] = -x[0]
        insts[1] = bc.ProblemInstance(b_rows=insts[1].b_rows, a=insts[1].a, y=insts[1].y,
                                      truth=bc.GroundTruth(h=tr.h, x=x, q=tr.q))
        z0 = bc.random_init(2, 4, 4, np.random.default_rng(4))
        settings = bc.SolverSettings(eta=0.1, max_iters=30, tol=tol)
        batch = bc.run_wf(insts, z0, settings)
        assert batch.runs[1] is None
        assert isinstance(batch.errors[1], UndefinedMetricError)
        for k in (0, 2):
            assert batch.errors[k] is None
            _assert_identical_traces(batch.runs[k], bc.run_wf(insts[k], z0, settings))
        with pytest.raises(UndefinedMetricError, match="sums to zero"):
            bc.run_wf(insts[1], z0, settings)
        shared = bc.run_wf(insts[1], z0, settings,
                           sample_weights=np.ones((2, insts[1].m)))
        assert shared.runs == [None, None] and shared.n_iters == 0
        assert all(isinstance(e, UndefinedMetricError) for e in shared.errors)


_TRACE_COLUMNS = ("t", "loss", "relative_error", "dist", "alpha_h", "beta_h",
                  "alpha_x", "beta_x", "rmse_x", "omega", "h", "x")


def _assert_identical_traces(got, want):
    """Every StateTrace column, the final iterate and the stop, bit for bit."""
    assert (got.n_iters, got.stop_reason, got.converged) == \
        (want.n_iters, want.stop_reason, want.converged)
    for name in _TRACE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name
    assert got.final.h.tobytes() == want.final.h.tobytes()
    assert got.final.x.tobytes() == want.final.x.tobytes()


def _assert_summaries_from_arrays(trace):
    """The sizes, final iterate, iteration count and convergence flag agree
    with the trace's arrays and stop reason."""
    assert (trace.s, trace.K) == trace.h.shape[1:] and trace.N == trace.x.shape[2]
    assert type(trace.n_iters) is int and trace.n_iters == trace.t[-1]
    assert trace.final.h.tobytes() == trace.h[-1].tobytes()
    assert trace.final.x.tobytes() == trace.x[-1].tobytes()
    assert trace.converged is (trace.stop_reason == "tol")


def _tol_case():
    """Three runs that stop at iterations 232 (tol), 470 (tol) and 600
    (max_iters): halving the weights halves the step."""
    inst = bc.make_instance(1, 4, 4, 80, seed=3)
    z0 = bc.random_init(1, 4, 4, np.random.default_rng(4))
    weights = np.array([1.0, 0.5, 0.25])[:, None] * np.ones(inst.m)
    return inst, z0, weights


class TestMetricBlocks:
    """run_wf settles metrics per block of log points; any block size must
    give the traces of settling every log point as it comes (size 1)."""

    @pytest.mark.parametrize("cadence", [1, 3])
    @pytest.mark.parametrize("block", [7, 32, "all"])
    def test_block_size_is_invisible(self, monkeypatch, cadence, block):
        inst, z0, weights = _tol_case()
        settings = bc.SolverSettings(eta=0.1, max_iters=600, tol=1e-6,
                                     cadence=cadence)
        monkeypatch.setattr(solver, "_METRIC_BLOCK", 1)
        want_single = bc.run_wf(inst, z0, settings)
        want = bc.run_wf(inst, z0, settings, sample_weights=weights)
        if block == "all":        # every log point in one block
            block = (settings.max_iters + 1) * cadence
        monkeypatch.setattr(solver, "_METRIC_BLOCK", block)
        got_single = bc.run_wf(inst, z0, settings)
        got = bc.run_wf(inst, z0, settings, sample_weights=weights)
        _assert_identical_traces(got_single, want_single)
        assert [run.stop_reason for run in want.runs] == ["tol", "tol", "max_iters"]
        for run, ref in zip(got.runs, want.runs):
            _assert_identical_traces(run, ref)
            _assert_summaries_from_arrays(run)
        assert got.n_iters == want.n_iters
        assert np.array_equal(got.t, want.t)

    @pytest.mark.parametrize("cadence", [1, 3])
    @pytest.mark.parametrize("case", ["weights", "instances"])
    def test_metrics_on_read_match_the_loop(self, monkeypatch, case, cadence):
        # tol = 1e-300 is never met but computes the metrics in the loop;
        # tol = inf leaves them to the first read, one call per trace.
        inst, z0, weights = _tol_case()
        if case == "instances":
            inst = [bc.make_instance(2, 4, 4, 60, seed=k) for k in range(3)]
            starts = [bc.random_init(2, 4, 4, np.random.default_rng(k)) for k in range(3)]
            z0 = bc.Iterate(h=np.stack([z.h for z in starts]),
                            x=np.stack([z.x for z in starts]))
            weights = None
        in_loop = bc.run_wf(inst, z0, bc.SolverSettings(max_iters=70, tol=1e-300,
                                                        cadence=cadence),
                            sample_weights=weights)
        calls = []
        real = metrics.snapshot_metrics
        monkeypatch.setattr(metrics, "snapshot_metrics",
                            lambda *args: calls.append(1) or real(*args))
        on_read = bc.run_wf(inst, z0, bc.SolverSettings(max_iters=70, tol=np.inf,
                                                        cadence=cadence),
                            sample_weights=weights)
        assert calls == []
        for got, want in zip(on_read.runs, in_loop.runs):
            _assert_identical_traces(got, want)
        assert len(calls) == len(on_read.runs)

    def test_tolerance_before_divergence_in_one_block(self):
        # From the truth of a noisy instance the relative error meets tol at
        # t = 0 and, at this step size, the loss diverges at iteration 1.
        # The tolerance comes first, so the run stops there and nothing is
        # raised.
        inst = bc.make_instance(1, 4, 4, 60, sigma2_e=1e-2, seed=3)
        truth = bc.Iterate(h=inst.truth.h.copy(), x=inst.truth.x.copy())
        settings = bc.SolverSettings(eta=1e3, max_iters=50, tol=1e-12)
        trace = bc.run_wf(inst, truth, settings)
        assert trace.stop_reason == "tol" and trace.n_iters == 0
        assert trace.t.tolist() == [0]
        with pytest.raises(DivergenceError, match="iteration 1:"):
            bc.run_wf(inst, truth, bc.SolverSettings(eta=1e3, max_iters=50,
                                                     tol=np.inf))
        # Beside a row that misses the tolerance and then diverges in the
        # same block, the stopped row is not the one reported.
        start = bc.random_init(1, 4, 4, np.random.default_rng(5))
        with pytest.raises(DivergenceError, match="iteration 1:") as single:
            bc.run_wf(inst, start, settings)
        z0 = bc.Iterate(h=np.stack([truth.h, start.h]), x=np.stack([truth.x, start.x]))
        batch = bc.run_wf(inst, z0, settings)
        assert batch.runs[0].stop_reason == "tol" and batch.runs[0].n_iters == 0
        assert batch.runs[1] is None
        assert str(batch.errors[1]) == str(single.value)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_tolerance_before_a_zero_block(self, monkeypatch, rows):
        # From the truth the relative error meets tol at t = 0; the run's x
        # block is zeroed at iteration 3, in the first metric block.  The
        # tolerance comes first at any block size.  With two rows the
        # other starts at random, and at block size 1 it is the only run
        # left by iteration 3, so nothing is zeroed.
        inst = bc.make_instance(1, 4, 4, 60, sigma2_e=1e-2, seed=3)
        start = bc.random_init(1, 4, 4, np.random.default_rng(5))
        z0 = bc.Iterate(h=inst.truth.h.copy(), x=inst.truth.x.copy())
        if rows == 2:
            z0 = bc.Iterate(h=np.stack([z0.h, start.h]), x=np.stack([z0.x, start.x]))
        settings = bc.SolverSettings(eta=0.01, max_iters=20, tol=1e-12)
        real = solver._gradient_and_loss
        calls = []      # one call per iteration, from iteration 0

        def zero_row_0(z, inst, w):
            calls.append(len(z.h))
            if len(calls) == 4 and len(z.h) == rows:
                z.x[0, 0] = 0.0
            return real(z, inst, w)

        monkeypatch.setattr(solver, "_gradient_and_loss", zero_row_0)
        got = {}
        for block in (1, 32):
            monkeypatch.setattr(solver, "_METRIC_BLOCK", block)
            calls.clear()
            got[block] = bc.run_wf(inst, z0, settings)
        assert calls[3] == rows      # row 0 was zeroed at block size 32
        # traces() raises a failed row's error
        runs = {block: out.traces() if rows == 2 else [out] for block, out in got.items()}
        assert runs[1][0].stop_reason == "tol" and runs[1][0].n_iters == 0
        for run, ref in zip(runs[32], runs[1]):
            _assert_identical_traces(run, ref)


def _trace_arrays(trace):
    """The arrays a trace holds: its columns, the metric columns the loop
    computed (none are computed here) and its truth."""
    return [trace.t, trace.loss, trace.h, trace.x, *(trace._metrics or {}).values(),
            trace.truth.h, trace.truth.x, trace.truth.q]


def _staggered_runs():
    """Eight lockstep runs at a tolerance, each stopping in its own block of
    log points: the k-th run's weights are 0.8^k, so its steps shrink."""
    inst = bc.make_instance(1, 4, 4, 80, seed=3)
    z0 = bc.random_init(1, 4, 4, np.random.default_rng(4))
    weights = (0.8 ** np.arange(8))[:, None] * np.ones(inst.m)
    return (inst, z0, bc.SolverSettings(eta=0.1, max_iters=1000, tol=1e-6), weights)


class TestTraceAssembly:
    """run_wf builds its traces one column at a time, dropping each column
    from the settled blocks once every run has its copy, so the traces and
    the blocks overlap by one column, not by all of them."""

    @pytest.mark.parametrize("case", ["long_run", "staggered_runs"])
    def test_peak_stays_near_the_traces(self, case):
        if case == "long_run":
            inst = bc.make_instance(2, 16, 16, 40, seed=1)
            z0 = bc.random_init(2, 16, 16, np.random.default_rng(2))
            trace, peak = traced_peak(bc.run_wf, inst, z0, bc.SolverSettings(max_iters=2000))
            traces = [trace]
            assert len(trace.t) == 2001
        else:
            batch, peak = traced_peak(bc.run_wf, *_staggered_runs())
            traces = batch.runs
            assert len({tr.n_iters // solver._METRIC_BLOCK for tr in traces}) == 8
        held = sum(a.nbytes for tr in traces for a in _trace_arrays(tr))
        # Holding every block until the last copy exists reads about 2x.
        assert peak < 1.6 * held

    def test_columns_own_their_data(self):
        # A view into a settled block would keep every run's blocks alive for
        # as long as one run's trace is kept.
        batch = bc.run_wf(*_staggered_runs())
        for trace in batch.runs:
            assert trace._metrics is not None
            for a in _trace_arrays(trace):
                assert a.base is None


class TestHessianXBlock:
    def test_zero_channel_kills_block(self, small_instance):
        z = bc.Iterate(h=np.zeros((2, 3), dtype=complex),
                       x=np.ones((2, 3), dtype=complex))
        hess = brute_force_hessian_x_block(z, small_instance, 0)
        assert np.abs(hess).max() == 0.0

    def test_hermitian(self, small_instance, small_iterate):
        hess = brute_force_hessian_x_block(small_iterate, small_instance, 1)
        assert np.abs(hess - hess.conj().T).max() < 1e-12

    def test_second_difference_matches_quadratic_form(self):
        inst = bc.make_instance(1, 4, 4, 30, seed=3)
        z = bc.random_init(1, 4, 4, np.random.default_rng(4))
        hess = brute_force_hessian_x_block(z, inst, 0)
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
        # With h fixed the loss is quadratic in x_i, so its second difference
        # at any step equals the per-sample loop's quadratic form.
        inst, oracle, z, w = _kernel_case(m, layout, weights)
        _, dx = draw_direction(np.random.default_rng(5), inst.s, inst.K, inst.N,
                               scale=1.0)
        for i in range(inst.s):
            zp = bc.Iterate(h=z.h, x=z.x.copy())
            zm = bc.Iterate(h=z.h, x=z.x.copy())
            zp.x[i] += dx[i]
            zm.x[i] -= dx[i]
            fd2 = (bc.loss(zp, inst, w) - 2 * bc.loss(z, inst, w)
                   + bc.loss(zm, inst, w))
            hess = brute_force_hessian_x_block(z, oracle, i, sample_weights=w)
            qf = hessian_quadratic_form(hess, dx[i])
            assert abs(fd2 - qf) / abs(qf) < 1e-10

    def test_scalar_hand_case(self):
        inst = bc.make_instance(1, 2, 1, 2, seed=6)
        z = bc.random_init(1, 2, 1, np.random.default_rng(7))
        hess = brute_force_hessian_x_block(z, inst, 0)
        d_hand = sum(abs(inst.b_rows[j] @ z.h[0]) ** 2 * abs(inst.a[0, j, 0]) ** 2
                     for j in range(2))
        assert abs(hess[0, 0] - d_hand) < 1e-14
        assert abs(hess[1, 1] - d_hand) < 1e-14
