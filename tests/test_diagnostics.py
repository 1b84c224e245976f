import csv

import numpy as np
import pytest

import blaircomp as bc
from blaircomp.ensemble import _apply_b
from blaircomp.errors import ParameterError

from helpers import brute_force_loss


def _model_terms(inst):
    bh = _apply_b(inst.b_rows, inst.truth.h)
    xa = np.einsum("imn,in->im", inst.a, inst.truth.x.conj())
    return bh * xa


@pytest.fixture(scope="module")
def canonical_instance():
    return bc.canonicalize_instance(bc.make_instance(2, 6, 6, 60, seed=31))


class TestCanonicalize:
    def test_truth_moves_to_first_basis_vector(self, canonical_instance):
        x = canonical_instance.truth.x
        np.testing.assert_allclose(x[:, 0], canonical_instance.truth.q, atol=1e-13)
        assert np.abs(x[:, 1:]).max() == 0.0

    def test_model_values_preserved(self):
        inst = bc.make_instance(2, 6, 6, 60, seed=31)
        inst_c = bc.canonicalize_instance(inst)
        np.testing.assert_allclose(_model_terms(inst_c), _model_terms(inst),
                                   atol=1e-13)
        np.testing.assert_array_equal(inst_c.y, inst.y)

    def test_rotation_is_unitary_on_design(self):
        inst = bc.make_instance(1, 4, 5, 20, seed=32)
        inst_c = bc.canonicalize_instance(inst)
        np.testing.assert_allclose(np.linalg.norm(inst_c.a, axis=2),
                                   np.linalg.norm(inst.a, axis=2), atol=1e-12)


class TestSignFlips:
    def test_unit_modulus_and_determinism(self):
        xi1 = bc.sample_sign_flips(3, 50, np.random.default_rng(8))
        xi2 = bc.sample_sign_flips(3, 50, np.random.default_rng(8))
        np.testing.assert_allclose(np.abs(xi1), 1.0, atol=1e-14)
        assert np.array_equal(xi1, xi2)

    def test_identity_flips_leave_instance_unchanged(self, canonical_instance):
        inst_id = bc.apply_sign_flips(canonical_instance,
                                      np.ones((2, 60), dtype=complex))
        assert np.abs(inst_id.a - canonical_instance.a).max() == 0.0
        expected_b = np.broadcast_to(canonical_instance.b_rows[None],
                                     (2, 60, 6))
        assert np.abs(inst_id.b_rows - expected_b).max() == 0.0

    def test_measurement_identity(self, canonical_instance):
        inst_sgn, xi = bc.sign_flip_ensemble(canonical_instance,
                                             np.random.default_rng(9))
        np.testing.assert_allclose(np.abs(xi), 1.0, atol=1e-14)
        dev = np.abs(_model_terms(inst_sgn) - _model_terms(canonical_instance))
        assert dev.max() < 1e-12

    def test_non_canonical_truth_rejected(self):
        inst = bc.make_instance(2, 6, 6, 60, seed=31)
        with pytest.raises(ParameterError):
            bc.apply_sign_flips(inst, np.ones((2, 60), dtype=complex))

    def test_flipped_loss_consistent_with_brute_force(self, canonical_instance):
        inst_sgn, _ = bc.sign_flip_ensemble(canonical_instance,
                                            np.random.default_rng(10))
        z = bc.random_init(2, 6, 6, np.random.default_rng(11))
        lv = bc.loss(z, inst_sgn)
        assert abs(lv - brute_force_loss(z, inst_sgn)) / lv < 1e-12


class TestLeaveOneOut:
    def test_single_sample_dropped_freezes_run(self):
        inst = bc.make_instance(1, 1, 3, 1, seed=5)
        z0 = bc.random_init(1, 1, 3, np.random.default_rng(6))
        run = bc.leave_one_out_run(inst, 0, z0, bc.SolverSettings(max_iters=5))
        assert run.trace.loss[-1] == 0.0
        assert np.array_equal(run.trace.final.h, z0.h)
        assert np.array_equal(run.trace.final.x, z0.x)

    def test_invalid_index_rejected(self, small_instance, small_iterate):
        with pytest.raises(IndexError):
            bc.leave_one_out_run(small_instance, 10, small_iterate,
                                 bc.SolverSettings(max_iters=2))

    def test_gradient_additivity(self):
        inst = bc.make_instance(2, 4, 4, 30, seed=7)
        z = bc.random_init(2, 4, 4, np.random.default_rng(8))
        w_loo = np.ones(30)
        w_loo[13] = 0.0
        w_only = np.zeros(30)
        w_only[13] = 1.0
        g_full = bc.wirtinger_gradient(z, inst)
        g_loo = bc.wirtinger_gradient(z, inst, sample_weights=w_loo)
        g_only = bc.wirtinger_gradient(z, inst, sample_weights=w_only)
        assert np.abs(g_loo.h + g_only.h - g_full.h).max() < 1e-12
        assert np.abs(g_loo.x + g_only.x - g_full.x).max() < 1e-12

    def test_shared_initialization(self):
        inst = bc.make_instance(1, 4, 4, 20, seed=9)
        z0 = bc.random_init(1, 4, 4, np.random.default_rng(10))
        settings = bc.SolverSettings(max_iters=3, tol=np.inf, keep_iterates=True)
        run = bc.leave_one_out_run(inst, 4, z0, settings)
        assert np.array_equal(run.trace.iterates[0].h, z0.h)
        assert np.array_equal(run.trace.iterates[0].x, z0.x)

    def test_vacuous_drop_reproduces_base(self):
        inst = bc.make_instance(1, 4, 4, 20, seed=11)
        z0 = bc.random_init(1, 4, 4, np.random.default_rng(12))
        settings = bc.SolverSettings(max_iters=10, tol=np.inf)
        w0 = np.ones(20)
        w0[7] = 0.0
        base = bc.run_wf(inst, z0, settings, sample_weights=w0)
        run = bc.leave_one_out_run(inst, 7, z0, settings, base_weights=w0)
        assert np.array_equal(base.loss, run.trace.loss)
        assert np.array_equal(base.final.h, run.trace.final.h)


@pytest.fixture(scope="module")
def small_suite():
    inst = bc.canonicalize_instance(bc.make_instance(2, 6, 6, 120, seed=[700, 0]))
    z0 = bc.random_init(2, 6, 6, np.random.default_rng([701, 0]))
    settings = bc.SolverSettings(eta=0.1, max_iters=25, tol=np.inf,
                                 keep_iterates=True)
    rng = np.random.default_rng(702)
    loo = bc.select_loo_indices(inst.m, 3, rng)
    base, aux, xi = bc.run_diagnostics_suite(inst, z0, settings, loo, rng)
    report = bc.measure_hypotheses(base, aux, inst.truth, inst)
    return inst, base, aux, report


class TestMeasureHypotheses:
    def test_distance_quantities_vanish_at_start(self, small_suite):
        _, _, _, report = small_suite
        for name in ("loo_dist", "loo_signal_h", "loo_signal_x", "sign_dist_h",
                     "sign_dist_x", "double_diff_h", "double_diff_x"):
            assert np.nanmax(getattr(report, name)[0]) < 1e-7, name

    def test_quantities_finite_and_nonnegative(self, small_suite):
        _, _, _, report = small_suite
        for name in ("loo_dist", "sign_dist_h", "sign_dist_x", "norm_min",
                     "norm_max", "incoh_x", "incoh_h"):
            arr = getattr(report, name)
            assert np.all(np.isfinite(arr)), name
            assert np.all(arr >= 0), name

    def test_incoherence_scales_exceed_measurements(self, small_suite):
        # the measured maxima should sit within a small multiple of the
        # comparison scales at this size
        _, _, _, report = small_suite
        assert np.nanmax(report.incoh_x) <= 5.0 * report.incoh_x_scale
        assert np.nanmax(report.incoh_h) <= 5.0 * report.incoh_h_scale

    def test_auxiliary_runs_stay_near_base(self):
        # at the m = 50K desk scale the leave-one-out trajectories track the
        # base run well inside the perpendicular-component envelope for every
        # iteration up to T_gamma (a wider window than the shared start)
        for seed in range(3):
            inst = bc.canonicalize_instance(
                bc.make_instance(2, 8, 8, 400, seed=[1000, seed]))
            z0 = bc.random_init(2, 8, 8, np.random.default_rng([2000, seed]))
            settings = bc.SolverSettings(eta=0.1, max_iters=60, tol=np.inf,
                                         keep_iterates=True)
            rng = np.random.default_rng([702, seed])
            loo = bc.select_loo_indices(inst.m, 4, rng)
            base, aux, _ = bc.run_diagnostics_suite(inst, z0, settings, loo, rng)
            report = bc.measure_hypotheses(base, aux, inst.truth, inst)
            stage = bc.detect_stages(base)
            t_gamma = stage.T_gamma if stage.T_gamma is not None else base.t[-1]
            sel = report.t <= t_gamma
            bound = 0.1 * (base.beta_h.sum(axis=1)
                           + base.beta_x.sum(axis=1))[:len(report.t)]
            assert np.all(np.nanmax(report.loo_dist, axis=1)[sel] <= bound[sel])

    def test_csv_round_trip(self, small_suite, tmp_path):
        _, _, _, report = small_suite
        path = tmp_path / "hyp.csv"
        report.write_csv(str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        quantities = {row["quantity"] for row in rows}
        assert {"loo_dist", "sign_dist_h", "double_diff_x", "incoh_h",
                "norm_min"} <= quantities
        t0_vals = [float(r["value"]) for r in rows
                   if r["quantity"] == "loo_dist" and r["t"] == "0"]
        assert max(t0_vals) < 1e-7

    def test_matches_per_pair_alignment(self, small_suite):
        inst, base, aux, report = small_suite
        truth = inst.truth
        loo = [r for r in aux if r.kind == "loo"]
        sign = next(r for r in aux if r.kind == "sign")
        sign_loo = {r.index: r for r in aux if r.kind == "sign_loo"}

        def aligned(z, i, h_ref, x_ref):
            res = bc.align_pair(z.h[i], z.x[i], h_ref, x_ref)
            return z.h[i] / np.conj(res.omega), res.omega * z.x[i], res.cost

        for ti in (1, len(report.t) // 2, len(report.t) - 1):
            for i in range(truth.s):
                h_t, x_t, _ = aligned(base.iterates[ti], i, truth.h[i], truth.x[i])
                h_chk, x_chk, _ = aligned(sign.trace.iterates[ti], i, h_t, x_t)
                dists, signals, double_diffs = [], [], []
                for run in loo:
                    h_hat, x_hat, cost = aligned(run.trace.iterates[ti], i, h_t, x_t)
                    h_sl, _, _ = aligned(sign_loo[run.index].trace.iterates[ti], i,
                                         h_chk, x_chk)
                    dists.append(np.sqrt(cost / (2.0 * truth.q[i] ** 2)))
                    signals.append(abs(np.vdot(truth.x[i], x_hat - x_t)) / truth.q[i])
                    double_diffs.append(np.linalg.norm(h_t - h_hat - h_chk + h_sl))
                assert report.loo_dist[ti, i] == pytest.approx(max(dists), rel=1e-9)
                assert report.loo_signal_x[ti, i] == pytest.approx(max(signals), rel=1e-9)
                assert report.sign_dist_x[ti, i] == pytest.approx(
                    np.linalg.norm(x_chk - x_t), rel=1e-9)
                assert report.double_diff_h[ti, i] == pytest.approx(
                    max(double_diffs), rel=1e-9)

    def test_requires_kept_iterates(self):
        inst = bc.canonicalize_instance(bc.make_instance(1, 3, 3, 12, seed=3))
        z0 = bc.random_init(1, 3, 3, np.random.default_rng(4))
        with pytest.raises(ParameterError):
            bc.run_diagnostics_suite(inst, z0, bc.SolverSettings(max_iters=2),
                                     [0], np.random.default_rng(5))


class TestConcentrationReport:
    def test_zero_design_tensor(self):
        inst = bc.make_instance(1, 2, 3, 8, seed=13)
        zeroed = bc.ProblemInstance(s=1, K=2, N=3, m=8, b_rows=inst.b_rows,
                                    a=np.zeros_like(inst.a), truth=inst.truth,
                                    y=inst.y)
        rep = bc.concentration_report(zeroed)
        assert rep.max_abs_first_entry == 0.0
        assert rep.max_design_norm == 0.0
        assert rep.first_entry_ok and rep.design_norm_ok

    def test_sampled_instance_within_bounds(self):
        rep = bc.concentration_report(bc.make_instance(1, 4, 16, 1000, seed=14))
        assert rep.first_entry_ok and rep.design_norm_ok
        assert rep.incoherence >= 1.0

    def test_json_fields(self):
        doc = bc.concentration_report(bc.make_instance(1, 2, 2, 10, seed=15))
        keys = set(doc.to_json_dict())
        assert {"max_abs_first_entry", "first_entry_bound", "incoherence",
                "design_norm_bound"} <= keys
