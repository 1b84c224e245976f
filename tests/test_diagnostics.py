import csv
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import blaircomp as bc
from blaircomp import cli, diagnostics, metrics
from blaircomp.diagnostics import _loo_weights
from blaircomp.errors import ParameterError

from helpers import (brute_force_loss, explicit_sign_flip, incoherence_reference,
                     traced_peak, write_hypotheses_rows)


def _model_terms(inst):
    bh = inst.truth.h @ inst.b_rows.T
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

    def test_sign_ensemble_is_left_unchanged(self, canonical_instance):
        xi = bc.sample_sign_flips(2, 60, np.random.default_rng(12))
        inst_sgn = bc.apply_sign_flips(canonical_instance, xi)
        again = bc.canonicalize_instance(inst_sgn)
        assert np.array_equal(again.a, inst_sgn.a)
        assert np.array_equal(again.truth.x, inst_sgn.truth.x)
        assert again.b_rows is inst_sgn.b_rows


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
        assert inst_id.b_rows.shape == canonical_instance.b_rows.shape
        assert np.array_equal(inst_id.b_rows, canonical_instance.b_rows)

    def test_measurement_identity(self, canonical_instance):
        xi = bc.sample_sign_flips(2, 60, np.random.default_rng(9))
        inst_sgn = bc.apply_sign_flips(canonical_instance, xi)
        np.testing.assert_allclose(np.abs(xi), 1.0, atol=1e-14)
        dev = np.abs(_model_terms(inst_sgn) - _model_terms(canonical_instance))
        assert dev.max() < 1e-12

    @pytest.mark.parametrize("shape", [(2, 59), (1, 60), (60,), (2, 60, 1)])
    def test_flips_of_another_shape_rejected(self, canonical_instance, shape):
        with pytest.raises(ParameterError, match="sign flips shape"):
            bc.apply_sign_flips(canonical_instance, np.ones(shape, dtype=complex))

    def test_non_canonical_truth_rejected(self):
        inst = bc.make_instance(2, 6, 6, 60, seed=31)
        with pytest.raises(ParameterError):
            bc.apply_sign_flips(inst, np.ones((2, 60), dtype=complex))

    def test_flipped_loss_consistent_with_brute_force(self, canonical_instance):
        xi = bc.sample_sign_flips(2, 60, np.random.default_rng(10))
        inst_sgn = bc.apply_sign_flips(canonical_instance, xi)
        oracle = explicit_sign_flip(canonical_instance, xi)
        z = bc.random_init(2, 6, 6, np.random.default_rng(11))
        lv = bc.loss(z, inst_sgn)
        assert abs(lv - brute_force_loss(z, oracle)) / lv < 1e-12


class TestLeaveOneOut:
    def test_single_sample_dropped_freezes_run(self):
        inst = bc.make_instance(1, 1, 3, 1, seed=5)
        z0 = bc.random_init(1, 1, 3, np.random.default_rng(6))
        trace = bc.run_wf(inst, z0, bc.SolverSettings(max_iters=5),
                          sample_weights=_loo_weights(inst.m, [0])[1])
        assert trace.loss[-1] == 0.0
        assert np.array_equal(trace.final.h, z0.h)
        assert np.array_equal(trace.final.x, z0.x)

    def test_invalid_index_rejected(self, small_instance):
        for index in (small_instance.m, -1, 2.5, True):
            with pytest.raises(ParameterError):
                _loo_weights(small_instance.m, [index])
        for count in (-1, 2.5, True):
            with pytest.raises(ParameterError, match="count"):
                bc.select_loo_indices(small_instance.m, count, np.random.default_rng(0))

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
        settings = bc.SolverSettings(max_iters=3, tol=np.inf)
        trace = bc.run_wf(inst, z0, settings,
                          sample_weights=_loo_weights(inst.m, [4])[1])
        assert np.array_equal(trace.h[0], z0.h)
        assert np.array_equal(trace.x[0], z0.x)

    def test_vacuous_drop_reproduces_base(self):
        # Row 1 drops sample 7 from a base row that already gives it weight 0.
        inst = bc.make_instance(1, 4, 4, 20, seed=11)
        z0 = bc.random_init(1, 4, 4, np.random.default_rng(12))
        settings = bc.SolverSettings(max_iters=10, tol=np.inf)
        w0 = np.ones(20)
        w0[7] = 0.0
        base = bc.run_wf(inst, z0, settings, sample_weights=w0)
        rows = np.stack([w0, w0 * _loo_weights(inst.m, [7])[1]])
        for trace in bc.run_wf(inst, z0, settings, sample_weights=rows).traces():
            assert np.array_equal(base.loss, trace.loss)
            assert np.array_equal(base.final.h, trace.final.h)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_suite_base_row_is_the_single_run(self, s):
        # The suite's 1 + L rows share one design, so the access-row products
        # of every row go through one GEMM; the base row keeps the bits of
        # the run on its own.
        inst = bc.canonicalize_instance(bc.make_instance(s, 5, 4, 48, seed=[19, s]))
        z0 = bc.random_init(s, 5, 4, np.random.default_rng([20, s]))
        settings = bc.SolverSettings(eta=0.1, max_iters=30, tol=np.inf)
        single = bc.run_wf(inst, z0, settings)
        for n_drop in (0, 1, 8):
            loo = bc.select_loo_indices(inst.m, n_drop, np.random.default_rng(21))
            base = bc.run_diagnostics_suite(inst, z0, settings, loo,
                                            np.random.default_rng(22))[0][0]
            assert base.loss.tobytes() == single.loss.tobytes()
            assert base.h.tobytes() == single.h.tobytes()
            assert base.x.tobytes() == single.x.tobytes()

    def test_dropped_sample_data_is_ignored(self):
        # The leave-one-out run never reads the dropped sample's design
        # vectors or measurement.
        inst = bc.make_instance(2, 4, 4, 30, seed=13)
        a, y = inst.a.copy(), inst.y.copy()
        a[:, 5] *= 7.0
        y[5] += 3.0 - 2.0j
        changed = bc.ProblemInstance(b_rows=inst.b_rows, a=a, truth=inst.truth, y=y)
        z0 = bc.random_init(2, 4, 4, np.random.default_rng(14))
        settings = bc.SolverSettings(max_iters=20, tol=np.inf)
        w = _loo_weights(inst.m, [5])[1]
        ref = bc.run_wf(inst, z0, settings, sample_weights=w)
        trace = bc.run_wf(changed, z0, settings, sample_weights=w)
        assert np.array_equal(ref.loss, trace.loss)
        assert np.array_equal(ref.h, trace.h) and np.array_equal(ref.x, trace.x)

    def test_suite_raises_the_base_run_failure(self):
        # Every row diverges; the suite raises the base row's error, the one
        # the base run alone raises.
        inst = bc.canonicalize_instance(bc.make_instance(1, 4, 4, 40, seed=11))
        z0 = bc.random_init(1, 4, 4, np.random.default_rng(12))
        settings = bc.SolverSettings(eta=1e6, max_iters=10, tol=np.inf)
        with pytest.raises(bc.DivergenceError) as alone:
            bc.run_wf(inst, z0, settings)
        with pytest.raises(bc.DivergenceError) as suite:
            bc.run_diagnostics_suite(inst, z0, settings, [3, 7],
                                     np.random.default_rng(0))
        assert str(suite.value) == str(alone.value)

    def test_row_groups_match_one_call(self, monkeypatch):
        # L = 40 with a tolerance: the base runs alone, then the 40 plain
        # and 41 flipped rows go in calls of 32 and 8 and of 32 and 9, and
        # give the traces of one call per family, bit for bit.  Every row
        # stops where the base met the tolerance.
        inst = bc.canonicalize_instance(bc.make_instance(2, 4, 4, 60, seed=23))
        z0 = bc.random_init(2, 4, 4, np.random.default_rng(24))
        settings = bc.SolverSettings(eta=0.1, max_iters=150, tol=1e-3)
        loo = bc.select_loo_indices(inst.m, 40, np.random.default_rng(25))
        rows = []
        real = diagnostics.run_wf

        def counted(inst, z0, settings, sample_weights=None):
            rows.append(None if sample_weights is None else len(sample_weights))
            return real(inst, z0, settings, sample_weights=sample_weights)

        monkeypatch.setattr(diagnostics, "run_wf", counted)
        grouped = bc.run_diagnostics_suite(inst, z0, settings, loo,
                                           np.random.default_rng(26))
        monkeypatch.setattr(diagnostics, "_SUITE_ROWS", 41)
        whole = bc.run_diagnostics_suite(inst, z0, settings, loo,
                                         np.random.default_rng(26))
        assert rows == [None, 32, 8, 32, 9, None, 40, 41]
        assert grouped[0][0].converged and grouped[0][0].n_iters < settings.max_iters
        for got, want in zip([*grouped[0], *grouped[1]], [*whole[0], *whole[1]]):
            assert got.stop_reason == want.stop_reason
            assert got.n_iters == grouped[0][0].n_iters
            for name in ("t", "loss", "h", "x", "relative_error", "omega"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_every_row_runs_to_the_base_stop(self):
        # Rows that would meet the tolerance on their own stop before the
        # base (the flipped rows near t = 70, the base at t = 90); they run
        # on to the base's stop instead, so the report covers every point
        # the base logged.
        inst = bc.canonicalize_instance(bc.make_instance(2, 4, 4, 60, seed=56))
        z0 = bc.random_init(2, 4, 4, np.random.default_rng(57))
        settings = bc.SolverSettings(eta=0.1, max_iters=120, tol=1e-2)
        loo = bc.select_loo_indices(inst.m, 4, np.random.default_rng(58))
        plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, loo,
                                                  np.random.default_rng(59))
        base = plain[0]
        assert base.converged and base.n_iters < settings.max_iters
        for trace in [*plain[1:], *flipped]:
            assert trace.t.tobytes() == base.t.tobytes()
            assert trace.stop_reason == "max_iters"
        report = bc.measure_hypotheses(plain, flipped, inst)
        assert len(report.t) == len(base.t)

    def test_tolerance_met_at_the_start(self):
        # tol = 10 holds at z0: the base stops at t = 0, and the rows take
        # the one step a run needs, whose point the report does not read.
        # The report is the first log point of a one-step suite's.
        inst = bc.canonicalize_instance(bc.make_instance(2, 4, 4, 60, seed=13))
        z0 = bc.random_init(2, 4, 4, np.random.default_rng(14))

        def suite(**kw):
            plain, flipped = bc.run_diagnostics_suite(
                inst, z0, bc.SolverSettings(eta=0.1, **kw), [2, 5, 9],
                np.random.default_rng(15))
            return plain, bc.measure_hypotheses(plain, flipped, inst)

        plain, report = suite(max_iters=50, tol=10.0)
        _, one_step = suite(max_iters=1, tol=np.inf)
        assert [tr.n_iters for tr in plain] == [0, 1, 1, 1]
        assert report.t.tolist() == [0]
        for f in fields(report):
            got, want = getattr(report, f.name), getattr(one_step, f.name)
            want = want if f.name.endswith("_scale") else want[:1]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name

    def test_suite_aligns_only_the_rows_it_reads(self, monkeypatch):
        # With no tolerance the runs align nothing to the truth; the first
        # read of a metric aligns the base run's log points, once.  With a
        # tolerance only the base run tests it: the suite aligns the pairs
        # of the base run alone, and the base keeps their metrics.
        inst = bc.canonicalize_instance(bc.make_instance(2, 4, 4, 60, seed=13))
        z0 = bc.random_init(2, 4, 4, np.random.default_rng(14))
        settings = bc.SolverSettings(eta=0.1, max_iters=20, tol=np.inf)
        calls = {"align_pair": 0, "snapshot_metrics": 0}

        def count(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(metrics, name, counted)

        for name in calls:
            count(name, getattr(metrics, name))
        plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, [2, 5, 9],
                                                  np.random.default_rng(15))
        assert calls == {"align_pair": 0, "snapshot_metrics": 0}
        plain[0].relative_error
        plain[0].omega
        assert calls == {"align_pair": 1, "snapshot_metrics": 1}

        pairs = []
        real = metrics.align_pair

        def count_pairs(h, *args):
            pairs.append(h[..., 0].size)
            return real(h, *args)

        monkeypatch.setattr(metrics, "align_pair", count_pairs)
        settings = replace(settings, max_iters=60, tol=0.1)
        base = bc.run_wf(inst, z0, settings)
        assert base.converged and base.n_iters < settings.max_iters
        alone = sum(pairs)
        pairs.clear()
        plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, [2, 5, 9],
                                                  np.random.default_rng(15))
        plain[0].relative_error
        assert sum(pairs) == alone

    def test_all_dropped_samples_give_the_max_over_single_drops(self):
        # loo_samples = m: each leave-one-out column is the max, over l, of
        # the suites that drop sample l alone, bit for bit.  Equal-seeded
        # streams draw the same sign flips.
        inst = bc.canonicalize_instance(bc.make_instance(2, 3, 3, 12, seed=16))
        z0 = bc.random_init(2, 3, 3, np.random.default_rng(17))
        settings = bc.SolverSettings(eta=0.1, max_iters=20, tol=np.inf)

        def report(indices):
            plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, indices,
                                                      np.random.default_rng(18))
            return bc.measure_hypotheses(plain, flipped, inst)

        every = report(bc.select_loo_indices(inst.m, inst.m, np.random.default_rng(0)))
        singles = [report([l]) for l in range(inst.m)]
        for name in ("loo_dist", "loo_signal_h", "loo_signal_x", "double_diff_h",
                     "double_diff_x"):
            want = np.max([getattr(r, name) for r in singles], axis=0)
            assert getattr(every, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n_drop", [1, 2, 3, 5, 12])
    def test_loo_columns_do_not_depend_on_the_row_blocks(self, single_drops, n_drop):
        # One row, a whole block of two rows, ragged last blocks and L = m:
        # each leave-one-out column is the max over the single-drop suites
        # of the dropped samples, bit for bit.
        report, singles = single_drops
        indices = bc.select_loo_indices(len(singles), n_drop, np.random.default_rng(n_drop))
        every = report(indices)
        for name in ("loo_dist", "loo_signal_h", "loo_signal_x", "double_diff_h",
                     "double_diff_x"):
            want = np.max([getattr(singles[l], name) for l in indices], axis=0)
            assert getattr(every, name).tobytes() == want.tobytes(), name


@pytest.fixture(scope="module")
def single_drops():
    """The hypotheses of suites on one instance, as a function of the dropped
    samples, and the reports of every single drop."""
    inst = bc.canonicalize_instance(bc.make_instance(2, 3, 3, 12, seed=19))
    z0 = bc.random_init(2, 3, 3, np.random.default_rng(20))
    settings = bc.SolverSettings(eta=0.1, max_iters=20, tol=np.inf)

    def report(indices):
        plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, indices,
                                                  np.random.default_rng(21))
        return bc.measure_hypotheses(plain, flipped, inst)

    return report, [report([l]) for l in range(inst.m)]


@pytest.fixture(scope="module")
def small_suite():
    inst = bc.canonicalize_instance(bc.make_instance(2, 6, 6, 120, seed=[700, 0]))
    z0 = bc.random_init(2, 6, 6, np.random.default_rng([701, 0]))
    settings = bc.SolverSettings(eta=0.1, max_iters=25, tol=np.inf)
    rng = np.random.default_rng(702)
    loo = bc.select_loo_indices(inst.m, 3, rng)
    plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, loo, rng)
    report = bc.measure_hypotheses(plain, flipped, inst)
    return inst, plain, flipped, report


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
            settings = bc.SolverSettings(eta=0.1, max_iters=60, tol=np.inf)
            rng = np.random.default_rng([702, seed])
            loo = bc.select_loo_indices(inst.m, 4, rng)
            plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, loo, rng)
            report = bc.measure_hypotheses(plain, flipped, inst)
            base = plain[0]
            stage = bc.detect_stages(base)
            t_gamma = stage.T_gamma if stage.T_gamma is not None else base.t[-1]
            sel = report.t <= t_gamma
            bound = 0.1 * (base.beta_h.sum(axis=1)
                           + base.beta_x.sum(axis=1))[:len(report.t)]
            assert np.all(np.nanmax(report.loo_dist, axis=1)[sel] <= bound[sel])

    def test_csv_round_trip(self, small_suite, tmp_path):
        _, _, _, report = small_suite
        path = tmp_path / "hyp.csv"
        cli._write_hypotheses_csv(str(path), report)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        quantities = {row["quantity"] for row in rows}
        assert {"loo_dist", "sign_dist_h", "double_diff_x", "incoh_h",
                "norm_min"} <= quantities
        t0_vals = [float(r["value"]) for r in rows
                   if r["quantity"] == "loo_dist" and r["t"] == "0"]
        assert max(t0_vals) < 1e-7

    @pytest.mark.parametrize("rows", [4, 1])
    def test_csv_bytes_match_csv_writer(self, small_suite, tmp_path, rows):
        # one row fewer than the suite's four leaves every loo column NaN
        inst, plain, flipped, _ = small_suite
        report = bc.measure_hypotheses(plain[:rows], flipped[:rows], inst)
        cli._write_hypotheses_csv(str(tmp_path / "fast.csv"), report)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "quantity", "node", "value", "scale"])
            for ti, t in enumerate(report.t):
                for name in ("loo_dist", "loo_signal_h", "loo_signal_x",
                             "sign_dist_h", "sign_dist_x", "double_diff_h",
                             "double_diff_x", "norm_ratio_h", "norm_ratio_x"):
                    for i, v in enumerate(getattr(report, name)[ti]):
                        writer.writerow([int(t), name, i, f"{v:.17g}", ""])
                for name, scale in (("norm_min", None), ("norm_max", None),
                                    ("incoh_x", report.incoh_x_scale),
                                    ("incoh_h", report.incoh_h_scale)):
                    writer.writerow([int(t), name, -1, f"{getattr(report, name)[ti]:.17g}",
                                     "" if scale is None else f"{scale:.17g}"])
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "ref.csv").read_bytes()
        assert (b",nan," in fast) == (rows == 1)

    @pytest.mark.parametrize("s, n_drop, n_t, shape", [
        (2, 8, None, (5, 4, 60, 12)), (2, 0, None, (5, 4, 60, 12)),
        (1, 3, None, (5, 4, 60, 12)), (2, 2, 1, (5, 4, 60, 12)),
        (2, 8, None, (8, 8, 400, 80))],
        ids=["loo_8", "loo_0", "one_node", "one_iteration", "suite_shape"])
    def test_csv_bytes_match_per_row_writer(self, tmp_path, s, n_drop, n_t, shape):
        # shape is (K, N, m, max_iters); "suite_shape" is the benchmark's
        # diagnostics-suite run.  The incoherence columns also match the
        # products of one GEMM per iteration on the truth-aligned base run.
        K, N, m, max_iters = shape
        inst = bc.canonicalize_instance(bc.make_instance(s, K, N, m, seed=[703, s]))
        z0 = bc.random_init(s, K, N, np.random.default_rng(704))
        settings = bc.SolverSettings(eta=0.1, max_iters=max_iters, tol=np.inf)
        rng = np.random.default_rng(705)
        loo = bc.select_loo_indices(inst.m, n_drop, rng)
        plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, loo, rng)
        report = bc.measure_hypotheses(plain, flipped, inst)
        want_x, want_h = incoherence_reference(plain[0], inst)
        assert report.incoh_x.tobytes() == want_x.tobytes()
        assert report.incoh_h.tobytes() == want_h.tobytes()
        if n_t is not None:
            report = replace(report, **{f.name: getattr(report, f.name)[:n_t]
                                        for f in fields(report)
                                        if not f.name.endswith("_scale")})
        cli._write_hypotheses_csv(str(tmp_path / "fast.csv"), report)
        write_hypotheses_rows(report, str(tmp_path / "ref.csv"))
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "ref.csv").read_bytes()
        assert fast.count(b"\r\n") == 1 + len(report.t) * (9 * s + 4)
        assert (b",nan," in fast) == (n_drop == 0)

    def test_csv_writer_peak_memory_is_bounded(self, tmp_path):
        # A 2000-iteration run at s = 2: one '%' over the whole file holds
        # every value as a Python float, its tuple and its text at once,
        # about 7 MiB; chunked, the writer holds its (t, value) table and
        # one chunk.
        rng = np.random.default_rng(12)
        n_t, s = 2001, 2
        report = bc.HypothesisReport(**{
            f.name: (np.arange(n_t) if f.name == "t" else float(rng.uniform())
                     if f.name.endswith("_scale") else
                     rng.uniform(size=(n_t, s) if f.name.startswith(
                         ("loo", "sign", "double", "norm_ratio")) else n_t))
            for f in fields(bc.HypothesisReport)})
        arrays = sum(v.nbytes for v in asdict(report).values()
                     if isinstance(v, np.ndarray))
        _, peak = traced_peak(cli._write_hypotheses_csv, str(tmp_path / "h.csv"), report)
        assert peak < 3 * arrays + 2**20

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("n_t", [1, 32, 33, 71])
    def test_incoherence_blocks_match_one_pass(self, s, n_t):
        # One block, four exact 8-point blocks and ragged last blocks.  A run
        # logs at least two points, so the one-point case cuts the base run.
        inst = bc.canonicalize_instance(bc.make_instance(s, 6, 6, 120, seed=[706, s]))
        z0 = bc.random_init(s, 6, 6, np.random.default_rng(707))
        settings = bc.SolverSettings(eta=0.1, max_iters=max(n_t - 1, 1), tol=np.inf)
        plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, [3, 50],
                                                  np.random.default_rng(708))
        base = replace(plain[0], _metrics=None, **{name: getattr(plain[0], name)[:n_t]
                                                   for name in ("t", "loss", "h", "x")})
        report = bc.measure_hypotheses([base, *plain[1:]], flipped, inst)
        want_x, want_h = incoherence_reference(base, inst)
        assert len(report.t) == n_t
        assert report.incoh_x.tobytes() == want_x.tobytes()
        assert report.incoh_h.tobytes() == want_h.tobytes()

    def test_peak_memory_stays_below_one_factor_array(self):
        # 301 log points, over 38 blocks: the incoherence pass holds one
        # block's bh and xa, a quotient and its modulus, 3.5 blocks of (s, m)
        # complex factors, with the base run's metrics 3.85.  Still holding
        # the last block's factors through the next call reads 4.57.
        s, m = 2, 2000
        inst = bc.canonicalize_instance(bc.make_instance(s, 4, 4, m, seed=[709, 0]))
        z0 = bc.random_init(s, 4, 4, np.random.default_rng(710))
        settings = bc.SolverSettings(eta=0.1, max_iters=300, tol=np.inf)
        plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, [7, 900],
                                                  np.random.default_rng(711))
        report, peak = traced_peak(bc.measure_hypotheses, plain, flipped, inst)
        assert len(report.t) == 301
        block = diagnostics._INCOH_BLOCK * s * m * np.dtype(complex).itemsize
        assert peak < 4.2 * block

    def test_peak_memory_does_not_grow_with_dropped_samples(self):
        # L = m takes the leave-one-out rows in the same blocks as L = 2.
        inst = bc.canonicalize_instance(bc.make_instance(2, 4, 4, 200, seed=[712, 0]))
        z0 = bc.random_init(2, 4, 4, np.random.default_rng(713))
        settings = bc.SolverSettings(eta=0.1, max_iters=80, tol=np.inf)
        peaks = []
        for n_drop in (2, inst.m):
            loo = bc.select_loo_indices(inst.m, n_drop, np.random.default_rng(714))
            plain, flipped = bc.run_diagnostics_suite(inst, z0, settings, loo,
                                                      np.random.default_rng(715))
            peaks.append(traced_peak(bc.measure_hypotheses, plain, flipped, inst)[1])
        assert peaks[1] <= 1.2 * peaks[0]

    def test_matches_per_pair_alignment(self, small_suite):
        inst, plain, flipped, report = small_suite
        truth = inst.truth
        base, sign = plain[0], flipped[0]

        def aligned(trace, ti, i, h_ref, x_ref):
            h, x = trace.h[ti, i], trace.x[ti, i]
            res = bc.align_pair(h, x, h_ref, x_ref)
            return h / np.conj(res.omega), res.omega * x, res.cost

        for ti in (1, len(report.t) // 2, len(report.t) - 1):
            for i in range(truth.s):
                h_t, x_t, _ = aligned(base, ti, i, truth.h[i], truth.x[i])
                h_chk, x_chk, _ = aligned(sign, ti, i, h_t, x_t)
                dists, signals, double_diffs = [], [], []
                # row k of both lists dropped the same sample
                for loo, sign_loo in zip(plain[1:], flipped[1:]):
                    h_hat, x_hat, cost = aligned(loo, ti, i, h_t, x_t)
                    h_sl, _, _ = aligned(sign_loo, ti, i, h_chk, x_chk)
                    dists.append(np.sqrt(cost / (2.0 * truth.q[i] ** 2)))
                    signals.append(abs(np.vdot(truth.x[i], x_hat - x_t)) / truth.q[i])
                    double_diffs.append(np.linalg.norm(h_t - h_hat - h_chk + h_sl))
                assert report.loo_dist[ti, i] == pytest.approx(max(dists), rel=1e-9)
                assert report.loo_signal_x[ti, i] == pytest.approx(max(signals), rel=1e-9)
                assert report.sign_dist_x[ti, i] == pytest.approx(
                    np.linalg.norm(x_chk - x_t), rel=1e-9)
                assert report.double_diff_h[ti, i] == pytest.approx(
                    max(double_diffs), rel=1e-9)

    def test_without_dropped_samples(self, small_suite):
        inst, plain, flipped, report = small_suite
        alone = bc.measure_hypotheses(plain[:1], flipped[:1], inst)
        for name in ("sign_dist_h", "sign_dist_x", "norm_ratio_h", "norm_ratio_x",
                     "norm_min", "norm_max", "incoh_x", "incoh_h"):
            assert np.all(np.isfinite(getattr(alone, name))), name
            np.testing.assert_array_equal(getattr(alone, name), getattr(report, name))
        for name in ("loo_dist", "loo_signal_h", "loo_signal_x", "double_diff_h",
                     "double_diff_x"):
            assert np.all(np.isnan(getattr(alone, name))), name

    @pytest.mark.parametrize("cut", [(0, 0), (4, 3), (2, 4)])
    def test_unpaired_trace_lists_rejected(self, small_suite, cut):
        inst, plain, flipped, _ = small_suite
        with pytest.raises(bc.DimensionMismatchError):
            bc.measure_hypotheses(plain[:cut[0]], flipped[:cut[1]], inst)

    def test_short_row_rejected(self, small_suite):
        # A row that logged fewer points than the base run cannot cover the
        # base's log points, so the report does not end early.
        inst, plain, flipped, _ = small_suite
        short = replace(plain[1], _metrics=None, **{name: getattr(plain[1], name)[:5]
                                                    for name in ("t", "loss", "h", "x")})
        with pytest.raises(bc.DimensionMismatchError, match="log points"):
            bc.measure_hypotheses([plain[0], short, *plain[2:]], flipped, inst)


    def test_single_sample_rejected(self):
        # The comparison scales are powers of log m, which is 0 at m = 1.
        inst = bc.canonicalize_instance(bc.make_instance(1, 1, 1, 1, seed=0))
        z0 = bc.random_init(1, 1, 1, np.random.default_rng(1))
        plain, flipped = bc.run_diagnostics_suite(
            inst, z0, bc.SolverSettings(max_iters=3), [0], np.random.default_rng(2))
        with pytest.raises(ParameterError, match="m=1"):
            bc.measure_hypotheses(plain, flipped, inst)


class TestConcentrationReport:
    def test_zero_design_tensor(self):
        inst = bc.make_instance(1, 2, 3, 8, seed=13)
        zeroed = bc.ProblemInstance(b_rows=inst.b_rows, a=np.zeros_like(inst.a),
                                    truth=inst.truth, y=inst.y)
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
        keys = set(asdict(doc))
        assert {"max_abs_first_entry", "first_entry_bound", "incoherence",
                "design_norm_bound"} <= keys
