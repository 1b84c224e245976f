import numpy as np
import pytest

import blaircomp as bc
from blaircomp.ensemble import _complex_gaussian
from blaircomp.errors import DimensionMismatchError, ParameterError

from helpers import brute_force_loss, traced_peak


class TestPartialDft:
    def test_orthonormal_columns_and_row_norms(self):
        b = bc.generate_partial_dft(4, 2)
        np.testing.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.sum(np.abs(b) ** 2, axis=1), 0.5, atol=1e-12)

    def test_one_by_one(self):
        np.testing.assert_allclose(bc.generate_partial_dft(1, 1), [[1.0]], atol=1e-15)

    def test_entries_match_direct_formula(self):
        b = bc.generate_partial_dft(8, 3)
        np.testing.assert_allclose(b[:, 0], np.full(8, 1 / np.sqrt(8)), atol=1e-14)
        j, k = np.meshgrid(np.arange(8), np.arange(3), indexing="ij")
        expected = np.exp(-2j * np.pi * j * k / 8) / np.sqrt(8)
        np.testing.assert_allclose(b, expected, atol=1e-14)

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(DimensionMismatchError):
            bc.generate_partial_dft(3, 4)

    @pytest.mark.parametrize("m,K", [(16, 5), (50, 50), (7, 1)])
    def test_invariants_across_shapes(self, m, K):
        b = bc.generate_partial_dft(m, K)
        np.testing.assert_allclose(b.conj().T @ b, np.eye(K), atol=1e-12)
        np.testing.assert_allclose(np.sum(np.abs(b) ** 2, axis=1), K / m, atol=1e-12)


class TestGroundTruth:
    def test_unit_norms(self):
        t = bc.sample_ground_truth(1, 5, 4, [1.0], np.random.default_rng(0))
        assert abs(np.linalg.norm(t.h[0]) - 1.0) < 1e-12
        assert abs(np.linalg.norm(t.x[0]) - 1.0) < 1e-12

    def test_condition_number(self):
        t = bc.sample_ground_truth(3, 4, 4, [1.0, 0.5, 0.25], np.random.default_rng(0))
        assert t.kappa == pytest.approx(4.0, abs=1e-12)

    def test_seed_determinism(self):
        t1 = bc.sample_ground_truth(2, 4, 4, [1, 1], np.random.default_rng(42))
        t2 = bc.sample_ground_truth(2, 4, 4, [1, 1], np.random.default_rng(42))
        assert np.array_equal(t1.h, t2.h) and np.array_equal(t1.x, t2.x)

    # 1e-160 squares below the normal double range; the bound is 1e-100
    @pytest.mark.parametrize("bad_q", [[0.0], [-0.1], [1.5], [1.0, 1.0], [1e-160],
                                       [float("nan")]])
    def test_invalid_norms_rejected(self, bad_q):
        with pytest.raises(ParameterError):
            bc.sample_ground_truth(1, 4, 4, bad_q, np.random.default_rng(0))


class TestDesignTensor:
    @pytest.mark.parametrize("dims", [(0, 4, 2), (1, 0, 2), (1, 4, 0)])
    def test_empty_tensor_rejected(self, dims):
        with pytest.raises(ParameterError):
            bc.sample_design_tensor(*dims, np.random.default_rng(0))

    def test_unit_variance(self):
        a = bc.sample_design_tensor(1, 100_000, 1, np.random.default_rng(3))
        assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.02

    # (3, 4000, 5) ends in a ragged 8192-value draw slab; (4, 4096) fills two
    @pytest.mark.parametrize("shape", [(7,), (2, 5, 3), (3, 40, 9), (3, 4000, 5), (4, 4096)])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    def test_complex_gaussian_matches_sum_of_draws(self, shape, seed):
        fast = _complex_gaussian(np.random.default_rng(seed), shape, 0.3)
        rng = np.random.default_rng(seed)
        scale = np.sqrt(0.3 / 2.0)
        ref = rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)
        assert np.array_equal(fast.view(np.int64), ref.view(np.int64))

    def test_draw_peak_memory_is_the_tensor(self):
        # the draws fill the tensor in slabs, with no whole-shape temporary
        a, peak = traced_peak(bc.sample_design_tensor, 10, 1000, 20,
                              np.random.default_rng(5))
        assert peak <= 1.05 * a.nbytes

    def test_seed_determinism(self):
        a1 = bc.sample_design_tensor(2, 5, 3, np.random.default_rng(9))
        a2 = bc.sample_design_tensor(2, 5, 3, np.random.default_rng(9))
        assert np.array_equal(a1, a2)

    def test_first_entry_concentration(self):
        # max_j |a_1j,1| <= 5 sqrt(log m) should hold in at least 99/100 draws
        m = 10_000
        bound = 5 * np.sqrt(np.log(m))
        hits = sum(
            np.abs(bc.sample_design_tensor(2, m, 1, np.random.default_rng([50, k]))
                   [0, :, 0]).max() <= bound
            for k in range(100))
        assert hits >= 99

    def test_mean_magnitude_bound(self):
        a = bc.sample_design_tensor(2, 500, 10, np.random.default_rng(4))
        n_entries = a.size
        assert abs(np.mean(a)) <= 5 / np.sqrt(n_entries)
        assert abs(np.var(a.real) - 0.5) < 0.05
        assert abs(np.var(a.imag) - 0.5) < 0.05


class TestMeasurements:
    def test_zero_signal(self):
        rng = np.random.default_rng(0)
        t = bc.sample_ground_truth(2, 3, 3, [1, 1], rng)
        t = bc.GroundTruth(h=t.h, x=np.zeros_like(t.x), q=t.q)
        b = bc.generate_partial_dft(6, 3)
        a = bc.sample_design_tensor(2, 6, 3, rng)
        y = bc.synthesize_measurements(b, a, t, 0.0)
        np.testing.assert_array_equal(y, np.zeros(6))

    def test_scalar_hand_case(self):
        # b = 1, h = 2, x = 3, a = 5 -> y = b^H h x^H a = 2 * conj(3) * 5 = 30
        t = bc.GroundTruth(h=np.array([[2.0 + 0j]]), x=np.array([[3.0 + 0j]]),
                           q=np.array([1.0]))
        y = bc.synthesize_measurements(np.array([[1.0 + 0j]]),
                                       np.array([[[5.0 + 0j]]]), t, 0.0)
        assert y[0] == pytest.approx(30.0, abs=1e-14)

    def test_matches_brute_force(self, small_instance):
        z = bc.Iterate(h=small_instance.truth.h.copy(),
                       x=small_instance.truth.x.copy())
        # noiseless measurements make the truth an exact interpolant
        assert brute_force_loss(z, small_instance) < 1e-24

    def test_noise_variance(self):
        rng = np.random.default_rng(11)
        t = bc.sample_ground_truth(1, 2, 2, [1.0], rng)
        b = bc.generate_partial_dft(20_000, 2)
        a = bc.sample_design_tensor(1, 20_000, 2, rng)
        y0 = bc.synthesize_measurements(b, a, t, 0.0)
        y1 = bc.synthesize_measurements(b, a, t, 0.25, np.random.default_rng(12))
        assert abs(np.mean(np.abs(y1 - y0) ** 2) - 0.25) < 0.0125

    def test_negative_variance_rejected(self):
        t = bc.sample_ground_truth(1, 2, 2, [1.0], np.random.default_rng(0))
        with pytest.raises(ParameterError):
            bc.synthesize_measurements(bc.generate_partial_dft(4, 2),
                                       bc.sample_design_tensor(1, 4, 2,
                                                               np.random.default_rng(1)),
                                       t, -1.0)

    def test_node_count_mismatch_rejected(self):
        t = bc.sample_ground_truth(1, 2, 2, [1.0], np.random.default_rng(0))
        a = bc.sample_design_tensor(2, 4, 2, np.random.default_rng(1))
        with pytest.raises(DimensionMismatchError, match="disagree on s"):
            bc.synthesize_measurements(bc.generate_partial_dft(4, 2), a, t, 0.0)

    def test_noise_needs_a_generator(self):
        t = bc.sample_ground_truth(1, 2, 2, [1.0], np.random.default_rng(0))
        a = bc.sample_design_tensor(1, 4, 2, np.random.default_rng(1))
        with pytest.raises(ParameterError, match="rng required"):
            bc.synthesize_measurements(bc.generate_partial_dft(4, 2), a, t, 0.5)

    @pytest.mark.parametrize("sigma2_e", [np.inf, np.nan])
    def test_non_finite_variance_rejected(self, sigma2_e):
        with pytest.raises(ParameterError):
            bc.make_instance(1, 4, 4, 20, sigma2_e=sigma2_e, seed=0)


class TestInstance:
    def test_seed_determinism_bitwise(self):
        i1 = bc.make_instance(2, 4, 4, 20, seed=42)
        i2 = bc.make_instance(2, 4, 4, 20, seed=42)
        assert np.array_equal(i1.a, i2.a)
        assert np.array_equal(i1.y, i2.y)
        assert np.array_equal(i1.truth.h, i2.truth.h)

    @pytest.mark.parametrize("bad", [2.5, 4.0, True], ids=["fraction", "float", "bool"])
    @pytest.mark.parametrize("position", range(4), ids=["s", "K", "N", "m"])
    def test_non_integer_dimension_rejected(self, position, bad):
        dims = [1, 4, 4, 40]
        dims[position] = bad
        s, K, N, m = dims
        calls = [lambda: bc.make_instance(*dims, seed=0),
                 lambda: bc.random_init(s, K, N, np.random.default_rng(0)),
                 lambda: bc.sample_ground_truth(s, K, N, [1.0], np.random.default_rng(0)),
                 lambda: bc.generate_partial_dft(m, K),
                 lambda: bc.sample_design_tensor(s, m, N, np.random.default_rng(0))]
        takes = [(0, 1, 2, 3), (0, 1, 2), (0, 1, 2), (1, 3), (0, 2, 3)]   # positions
        for call, positions in zip(calls, takes):
            if position in positions:
                with pytest.raises(ParameterError, match="integers >= 1"):
                    call()

    def test_numpy_integer_dimensions_accepted(self):
        dims = (np.int64(2), np.int32(4), np.int64(3), np.int64(20))
        inst = bc.make_instance(*dims, seed=5)
        assert np.array_equal(inst.y, bc.make_instance(2, 4, 3, 20, seed=5).y)
        z0 = bc.random_init(*dims[:3], np.random.default_rng(1))
        assert np.array_equal(z0.x, bc.random_init(2, 4, 3, np.random.default_rng(1)).x)
        assert np.array_equal(bc.generate_partial_dft(dims[3], dims[1]),
                              bc.generate_partial_dft(20, 4))
        a = bc.sample_design_tensor(dims[0], dims[3], dims[2], np.random.default_rng(2))
        assert np.array_equal(a, bc.sample_design_tensor(2, 20, 3, np.random.default_rng(2)))

    def test_shape_validation(self):
        inst = bc.make_instance(1, 2, 2, 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            bc.ProblemInstance(b_rows=inst.b_rows, a=inst.a[:, :3], truth=inst.truth,
                               y=inst.y)
        with pytest.raises(DimensionMismatchError):     # per-node (s, m, K) rows
            bc.ProblemInstance(b_rows=inst.b_rows[None], a=inst.a, truth=inst.truth,
                               y=inst.y)
        with pytest.raises(ParameterError):             # K = 0
            bc.ProblemInstance(b_rows=inst.b_rows[:, :0], a=inst.a, truth=inst.truth,
                               y=inst.y)
        t = inst.truth
        for h, x in ((t.h[:, :1], t.x), (t.h, t.x[:, :1]), (t.h[[0, 0]], t.x)):
            with pytest.raises(DimensionMismatchError, match="ground truth"):
                bc.ProblemInstance(b_rows=inst.b_rows, a=inst.a, y=inst.y,
                                   truth=bc.GroundTruth(h=h, x=x, q=t.q))
        for y in (inst.y[:3], inst.y[None]):
            with pytest.raises(DimensionMismatchError, match="measurement shape"):
                bc.ProblemInstance(b_rows=inst.b_rows, a=inst.a, truth=t, y=y)

    def test_sizes_read_from_the_arrays(self):
        inst = bc.make_instance(3, 4, 5, 20, seed=1)
        canon = bc.canonicalize_instance(inst)
        flipped = bc.apply_sign_flips(
            canon, bc.sample_sign_flips(3, 20, np.random.default_rng(2)))
        for i in (inst, canon, flipped):
            assert (i.s, i.m, i.N) == i.a.shape == (3, 20, 5)
            assert (i.m, i.K) == i.b_rows.shape == (20, 4)
