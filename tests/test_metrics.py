import numpy as np
import pytest

import blaircomp as bc
from blaircomp.errors import (DegenerateAlignmentError, ParameterError,
                              UndefinedMetricError)

from helpers import (align_pair_eigvals, convex_certificate, grid_search_cost,
                     perturb_alignment, scale_coefficients, scale_objective)


@pytest.fixture
def truth():
    return bc.sample_ground_truth(1, 4, 4, [1.0], np.random.default_rng(3))


class TestAlignPair:
    def test_already_aligned(self, truth):
        res = bc.align_pair(truth.h[0], truth.x[0], truth.h[0], truth.x[0])
        assert res.omega == pytest.approx(1.0, abs=1e-9)
        assert res.cost < 1e-12

    def test_scale_ambiguity(self, truth):
        res = bc.align_pair(2 * truth.h[0], truth.x[0] / 2, truth.h[0], truth.x[0])
        assert res.omega == pytest.approx(2.0, abs=1e-9)
        assert res.cost < 1e-12

    def test_phase_ambiguity(self, truth):
        phase = np.exp(1j * np.pi / 3)
        res = bc.align_pair(phase * truth.h[0], phase * truth.x[0],
                            truth.h[0], truth.x[0])
        assert res.omega == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-9)
        assert res.cost < 1e-12

    def test_matches_grid_search(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            k, n = rng.integers(2, 8), rng.integers(2, 8)
            h_a = rng.normal(size=k) + 1j * rng.normal(size=k)
            x_a = rng.normal(size=n) + 1j * rng.normal(size=n)
            h_b = rng.normal(size=k) + 1j * rng.normal(size=k)
            x_b = rng.normal(size=n) + 1j * rng.normal(size=n)
            res = bc.align_pair(h_a, x_a, h_b, x_b)
            assert abs(res.cost - grid_search_cost(h_a, x_a, h_b, x_b)) < 1e-6

    def test_cost_consistent_with_objective(self):
        rng = np.random.default_rng(7)
        h_a = rng.normal(size=3) + 1j * rng.normal(size=3)
        x_a = rng.normal(size=5) + 1j * rng.normal(size=5)
        h_b = rng.normal(size=3) + 1j * rng.normal(size=3)
        x_b = rng.normal(size=5) + 1j * rng.normal(size=5)
        res = bc.align_pair(h_a, x_a, h_b, x_b)
        direct = (np.linalg.norm(h_a / np.conj(res.omega) - h_b) ** 2
                  + np.linalg.norm(res.omega * x_a - x_b) ** 2)
        assert abs(res.cost - direct) < 1e-10
        assert np.isfinite(res.omega) and abs(res.omega) > 0

    def test_mismatched_norms(self):
        # optimum has a closed form when all blocks are real scalars
        res = bc.align_pair(np.array([2.0 + 0j]), np.array([3.0 + 0j]),
                            np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        assert res.omega == pytest.approx(np.sqrt(2 / 3), abs=1e-8)
        assert res.cost == pytest.approx(14 - 4 * np.sqrt(6), abs=1e-8)

    def test_zero_block_rejected(self, truth):
        with pytest.raises(DegenerateAlignmentError):
            bc.align_pair(np.zeros(4, dtype=complex), truth.x[0],
                          truth.h[0], truth.x[0])

    def test_stacked_blocks_match_per_pair_calls(self):
        rng = np.random.default_rng(15)
        scale = 10.0 ** rng.uniform(-3, 3, (3, 4, 1))
        h_a = (rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))) * scale
        x_a = (rng.normal(size=(3, 4, 6)) + 1j * rng.normal(size=(3, 4, 6))) / scale
        h_b = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        x_b = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        h_a[0, 0], x_a[0, 0] = 2.0 * h_b[0], x_b[0] / 2.0    # exactly alignable
        h_a[1, 2], x_a[1, 2] = h_b[2], -x_b[2]               # anti-phased
        certified = convex_certificate(*scale_coefficients(h_a, x_a, h_b, x_b))
        assert not certified[1, 2] and certified.sum() >= 2   # both paths run
        res = bc.align_pair(h_a, x_a, h_b, x_b)               # h_b broadcasts
        assert res.omega.shape == res.cost.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                one = bc.align_pair(h_a[i, j], x_a[i, j], h_b[j], x_b[j])
                assert isinstance(one.omega, complex) and isinstance(one.cost, float)
                assert abs(res.omega[i, j] - one.omega) <= 1e-14 * abs(one.omega)
                assert abs(res.cost[i, j] - one.cost) <= 1e-14 * max(one.cost, 1.0)

    def test_certified_pairs_match_eigvals_oracle(self, monkeypatch):
        # near-aligned pairs over six decades of scale take the Newton path
        # alone, and agree with the all-eigenvalue path it replaced
        rng = np.random.default_rng(18)
        shape = (40, 5)
        h_b = rng.normal(size=shape + (6,)) + 1j * rng.normal(size=shape + (6,))
        x_b = rng.normal(size=shape + (7,)) + 1j * rng.normal(size=shape + (7,))
        gauge = 10.0 ** rng.uniform(-3, 3, shape + (1,)) * np.exp(
            2j * np.pi * rng.uniform(size=shape + (1,)))
        noise = 10.0 ** rng.uniform(-8, -0.5, shape + (1,))
        h_a = (h_b + noise * rng.normal(size=h_b.shape)) * np.conj(gauge)
        x_a = (x_b + noise * rng.normal(size=x_b.shape)) / gauge
        assert convex_certificate(*scale_coefficients(h_a, x_a, h_b, x_b)).all()
        omega, cost = align_pair_eigvals(h_a, x_a, h_b, x_b)

        def no_eigvals(*args, **kwargs):
            raise AssertionError("a certified pair reached the eigenvalue fallback")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        res = bc.align_pair(h_a, x_a, h_b, x_b)
        scale = (np.abs(h_b) ** 2).sum(axis=-1) + (np.abs(x_b) ** 2).sum(axis=-1)
        assert np.all(np.abs(res.omega - omega) <= 1e-14 * np.abs(omega))
        assert np.all(res.cost - cost <= 1e-14 * scale)

    def test_uncertified_pairs_match_grid_search(self):
        # anti-phased pairs: the more opposed the phases, the likelier the
        # certificate fails and the eigenvalue fallback takes the pair
        rng = np.random.default_rng(19)
        pairs = []
        for k in range(12):
            h_b = rng.normal(size=4) + 1j * rng.normal(size=4)
            x_b = rng.normal(size=5) + 1j * rng.normal(size=5)
            scale = 10.0 ** rng.uniform(-1, 1)
            turn = np.exp(1j * np.pi * (1.0 - k / 12.0))
            pairs.append((scale * h_b + 0.3 * rng.normal(size=4), turn * x_b / scale,
                          h_b, x_b))
        # exactly anti-phased: f(w) touches 0 where G has a cusp
        h_b = rng.normal(size=4) + 1j * rng.normal(size=4)
        x_b = rng.normal(size=5) + 1j * rng.normal(size=5)
        pairs.append((h_b, -x_b, h_b, x_b))
        # hi = lo exactly: G(w) = G(1/w), so it has two global minima, one of
        # them below w = 1, and w = 1, where G' = 0, is a local maximum
        tie = np.array([5.0 + 0j]), np.array([-3.0 + 4j]), np.array([5.0 + 0j])
        pairs.append((tie[0], tie[1], tie[0], tie[2]))
        lo, hi, rc = np.array([scale_coefficients(*pair) for pair in pairs]).T
        certified = convex_certificate(lo, hi, rc)
        assert certified.any() and not certified.all()
        w = np.geomspace(1e-4, 1e5, 9001)
        g = scale_objective(w, lo[-1], hi[-1], rc[-1])
        minima = np.flatnonzero((g[1:-1] < g[:-2]) & (g[1:-1] <= g[2:])) + 1
        assert len(minima) == 2 and w[minima[0]] < 1.0 < w[minima[1]]
        assert g[minima[0]] == pytest.approx(g.min(), abs=1e-12)
        assert hi[-1] == lo[-1] and not certified[-1]
        for pair in pairs:
            res = bc.align_pair(*pair)
            assert abs(res.cost - grid_search_cost(*pair)) < 1e-6

    def test_unfinished_newton_falls_back_to_eigvals(self):
        # x_b = 1e20 x_a puts the minimizer near w = 1e40, beyond what
        # Newton's roughly threefold steps from w = 1 reach within their cap
        h = np.array([1.0 + 0j, 0.5j])
        x = np.array([0.3 + 0.1j, 1.0])
        assert convex_certificate(*scale_coefficients(h, x, h, 1e20 * x))
        omega, cost = align_pair_eigvals(h, x, h, 1e20 * x)
        res = bc.align_pair(h, x, h, 1e20 * x)
        assert abs(res.omega - omega) <= 1e-14 * abs(omega)
        assert res.cost == pytest.approx(float(cost), rel=1e-12)

    def test_certificate_implies_one_minimum_at_or_above_one(self):
        # sqrt(f) >= lo makes G convex; sample (lo, hi, rc) over the feasible
        # |rc| <= 2*sqrt(lo*hi) and keep the certified ones
        rng = np.random.default_rng(20)
        hi = 10.0 ** rng.uniform(-3, 3, 6000)
        lo = hi * rng.uniform(size=6000) ** rng.choice([0.5, 1.0, 4.0], 6000)
        rc = 2.0 * np.sqrt(lo * hi) * rng.uniform(-1.0, 1.0, 6000)
        keep = convex_certificate(lo, hi, rc)
        lo, hi, rc = lo[keep][:2000], hi[keep][:2000], rc[keep][:2000]
        assert len(lo) == 2000
        w = np.geomspace(1e-4, 1e5, 9001)
        for part in np.array_split(np.arange(2000), 20):
            g = scale_objective(w, lo[part, None], hi[part, None], rc[part, None])
            interior = (g[:, 1:-1] < g[:, :-2]) & (g[:, 1:-1] <= g[:, 2:])
            assert np.all(interior.sum(axis=1) == 1)
            assert np.all(w[interior.argmax(axis=1) + 1] >= w[w < 1.0][-1])

    @pytest.mark.parametrize("where", [(0, 0, "h"), (2, 3, "x")])
    def test_zero_block_anywhere_in_batch_rejected(self, where):
        rng = np.random.default_rng(16)
        h = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
        x = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
        i, j, block = where
        (h if block == "h" else x)[i, j] = 0.0
        with pytest.raises(DegenerateAlignmentError):
            bc.align_pair(h, x, h[0], x[0])

    @pytest.mark.parametrize("orthogonal", ["h", "x", "both"])
    def test_orthogonal_overlaps_match_grid_search(self, orthogonal):
        # c1 = h_b^H h_a = 0 or c2 = x_b^H x_a = 0 exactly: the sextic's
        # leading (or constant) coefficient vanishes and its degree drops
        e = np.eye(4, dtype=complex)
        rng = np.random.default_rng(17)
        h_a = 2.0 * e[0] + 0.5j * e[1]
        x_a = rng.normal(size=4) + 1j * rng.normal(size=4)
        h_b = rng.normal(size=4) + 1j * rng.normal(size=4)
        x_b = rng.normal(size=4) + 1j * rng.normal(size=4)
        if orthogonal in ("h", "both"):
            h_b = 3.0 * e[2] - 1j * e[3]
        if orthogonal in ("x", "both"):
            x_a, x_b = 0.7 * e[1], e[0] + 2.0 * e[3]
        res = bc.align_pair(h_a, x_a, h_b, x_b)
        assert abs(res.cost - grid_search_cost(h_a, x_a, h_b, x_b)) < 1e-6


class TestDistAndRelativeError:
    def test_zero_at_truth(self):
        t = bc.sample_ground_truth(2, 4, 4, [1, 0.5], np.random.default_rng(1))
        z = bc.Iterate(h=t.h.copy(), x=t.x.copy())
        snap = bc.snapshot_metrics(z, t)
        assert snap.dist < 1e-10
        assert snap.relative_error < 1e-10

    def test_gauge_invariance(self):
        t = bc.sample_ground_truth(3, 4, 4, [1, 1, 1], np.random.default_rng(2))
        rng = np.random.default_rng(3)
        omegas = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = bc.Iterate(h=t.h / np.conj(omegas)[:, None], x=omegas[:, None] * t.x)
        snap = bc.snapshot_metrics(z, t)
        assert snap.dist < 1e-10
        assert snap.relative_error < 1e-10

    def test_scale_absorbed(self):
        t = bc.sample_ground_truth(2, 4, 4, [1, 1], np.random.default_rng(4))
        z = bc.Iterate(h=t.h / 2, x=2 * t.x)
        assert bc.snapshot_metrics(z, t).relative_error < 1e-10

    def test_scalar_hand_case(self):
        # s = 1, K = N = 1, h = 2, x = 3 against truth (1, 1):
        # min cost = 14 - 4 sqrt(6), d = 2
        t = bc.GroundTruth(h=np.array([[1.0 + 0j]]), x=np.array([[1.0 + 0j]]),
                           q=np.array([1.0]))
        z = bc.Iterate(h=np.array([[2.0 + 0j]]), x=np.array([[3.0 + 0j]]))
        expected = np.sqrt((14 - 4 * np.sqrt(6)) / 2)
        assert bc.snapshot_metrics(z, t).dist == pytest.approx(expected, abs=1e-8)

    def test_metric_invariance_random_iterates(self):
        t = bc.sample_ground_truth(2, 5, 5, [1, 1], np.random.default_rng(5))
        rng = np.random.default_rng(6)
        z = bc.random_init(2, 5, 5, rng)
        omegas = rng.normal(size=2) + 1j * rng.normal(size=2)
        z_gauged = bc.Iterate(h=z.h / np.conj(omegas)[:, None],
                              x=omegas[:, None] * z.x)
        snap, gauged = bc.snapshot_metrics(z, t), bc.snapshot_metrics(z_gauged, t)
        assert snap.dist == pytest.approx(gauged.dist, abs=1e-10)
        assert snap.relative_error == pytest.approx(gauged.relative_error, abs=1e-10)

    def test_zero_target_rejected(self):
        t = bc.GroundTruth(h=np.ones((2, 2), dtype=complex),
                           x=np.array([[1.0, 0], [-1.0, 0]], dtype=complex),
                           q=np.ones(2))
        z = bc.Iterate(h=t.h.copy(), x=t.x.copy())
        with pytest.raises(UndefinedMetricError):
            bc.snapshot_metrics(z, t)


class TestDecompose:
    def test_at_truth(self):
        t = bc.sample_ground_truth(2, 4, 4, [1.0, 0.5], np.random.default_rng(8))
        z = bc.Iterate(h=t.h.copy(), x=t.x.copy())
        dec = bc.snapshot_metrics(z, t).decomposition
        np.testing.assert_allclose(dec.alpha_h, t.q, atol=1e-9)
        np.testing.assert_allclose(dec.alpha_x, t.q, atol=1e-9)
        np.testing.assert_allclose(dec.beta_h, 0, atol=1e-9)
        np.testing.assert_allclose(dec.beta_x, 0, atol=1e-9)

    def test_orthogonal_channel_block(self, truth):
        # a scalar gauge cannot rotate h into the truth direction, so the
        # aligned block stays orthogonal: alpha = 0, beta = its norm
        rng = np.random.default_rng(9)
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        h -= truth.h[0] * np.vdot(truth.h[0], h)  # q = 1
        z = bc.Iterate(h=h[None, :], x=truth.x.copy())
        dec = bc.snapshot_metrics(z, truth).decomposition
        assert abs(dec.alpha_h[0]) < 1e-10
        assert dec.beta_h[0] == pytest.approx(
            np.linalg.norm(h) / abs(dec.omega[0]), rel=1e-10)

    def test_pythagorean_identity(self):
        t = bc.sample_ground_truth(2, 4, 4, [1, 1], np.random.default_rng(10))
        z = bc.random_init(2, 4, 4, np.random.default_rng(11))
        dec = bc.snapshot_metrics(z, t).decomposition
        for i in range(2):
            h_t = z.h[i] / np.conj(dec.omega[i])
            x_t = dec.omega[i] * z.x[i]
            assert (abs(dec.alpha_h[i]) ** 2 + dec.beta_h[i] ** 2
                    == pytest.approx(np.linalg.norm(h_t) ** 2, abs=1e-10))
            assert (abs(dec.alpha_x[i]) ** 2 + dec.beta_x[i] ** 2
                    == pytest.approx(np.linalg.norm(x_t) ** 2, abs=1e-10))

    def test_rmse_normalizes_by_raw_norm(self):
        t = bc.sample_ground_truth(1, 4, 4, [1.0], np.random.default_rng(12))
        z = bc.random_init(1, 4, 4, np.random.default_rng(13))
        dec = bc.snapshot_metrics(z, t).decomposition
        assert dec.rmse_x[0] == pytest.approx(
            dec.beta_x[0] / np.linalg.norm(z.x[0]), rel=1e-12)


class TestIncoherence:
    def test_basis_vector_channel(self):
        b = bc.generate_partial_dft(16, 4)
        t = bc.GroundTruth(h=np.eye(4, dtype=complex)[:1],
                           x=np.ones((1, 4), dtype=complex) / 2, q=np.array([1.0]))
        assert bc.incoherence(t, b) == pytest.approx(1.0, abs=1e-12)

    def test_dft_row_channel_attains_sqrt_k(self):
        b = bc.generate_partial_dft(16, 4)
        row = b[3].conj()
        t = bc.GroundTruth(h=row[None, :], x=np.ones((1, 4), dtype=complex) / 2,
                           q=np.array([np.linalg.norm(row)]))
        assert bc.incoherence(t, b) == pytest.approx(2.0, abs=1e-10)

    def test_scale_invariance(self):
        b = bc.generate_partial_dft(8, 3)
        rng = np.random.default_rng(14)
        h = rng.normal(size=3) + 1j * rng.normal(size=3)
        t1 = bc.GroundTruth(h=h[None, :], x=np.ones((1, 2), dtype=complex),
                            q=np.array([np.linalg.norm(h)]))
        t2 = bc.GroundTruth(h=3 * h[None, :], x=np.ones((1, 2), dtype=complex),
                            q=np.array([3 * np.linalg.norm(h)]))
        assert bc.incoherence(t1, b) == pytest.approx(bc.incoherence(t2, b),
                                                      rel=1e-12)

    def test_gaussian_channels_stay_incoherent(self):
        # mu <= 10 log(m) for Gaussian channels, checked over seeded draws
        m, K = 800, 16
        b = bc.generate_partial_dft(m, K)
        bound = 10 * np.log(m)
        hits = sum(
            bc.incoherence(bc.sample_ground_truth(1, K, 4, [1.0],
                                                  np.random.default_rng([60, k])), b)
            <= bound
            for k in range(100))
        assert hits >= 99


class TestPerturbAlignment:
    def test_vanishing_noise_limit(self):
        w = perturb_alignment(1.0 + 1.0j, 1e12, np.random.default_rng(0))
        assert abs(w - (1.0 + 1.0j)) < 1e-5

    def test_noise_variance(self):
        omega = np.full(100_000, 1.0 + 0.5j)
        w = perturb_alignment(omega, 4.0, np.random.default_rng(1))
        assert abs(np.mean(np.abs(w - omega) ** 2) * 4.0 - 1.0) < 0.03

    def test_deterministic_with_seed(self):
        w1 = perturb_alignment(2.0 + 0j, 10.0, np.random.default_rng(5))
        w2 = perturb_alignment(2.0 + 0j, 10.0, np.random.default_rng(5))
        assert w1 == w2

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ParameterError):
            perturb_alignment(1.0 + 0j, 0.0, np.random.default_rng(0))
