import numpy as np
import pytest

import blaircomp as bc
from blaircomp.errors import ParameterError

from helpers import FakeTrace, recursion_deltas, run_desk_scale, trace_from_population


def _state(alpha_h, beta_h, alpha_x, beta_x, q=1.0, eta=0.1):
    return bc.SEState(alpha_h=np.atleast_1d(float(alpha_h)),
                      beta_h=np.atleast_1d(float(beta_h)),
                      alpha_x=np.atleast_1d(float(alpha_x)),
                      beta_x=np.atleast_1d(float(beta_x)),
                      q=np.atleast_1d(float(q)), eta=eta)


class TestPopulationStep:
    def test_fixed_point(self):
        state = _state(1.0, 0.0, 1.0, 0.0)
        nxt = bc.population_se_step(state)
        assert nxt.alpha_h[0] == pytest.approx(1.0, abs=1e-15)
        assert nxt.alpha_x[0] == pytest.approx(1.0, abs=1e-15)
        assert nxt.beta_h[0] == 0.0 and nxt.beta_x[0] == 0.0

    def test_beta_contracts_geometrically(self):
        hist = bc.run_population_se(_state(0.3, 1.0, 0.3, 1.0), 10)
        assert hist["beta_x"][-1, 0] == pytest.approx(0.9 ** 10, abs=1e-15)
        assert hist["beta_x"][-1, 0] == pytest.approx(0.34867844, abs=1e-8)

    def test_zero_step_size_is_identity(self):
        state = _state(0.2, 0.8, 0.4, 0.7, eta=0.0)
        nxt = bc.population_se_step(state)
        assert nxt.alpha_h[0] == state.alpha_h[0]
        assert nxt.beta_x[0] == state.beta_x[0]

    def test_synchronous_update_uses_pre_step_values(self):
        # alpha_h update must read the pre-step alpha_x, not the new one
        state = _state(0.5, 0.5, 0.25, 0.75)
        nxt = bc.population_se_step(state)
        den_x = 0.25 ** 2 + 0.75 ** 2
        assert nxt.alpha_h[0] == pytest.approx(0.9 * 0.5 + 0.1 * 0.25 / den_x,
                                               abs=1e-15)

    def test_degenerate_state_rejected(self):
        with pytest.raises(ParameterError):
            bc.population_se_step(_state(0.0, 0.0, 0.5, 0.5))


class TestExtractPerturbations:
    def test_population_trace_gives_zero(self):
        hist = bc.run_population_se(_state(0.2, 1.0, 0.3, 0.9), 50)
        trace = trace_from_population(hist, np.array([1.0]), 400, 0.1)
        pert = bc.extract_perturbations(trace)
        assert np.nanmax(np.abs(pert.phi_h)) < 1e-10
        assert np.nanmax(np.abs(pert.phi_x)) < 1e-10
        assert np.nanmax(np.abs(pert.psi_h)) < 1e-10
        assert np.nanmax(np.abs(pert.psi_x)) < 1e-10

    def test_beta_round_trip_recovers_injected_phi(self):
        eta, q, phi = 0.1, 1.0, 0.01
        alpha_h = np.full(21, 0.4)
        beta_h = np.full(21, 0.5)
        alpha_x = np.full(21, 0.3)
        beta_x = np.empty(21)
        beta_x[0] = 1.0
        den_h = alpha_h[0] ** 2 + beta_h[0] ** 2
        for t in range(20):
            beta_x[t + 1] = (1 - eta + eta * q * phi / den_h) * beta_x[t]
        trace = FakeTrace(alpha_h=alpha_h[:, None], beta_h=beta_h[:, None],
                          alpha_x=alpha_x[:, None], beta_x=beta_x[:, None],
                          q=np.array([q]), m=400, eta=eta)
        pert = bc.extract_perturbations(trace)
        np.testing.assert_allclose(pert.phi_x[:, 0], phi, atol=1e-12)

    def test_alpha_round_trip_recovers_injected_psi(self):
        eta, q, psi = 0.1, 1.0, 0.02
        alpha_x = np.full(16, 0.3)
        beta_x = np.full(16, 0.8)
        beta_h = np.full(16, 0.6)
        alpha_h = np.empty(16)
        alpha_h[0] = 0.25
        den_x = alpha_x[0] ** 2 + beta_x[0] ** 2
        for t in range(15):
            alpha_h[t + 1] = ((1 - eta + eta * q * psi / den_x) * alpha_h[t]
                              + eta * q * alpha_x[t] / den_x)
        trace = FakeTrace(alpha_h=alpha_h[:, None], beta_h=beta_h[:, None],
                          alpha_x=alpha_x[:, None], beta_x=beta_x[:, None],
                          q=np.array([q]), m=400, eta=eta)
        pert = bc.extract_perturbations(trace)
        np.testing.assert_allclose(pert.psi_h[:, 0], psi, atol=1e-12)

    def test_zero_beta_marked_absent(self):
        trace = FakeTrace(alpha_h=np.ones((3, 1)), beta_h=np.zeros((3, 1)),
                          alpha_x=np.ones((3, 1)), beta_x=np.ones((3, 1)),
                          q=np.array([1.0]), m=100, eta=0.1)
        pert = bc.extract_perturbations(trace)
        assert np.isnan(pert.phi_h).all()

    def test_delta_follows_the_paper_recursion(self):
        # Pins population_se_step's alpha update: delta is measured alpha
        # minus the unbalanced recursion, bit for bit, at unequal q.
        inst = bc.make_instance(2, 8, 8, 400, q=[1.0, 0.7], seed=[1000, 0])
        z0 = bc.random_init(2, 8, 8, np.random.default_rng([2000, 0]))
        trace = bc.run_wf(inst, z0, bc.SolverSettings(eta=0.1, max_iters=300, tol=1e-8))
        pert = bc.extract_perturbations(trace)
        delta_h, delta_x = recursion_deltas(trace)
        assert len(trace.t) > 100 and np.isfinite(delta_h).all()
        assert delta_h.tobytes() == pert.delta_h.tobytes()
        assert delta_x.tobytes() == pert.delta_x.tobytes()

    def test_sparse_cadence_rejected(self):
        # at cadence 5 each step would compare alpha five iterations apart
        inst = bc.make_instance(2, 8, 8, 400, seed=[1000, 0])
        z0 = bc.random_init(2, 8, 8, np.random.default_rng([2000, 0]))
        trace = bc.run_wf(inst, z0, bc.SolverSettings(eta=0.1, max_iters=100, cadence=5))
        assert np.array_equal(np.diff(trace.t), np.full(20, 5))
        with pytest.raises(ParameterError, match="every iteration"):
            bc.extract_perturbations(trace)

    def test_desk_scale_perturbations_small_and_shrinking(self):
        # Perturbations over Stage I sit well below O(1) at m = 400 and
        # shrink when the sample size grows eightfold.
        _, _, tr400 = run_desk_scale(0, max_iters=200)
        rep400 = bc.detect_stages(tr400)
        pert400 = bc.extract_perturbations(tr400)
        window = tr400.t[:-1] <= rep400.T_gamma
        max400 = np.nanmax(np.abs(pert400.phi_x[window]))
        assert max400 <= 3.0 / np.log(400)

        inst = bc.make_instance(2, 8, 8, 3200, seed=[1000, 0])
        z0 = bc.random_init(2, 8, 8, np.random.default_rng([2000, 0]))
        tr3200 = bc.run_wf(inst, z0,
                           bc.SolverSettings(eta=0.1, max_iters=200, tol=1e-6))
        rep3200 = bc.detect_stages(tr3200)
        pert3200 = bc.extract_perturbations(tr3200)
        window = tr3200.t[:-1] <= rep3200.T_gamma
        max3200 = np.nanmax(np.abs(pert3200.phi_x[window]))
        assert max3200 <= 1.5 / np.log(3200)
        assert max3200 < max400


class TestDetectStages:
    def test_population_recursion_orders_boundaries(self):
        K = 100
        state = _state(1 / np.sqrt(K * np.log(K)), 1.0,
                       1 / np.sqrt(K * np.log(K)), 1.0)
        hist = bc.run_population_se(state, 200)
        trace = trace_from_population(hist, np.array([1.0]), 5000, 0.1)
        rep = bc.detect_stages(trace)
        assert rep.T_1 is not None and rep.T_2 is not None and rep.T_gamma is not None
        assert rep.T_1 <= rep.T_2 <= rep.T_gamma

    def test_huge_gamma_is_vacuous(self):
        hist = bc.run_population_se(_state(0.2, 1.0, 0.2, 1.0), 5)
        trace = trace_from_population(hist, np.array([1.0]), 100, 0.1)
        rep = bc.detect_stages(trace, gamma=1e6)
        assert rep.T_gamma == 0

    def test_growth_rate_fit_on_geometric_trace(self):
        c, eta = 0.5, 0.1
        t = np.arange(40)
        alpha = 0.05 * (1 + c * eta) ** t
        beta = np.full(40, 0.8)
        trace = FakeTrace(alpha_h=alpha[:, None], beta_h=beta[:, None],
                          alpha_x=alpha[:, None], beta_x=beta[:, None],
                          q=np.array([1.0]), m=400, eta=eta)
        rep = bc.detect_stages(trace, gamma=1e6)  # fit over the full trace
        # T_gamma = 0 shrinks the window to one point; rerun with no region hit
        rep_full = bc.detect_stages(trace, gamma=1e-12)
        assert rep_full.T_gamma is None
        assert rep_full.growth_rate_h[0] == pytest.approx(np.log(1 + c * eta),
                                                          rel=0.05)

    def test_never_reached_reported_absent(self):
        # at m = 1 the T_1 scale 1/log^5(m) is infinite, so T_1 is never reached
        for m in (100, 1):
            trace = FakeTrace(alpha_h=np.full((5, 1), 1e-9),
                              beta_h=np.ones((5, 1)),
                              alpha_x=np.full((5, 1), 1e-9),
                              beta_x=np.ones((5, 1)),
                              q=np.array([1.0]), m=m, eta=0.1)
            rep = bc.detect_stages(trace, t2_threshold=0.5)
            assert rep.T_1 is None and rep.T_2 is None and rep.T_gamma is None

    def test_json_round_trip_fields(self):
        hist = bc.run_population_se(_state(0.2, 1.0, 0.2, 1.0), 80)
        trace = trace_from_population(hist, np.array([1.0]), 400, 0.1)
        doc = bc.detect_stages(trace).to_json_dict()
        assert set(doc) == {"T_gamma", "T_1", "T_2", "gamma", "t1_threshold",
                            "t2_threshold", "growth_rate_h", "growth_rate_x"}


class TestOnSolverTraces:
    def test_stage_one_ratio_growth_positive(self):
        positive = 0
        for seed in range(5):
            _, _, trace = run_desk_scale(seed)
            rep = bc.detect_stages(trace)
            if (np.all(rep.growth_rate_h > 0) and np.all(rep.growth_rate_x > 0)):
                positive += 1
        assert positive >= 4
