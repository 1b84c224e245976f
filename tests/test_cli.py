import json
import os

import numpy as np
import pytest

import blaircomp as bc
from blaircomp.cli import _noise_sweep_rows, main, trace_header
from blaircomp.errors import ConfigError

from helpers import noise_sweep_rows_loop, run_desk_scale


class TestParseConfig:
    def test_preset_fills_defaults(self):
        cfg = bc.parse_config(overrides={"preset": "fig1-convergence", "K": 20})
        assert cfg.s == 10
        assert cfg.N == 20
        assert cfg.resolved_m() == 1000
        assert cfg.eta == 0.1

    def test_explicit_m_beats_preset_factor(self):
        cfg = bc.parse_config(overrides={"preset": "fig1-convergence", "K": 20,
                                         "m": 500})
        assert cfg.resolved_m() == 500
        assert cfg.m_factor is None

    def test_both_m_and_factor_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            bc.parse_config(overrides={"preset": "custom", "s": 1, "K": 4,
                                       "N": 4, "eta": 0.1, "max_iters": 10,
                                       "m": 100, "m_factor": 50})

    def test_empty_custom_lists_missing_fields(self):
        with pytest.raises(ConfigError) as exc:
            bc.parse_config(overrides={"preset": "custom"})
        for name in ("s", "K", "N", "eta"):
            assert name in str(exc.value)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("preset = noise-sweep\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            bc.parse_config(str(path))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("preset = fig1-convergence\nK = 4\nseed = 3\n")
        cfg = bc.parse_config(str(path), overrides={"K": 6})
        assert cfg.K == 6 and cfg.seed == 3

    def test_comments_and_lists_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("preset = noise-sweep  # reference setting\n"
                        "sigma_w_grid = 1,10,100\nq = 1.0\n")
        cfg = bc.parse_config(str(path))
        assert cfg.sigma_w_grid == [1.0, 10.0, 100.0]
        assert cfg.q == [1.0]

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ConfigError):
            bc.parse_config(overrides={"preset": "noise-sweep", "trials": 0})


def _tiny_cfg(out, **kw):
    base = dict(preset="custom", s=1, K=4, N=4, m=80, eta=0.1, max_iters=60,
                tol=1e-6, trials=2, seed=5, out=str(out), jobs=1)
    base.update(kw)
    return bc.parse_config(overrides=base)


class TestRunExperiment:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "r1")
        result = bc.run_experiment(cfg)
        assert result["ok"]
        for key in ("trace", "stages", "report", "plot"):
            assert os.path.exists(result["paths"][key])
        cols = bc.read_trace_csv(result["paths"]["trace"])
        assert len(cols) == 5 + 5 * cfg.s
        assert list(cols) == trace_header(cfg.s)
        # rows sorted by (trial, t)
        order = np.lexsort((cols["t"], cols["trial"]))
        assert np.array_equal(order, np.arange(len(cols["t"])))

    def test_round_trip_parser_preserves_values(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "r2", trials=1)
        result = bc.run_experiment(cfg)
        cols = bc.read_trace_csv(result["paths"]["trace"])
        inst = bc.make_instance(1, 4, 4, 80,
                                seed=np.random.SeedSequence([5, 0]).spawn(3)[0])
        z0 = bc.random_init(1, 4, 4, np.random.default_rng(
            np.random.SeedSequence([5, 0]).spawn(3)[1]))
        trace = bc.run_wf(inst, z0, bc.SolverSettings(eta=0.1, max_iters=60,
                                                      tol=1e-6))
        np.testing.assert_array_equal(cols["loss"], trace.loss)
        np.testing.assert_array_equal(cols["relative_error"],
                                      trace.relative_error)

    def test_byte_identical_reruns(self, tmp_path):
        r1 = bc.run_experiment(_tiny_cfg(tmp_path / "a"))
        r2 = bc.run_experiment(_tiny_cfg(tmp_path / "b"))
        with open(r1["paths"]["trace"], "rb") as f1, \
                open(r2["paths"]["trace"], "rb") as f2:
            assert f1.read() == f2.read()

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = bc.run_experiment(_tiny_cfg(tmp_path / "s", jobs=1))
        pooled = bc.run_experiment(_tiny_cfg(tmp_path / "p", jobs=2))
        with open(serial["paths"]["trace"], "rb") as f1, \
                open(pooled["paths"]["trace"], "rb") as f2:
            assert f1.read() == f2.read()

    def test_stages_json_structure(self, tmp_path):
        result = bc.run_experiment(_tiny_cfg(tmp_path / "r3"))
        with open(result["paths"]["stages"]) as fh:
            doc = json.load(fh)
        assert doc["config"]["preset"] == "custom"
        assert len(doc["trials"]) == 2
        assert "wall_clock_s" in doc
        assert "stages" in doc["trials"][0]

    def test_noise_sweep_report(self, tmp_path):
        cfg = bc.parse_config(overrides=dict(
            preset="noise-sweep", trials=1, seed=9, max_iters=200,
            sigma_w_grid="1,100,10000", out=str(tmp_path / "ns"), jobs=1))
        result = bc.run_experiment(cfg)
        assert result["ok"]
        sweep = result["report"]["noise_sweep"]
        assert len(sweep["points"]) == 3
        assert -1.5 < sweep["slope_db_per_db"] < -0.5
        assert os.path.exists(result["paths"]["noise"])

    @pytest.mark.parametrize("s", [1, 3])
    def test_noise_sweep_rows_match_per_row_loop(self, s):
        inst, _, trace = run_desk_scale(3, s=s, max_iters=40, keep_iterates=True)
        grid = [1.0, 10.0, 1e3, 1e5]
        rows = _noise_sweep_rows(trace, inst.truth, grid, np.random.default_rng(8), 2)
        ref = noise_sweep_rows_loop(trace, inst.truth, grid,
                                    np.random.default_rng(8), 2)
        assert [r[:3] for r in rows] == [r[:3] for r in ref]
        np.testing.assert_allclose([r[3] for r in rows], [r[3] for r in ref],
                                   rtol=1e-14, atol=0)

    def test_diagnostics_preset_emits_hypotheses(self, tmp_path):
        cfg = bc.parse_config(overrides=dict(
            preset="diagnostics", K=6, m=60, max_iters=10, loo_samples=2,
            trials=1, seed=4, out=str(tmp_path / "diag"), jobs=1))
        result = bc.run_experiment(cfg)
        assert result["ok"]
        assert result["report"]["concentration"][0]["incoherence"] > 0
        assert os.path.exists(os.path.join(cfg.out, "hypotheses_0.csv"))


class TestMainEntry:
    def test_run_smoke(self, tmp_path, capsys):
        code = main(["run", "--preset", "custom", "--s", "1", "--K", "4",
                     "--N", "4", "--m", "60", "--eta", "0.1", "--max-iters",
                     "30", "--trials", "1", "--seed", "2", "--jobs", "1",
                     "--out", str(tmp_path / "cli")])
        assert code == 0
        out = capsys.readouterr().out
        assert "trial 0" in out and "artifacts" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--preset", "custom", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, env", [
        (["--preset", "fig1-convergence", "--K", "4", "--cadence", "0"], None),
        (["--preset", "noise-sweep", "--sigma-w-grid", "1,-10"], None),
        (["--preset", "noise-sweep", "--K", "30", "--m", "20"], None),
        (["--preset", "noise-sweep", "--sigma2-e", "-1"], None),
        (["--preset", "noise-sweep", "--q", "1.5"], None),
        (["--preset", "noise-sweep", "--eta", "nan"], None),
        (["--preset", "noise-sweep", "--max-iters", "0"], None),
        (["--preset", "diagnostics", "--loo-samples", "-1"], None),
        (["--preset", "noise-sweep"], "two"),
    ], ids=["cadence", "sigma_w_grid", "K_above_m", "sigma2_e", "q", "eta_nan",
            "max_iters", "loo_samples", "jobs_env"])
    def test_bad_input_rejected_at_boundary(self, flags, env, tmp_path, capsys,
                                            monkeypatch):
        if env is not None:
            monkeypatch.setenv("BLAIRCOMP_JOBS", env)
        out = tmp_path / "bad"
        assert main(["run", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnostics_subcommand(self, tmp_path):
        code = main(["diagnostics", "--K", "4", "--m", "40", "--max-iters", "8",
                     "--loo-samples", "2", "--seed", "1", "--jobs", "1",
                     "--out", str(tmp_path / "d")])
        assert code == 0
        assert os.path.exists(tmp_path / "d" / "hypotheses_0.csv")

    def test_divergence_exit_code(self, tmp_path, capsys):
        code = main(["run", "--preset", "custom", "--s", "1", "--K", "4",
                     "--N", "4", "--m", "60", "--eta", "1e6", "--max-iters",
                     "20", "--trials", "1", "--seed", "2", "--jobs", "1",
                     "--out", str(tmp_path / "div")])
        assert code == 1
        assert "DIVERGED" in capsys.readouterr().out
