import csv
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import blaircomp as bc
from blaircomp import cli
from blaircomp.cli import _noise_sweep_rows, main, trace_header
from blaircomp.errors import ConfigError, DegenerateAlignmentError, ParameterError

from helpers import (fit_noise_slope_loop, noise_sweep_rows_loop, run_desk_scale,
                     write_csv_rows)


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
        for name in ("trace", "stages", "report"):
            with open(r1["paths"][name], "rb") as f1, \
                    open(r2["paths"][name], "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_worker_pool_matches_serial(self, tmp_path):
        # 614 KB of design tensor per trial: one block each, so jobs=2
        # starts a pool.
        case = dict(s=2, N=16, m=1200, max_iters=30, trials=3)
        pooled_cfg = _tiny_cfg(tmp_path / "p", jobs=2, **case)
        assert cli._trial_blocks(pooled_cfg) == [(0, 1), (1, 1), (2, 1)]
        serial = bc.run_experiment(_tiny_cfg(tmp_path / "s", jobs=1, **case))
        pooled = bc.run_experiment(pooled_cfg)
        assert serial["ok"] and pooled["ok"]
        for name in ("trace", "stages", "report"):
            with open(serial["paths"][name], "rb") as f1, \
                    open(pooled["paths"][name], "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_stages_json_structure(self, tmp_path):
        result = bc.run_experiment(_tiny_cfg(tmp_path / "r3"))
        with open(result["paths"]["stages"]) as fh:
            doc = json.load(fh)
        assert doc["config"]["preset"] == "custom"
        assert len(doc["trials"]) == 2
        assert "wall_clock_s" not in doc
        assert "stages" in doc["trials"][0]
        with open(result["paths"]["timings"]) as fh:
            timings = json.load(fh)
        assert timings["wall_clock_s"] > 0 and timings["jobs"] == 1

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
        inst, _, trace = run_desk_scale(3, s=s, max_iters=40)
        grid = [1.0, 10.0, 1e3, 1e5]
        rows = _noise_sweep_rows(trace, inst.truth, grid, np.random.default_rng(8), 2)
        ref = noise_sweep_rows_loop(trace, inst.truth, grid,
                                    np.random.default_rng(8), 2)
        ref = np.asarray(ref)
        assert rows.shape == ref.shape
        np.testing.assert_array_equal(rows[:, :3], ref[:, :3])
        np.testing.assert_allclose(rows[:, 3], ref[:, 3], rtol=1e-14, atol=0)

    def test_diagnostics_preset_emits_hypotheses(self, tmp_path):
        cfg = bc.parse_config(overrides=dict(
            preset="diagnostics", K=6, m=60, max_iters=10, loo_samples=2,
            trials=1, seed=4, out=str(tmp_path / "diag"), jobs=1))
        result = bc.run_experiment(cfg)
        assert result["ok"]
        assert result["report"]["concentration"][0]["incoherence"] > 0
        assert os.path.exists(os.path.join(cfg.out, "hypotheses_0.csv"))


_BLOCK_CASES = {
    "noise-sweep": dict(preset="noise-sweep", max_iters=400),
    "components": dict(preset="components", K=6, max_iters=400),        # s = 4
    "fig1-convergence": dict(preset="fig1-convergence", K=4, m=120, max_iters=300),
}
_BLOCK_ARTIFACTS = ("trace.csv", "stages.json", "report.json", "noise_sweep.csv")


def _artifact_bytes(out):
    return {name: (out / name).read_bytes() for name in _BLOCK_ARTIFACTS
            if (out / name).exists()}


def _run_with_block_bytes(monkeypatch, out, block_bytes, **overrides):
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
    cfg = bc.parse_config(overrides=dict(dict(seed=3, jobs=1, out=str(out)),
                                         **overrides))
    return bc.run_experiment(cfg)


# Values whose text a writer can get wrong: NaN (two payloads and a sign),
# +-inf, -0.0 next to 0.0, subnormals, 1e16 and 1e-300.
_SPECIAL = np.r_[np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64)
                 .view(float),
                 np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 1e16, 1e-300, 1 / 3]


class TestArtifactWriters:
    @pytest.mark.parametrize("header, tables", [
        (["a", "b", "c"], [np.zeros((0,))]),
        (["a", "b", "c"], [[]]),
        (["a", "b", "c"], [[[1.5, -2.0, 3e-5]]]),
        (["v"], [[[1.0], [1.0], [2.0], [3.0]]]),
        # column a: exactly half distinct; b: all unique; c: all equal
        (["a", "b", "c"], [np.column_stack([[1, 2, 3, 1, 2, 3], np.arange(6) / 7,
                                            np.full(6, 4.25)])]),
        (["a", "b", "c"], [np.column_stack([np.repeat(_SPECIAL, 2),
                                            np.r_[_SPECIAL, -_SPECIAL],
                                            np.tile([-0.0, 0.0], len(_SPECIAL))])]),
        (["z"], [[[-0.0], [0.0], [0.0], [-0.0]]]),
        (["trial", "t"], [np.column_stack([np.zeros(5), np.arange(5)]), [],
                          np.column_stack([np.ones(3), np.arange(3) * 2]),
                          [[2.0, -0.0]]]),
    ], ids=["empty", "empty_list", "one_row", "one_column", "half_distinct", "special",
            "signed_zeros", "several_tables"])
    def test_write_csv_matches_per_row_writer(self, tmp_path, header, tables):
        cli._write_csv(str(tmp_path / "fast.csv"), header, tables)
        write_csv_rows(str(tmp_path / "rows.csv"), header, tables)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())

    def test_fit_noise_slope_matches_masked_loop(self):
        rng = np.random.default_rng(4)
        grid = [1.0, 10.0, 1e3, 1e5]
        # trial 1 logs fewer points than the fit window
        lengths = {0: 25, 1: cli._NOISE_FIT_WINDOW - 3, 2: 13, 3: 30}
        rows = np.array([[trial, 3 * t, sigma_w, rng.uniform(0.1, 2.0) / sigma_w]
                         for trial, n in lengths.items() for t in range(n)
                         for sigma_w in grid])
        rows = rows[rng.permutation(len(rows))]
        assert cli.fit_noise_slope(rows) == fit_noise_slope_loop(rows)

    @pytest.mark.parametrize("grid", [[10.0], []], ids=["one_sigma_w", "no_rows"])
    def test_fit_noise_slope_needs_two_sigma_w(self, grid):
        rows = [[0, t, sigma_w, 0.1 + 0.01 * t] for t in range(20) for sigma_w in grid]
        with pytest.raises(ParameterError):
            cli.fit_noise_slope(rows)


class TestTrialBlocks:
    """Trials solved together in one lockstep call write the bytes of
    trials solved one per call."""

    @pytest.mark.parametrize("cadence", [1, 7])
    @pytest.mark.parametrize("preset", sorted(_BLOCK_CASES))
    def test_block_size_is_invisible(self, tmp_path, monkeypatch, preset, cadence):
        case = dict(_BLOCK_CASES[preset], trials=3, cadence=cadence)
        alone = _run_with_block_bytes(monkeypatch, tmp_path / "alone", 1, **case)
        cfg = bc.parse_config(overrides=dict(case, out="unused"))
        assert cli._trial_blocks(cfg) == [(0, 1), (1, 1), (2, 1)]
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 1 << 40)
        assert cli._trial_blocks(cfg) == [(0, 3)]
        together = _run_with_block_bytes(monkeypatch, tmp_path / "together",
                                         1 << 40, **case)
        assert together["ok"] and alone["ok"]
        if preset != "fig1-convergence":       # the others stop on tol
            assert all(t["converged"] for t in together["trials"])
        want = _artifact_bytes(tmp_path / "alone")
        assert len(want) == 3 + (preset == "noise-sweep")
        assert _artifact_bytes(tmp_path / "together") == want

    def test_block_layout(self):
        def blocks(**overrides):
            cfg = bc.parse_config(overrides=dict(overrides, out="unused"))
            return cli._trial_blocks(cfg)

        # 16 KB of design tensor per trial: one block, whatever the pool size.
        assert blocks(preset="noise-sweep", trials=16, jobs=1) == [(0, 16)]
        assert blocks(preset="noise-sweep", trials=16, jobs=2) == [(0, 16)]
        assert blocks(preset="noise-sweep", trials=2, jobs=4) == [(0, 2)]
        # 3.2 MB per fig1 trial, above the cap: each trial alone.
        assert blocks(preset="fig1-convergence", trials=4) == \
            [(0, 1), (1, 1), (2, 1), (3, 1)]
        # 320 KB per components trial: at most three to a block.
        assert blocks(preset="components", trials=7) == [(0, 3), (3, 2), (5, 2)]
        # A diagnostics trial's run axis holds its auxiliary runs.
        assert blocks(preset="diagnostics", trials=2) == [(0, 1), (1, 1)]

    def test_diverging_trial_ends_only_itself(self, tmp_path, monkeypatch):
        # Trial 1's measurements and design are scaled up, so it diverges at
        # the preset step size; trials 0 and 2 share its block.
        real = cli.make_instance

        def make_instance(*args, seed, **kwargs):
            inst = real(*args, seed=seed, **kwargs)
            if seed.entropy[1] != 1:
                return inst
            return bc.ProblemInstance(s=inst.s, K=inst.K, N=inst.N, m=inst.m,
                                      b_rows=inst.b_rows, a=inst.a * 30.0,
                                      truth=inst.truth, y=inst.y * 30.0)

        case = dict(preset="noise-sweep", trials=3, max_iters=400)
        ref = _run_with_block_bytes(monkeypatch, tmp_path / "ref", 1 << 40, **case)
        monkeypatch.setattr(cli, "make_instance", make_instance)
        together = _run_with_block_bytes(monkeypatch, tmp_path / "together",
                                         1 << 40, **case)
        alone = _run_with_block_bytes(monkeypatch, tmp_path / "alone", 1, **case)
        failed = together["trials"][1]
        assert failed["diverged"] and failed["error_type"] == "DivergenceError"
        assert failed == alone["trials"][1]
        assert together["trials"][::2] == ref["trials"][::2]
        assert _artifact_bytes(tmp_path / "together") == \
            _artifact_bytes(tmp_path / "alone")
        cols = bc.read_trace_csv(together["paths"]["trace"])
        ref_cols = bc.read_trace_csv(ref["paths"]["trace"])
        keep = ref_cols["trial"] != 1.0
        for name in ("loss", "relative_error", "abs_alpha_x_0"):
            np.testing.assert_array_equal(cols[name], ref_cols[name][keep])

    def test_zero_block_trial_ends_only_itself(self, tmp_path, monkeypatch):
        real = cli.random_init

        def random_init(s, K, N, rng):
            z0 = real(s, K, N, rng)
            if rng.bit_generator.seed_seq.entropy[1] == 1:
                z0.x[0] = 0.0
            return z0

        case = dict(preset="noise-sweep", trials=3, max_iters=400)
        ref = _run_with_block_bytes(monkeypatch, tmp_path / "ref", 1 << 40, **case)
        monkeypatch.setattr(cli, "random_init", random_init)
        result = _run_with_block_bytes(monkeypatch, tmp_path / "z", 1 << 40, **case)
        assert result["trials"][1]["error_type"] == "DegenerateAlignmentError"
        assert not result["trials"][1]["diverged"]
        assert result["trials"][::2] == ref["trials"][::2]


def _fail_trial_1(monkeypatch):
    """Make trial 1's instance build raise; trial k's seed is [seed, k]."""
    real = cli.make_instance

    def make_instance(*args, seed, **kwargs):
        if seed.entropy[1] == 1:
            raise DegenerateAlignmentError("forced failure in trial 1")
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "make_instance", make_instance)


class TestTrialFailure:
    # jobs=2 relies on forked workers inheriting the patched module.
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers do not inherit the patch"))])
    def test_failed_trial_recorded_and_others_written(self, tmp_path, monkeypatch,
                                                      jobs):
        ref = bc.run_experiment(_tiny_cfg(tmp_path / "ok", trials=3))
        _fail_trial_1(monkeypatch)
        cfg = _tiny_cfg(tmp_path / "f", trials=3, jobs=jobs)
        # trial 1 shares its block with trial 0 and trial 2; at jobs=2 a cap
        # of two trials per block makes two blocks, so a pool starts
        if jobs == 2:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", 2 * 16 * 80 * 4)
        assert cli._trial_blocks(cfg)[0] == (0, {1: 3, 2: 2}[jobs])
        result = bc.run_experiment(cfg)
        assert not result["ok"]
        failed = result["trials"][1]
        assert failed["error_type"] == "DegenerateAlignmentError"
        assert "forced failure" in failed["error"] and not failed["diverged"]
        assert [t["error"] for t in result["trials"][::2]] == [None, None]
        cols = bc.read_trace_csv(result["paths"]["trace"])
        assert set(cols["trial"]) == {0.0, 2.0}
        with open(result["paths"]["stages"]) as fh:
            recorded = json.load(fh)["trials"][1]
        assert recorded["error_type"] == "DegenerateAlignmentError"
        assert result["report"]["n_failed"] == 1
        assert result["report"]["n_diverged"] == 0
        # the other trials are the ones an unbroken run writes
        ref_cols = bc.read_trace_csv(ref["paths"]["trace"])
        keep = ref_cols["trial"] != 1.0
        np.testing.assert_array_equal(cols["loss"], ref_cols["loss"][keep])

    def test_main_exits_1_naming_the_type(self, tmp_path, monkeypatch, capsys):
        _fail_trial_1(monkeypatch)
        code = main(["run", "--preset", "custom", "--s", "1", "--K", "4",
                     "--N", "4", "--m", "60", "--eta", "0.1", "--max-iters",
                     "20", "--trials", "2", "--seed", "2", "--jobs", "1",
                     "--out", str(tmp_path / "cli")])
        assert code == 1
        out = capsys.readouterr().out
        assert "trial 1: FAILED (DegenerateAlignmentError: forced failure" in out
        assert "trial 0: finished" in out


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
        (["--preset", "noise-sweep", "--eta", "inf"], None),
        (["--preset", "noise-sweep", "--sigma2-e", "inf"], None),
        (["--preset", "noise-sweep", "--sigma-w-grid", "1,inf"], None),
        (["--preset", "noise-sweep", "--sigma-w-grid", "10"], None),
        (["--preset", "noise-sweep", "--sigma-w-grid", "10,1e1"], None),
        (["--preset", "noise-sweep", "--max-iters", "0"], None),
        (["--preset", "diagnostics", "--loo-samples", "-1"], None),
        (["--preset", "noise-sweep"], "two"),
        (["--preset", "fig1-convergence", "--K", "4", "--seed", "-1"], None),
        (["--preset", "noise-sweep", "--jobs", "-3"], None),
        (["--preset", "noise-sweep", "--jobs", "0"], None),
        (["--preset", "noise-sweep"], "0"),
        (["--preset", "noise-sweep"], "-2"),
    ], ids=["cadence", "sigma_w_grid", "K_above_m", "sigma2_e", "q", "eta_nan",
            "eta_inf", "sigma2_e_inf", "sigma_w_grid_inf", "sigma_w_grid_single",
            "sigma_w_grid_repeated", "max_iters",
            "loo_samples", "jobs_env", "seed", "jobs_negative", "jobs_zero",
            "jobs_env_zero", "jobs_env_negative"])
    def test_bad_input_rejected_at_boundary(self, flags, env, tmp_path, capsys,
                                            monkeypatch):
        if env is not None:
            monkeypatch.setenv("BLAIRCOMP_JOBS", env)
        out = tmp_path / "bad"
        assert main(["run", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_import_does_not_load_process_pool(self):
        src = os.path.dirname(os.path.dirname(bc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, blaircomp; "
                 "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_diagnostics_subcommand(self, tmp_path):
        code = main(["diagnostics", "--K", "4", "--m", "40", "--max-iters", "8",
                     "--loo-samples", "2", "--seed", "1", "--jobs", "1",
                     "--out", str(tmp_path / "d")])
        assert code == 0
        assert os.path.exists(tmp_path / "d" / "hypotheses_0.csv")

    def test_diagnostics_without_dropped_samples(self, tmp_path):
        code = main(["diagnostics", "--K", "4", "--m", "40", "--max-iters", "8",
                     "--loo-samples", "0", "--seed", "1", "--jobs", "1",
                     "--out", str(tmp_path / "d")])
        assert code == 0
        with open(tmp_path / "d" / "hypotheses_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            loo = row["quantity"].startswith(("loo_", "double_diff_"))
            assert (row["value"] == "nan") == loo, row

    def test_removed_preset_name_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "ratio-growth", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        code = main(["run", "--preset", "custom", "--s", "1", "--K", "4",
                     "--N", "4", "--m", "60", "--eta", "1e6", "--max-iters",
                     "20", "--trials", "1", "--seed", "2", "--jobs", "1",
                     "--out", str(tmp_path / "div")])
        assert code == 1
        assert "DIVERGED" in capsys.readouterr().out
