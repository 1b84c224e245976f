import csv
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import blaircomp as bc
from blaircomp import cli, ensemble
from blaircomp.cli import _noise_sweep_rows, main, trace_header
from blaircomp.errors import (ConfigError, DimensionMismatchError, DivergenceError,
                              ParameterError)

from helpers import (fit_noise_slope_loop, noise_sweep_rows_loop, run_desk_scale,
                     traced_peak, write_csv_rows)


# What parse_config({"preset": preset, **overrides}) resolves to: the fields
# _RESOLVED_KEYS of each case, and _RESOLVED_REST for the rest.
_RESOLVED_KEYS = ("s", "K", "N", "m", "m_factor", "eta", "max_iters", "tol",
                  "sigma_w_grid", "loo_samples")
_RESOLVED_REST = {"sigma2_e": 0.0, "q": None, "trials": 1, "seed": 0, "out": "results",
                  "cadence": 1, "jobs": None}
_GRID = [1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0]
_INF = float("inf")
_RESOLVED = [
    ("fig1-convergence", {}, (10, 20, 20, None, 50, 0.1, 500, 1e-06, None, None)),
    ("fig1-convergence", {"K": 6}, (10, 6, 6, None, 50, 0.1, 500, 1e-06, None, None)),
    ("fig1-convergence", {"m": 90}, (10, 20, 20, 90, None, 0.1, 500, 1e-06, None, None)),
    ("fig1-convergence", {"m_factor": 20}, (10, 20, 20, None, 20, 0.1, 500, 1e-06, None, None)),
    ("fig1-convergence", {"K": 6, "N": 3}, (10, 6, 3, None, 50, 0.1, 500, 1e-06, None, None)),
    ("components", {}, (4, 10, 10, None, 50, 0.1, 500, 1e-06, None, None)),
    ("components", {"K": 6}, (4, 6, 6, None, 50, 0.1, 500, 1e-06, None, None)),
    ("components", {"m": 90}, (4, 10, 10, 90, None, 0.1, 500, 1e-06, None, None)),
    ("components", {"m_factor": 20}, (4, 10, 10, None, 20, 0.1, 500, 1e-06, None, None)),
    ("components", {"K": 6, "N": 3}, (4, 6, 3, None, 50, 0.1, 500, 1e-06, None, None)),
    ("noise-sweep", {}, (1, 10, 10, 100, None, 0.1, 500, 1e-06, _GRID, None)),
    ("noise-sweep", {"K": 6}, (1, 6, 6, 100, None, 0.1, 500, 1e-06, _GRID, None)),
    ("noise-sweep", {"m": 90}, (1, 10, 10, 90, None, 0.1, 500, 1e-06, _GRID, None)),
    ("noise-sweep", {"m_factor": 20}, (1, 10, 10, None, 20, 0.1, 500, 1e-06, _GRID, None)),
    ("noise-sweep", {"K": 6, "N": 3}, (1, 6, 3, 100, None, 0.1, 500, 1e-06, _GRID, None)),
    ("diagnostics", {}, (2, 8, 8, None, 50, 0.1, 80, _INF, None, 8)),
    ("diagnostics", {"K": 6}, (2, 6, 6, None, 50, 0.1, 80, _INF, None, 8)),
    ("diagnostics", {"m": 90}, (2, 8, 8, 90, None, 0.1, 80, _INF, None, 8)),
    ("diagnostics", {"m_factor": 20}, (2, 8, 8, None, 20, 0.1, 80, _INF, None, 8)),
    ("diagnostics", {"K": 6, "N": 3}, (2, 6, 3, None, 50, 0.1, 80, _INF, None, 8)),
]


def _traces_at_m_1():
    """``measure_hypotheses``' arguments on a one-sample instance."""
    inst = bc.make_instance(1, 1, 1, 1, seed=0)
    trace = bc.run_wf(inst, bc.random_init(1, 1, 1, np.random.default_rng(0)),
                      bc.SolverSettings(max_iters=1))
    return [trace], [trace], inst


# Each input rule the config boundary runs from the library: overrides that
# break it, and a library call that the same value fails.
_CUSTOM = {"preset": "custom", "s": 1, "K": 4, "m": 40}
_LIBRARY_RULES = {
    "sizes": ({**_CUSTOM, "s": 0}, lambda: bc.make_instance(0, 4, 4, 40)),
    "m_factor_sizes": ({**_CUSTOM, "m": None, "m_factor": 0},
                       lambda: bc.make_instance(1, 4, 4, 0)),
    "K_above_m": ({**_CUSTOM, "K": 30, "m": 20}, lambda: bc.generate_partial_dft(20, 30)),
    "q_length": ({**_CUSTOM, "q": [1.0, 1.0]},
                 lambda: bc.sample_ground_truth(1, 4, 4, [1.0, 1.0],
                                                np.random.default_rng(0))),
    "q_range": ({**_CUSTOM, "q": [1e-160]},
                lambda: bc.sample_ground_truth(1, 4, 4, [1e-160], np.random.default_rng(0))),
    "q_nan": ({**_CUSTOM, "q": [float("nan")]},
              lambda: bc.make_instance(1, 4, 4, 40, q=[float("nan")])),
    "sigma2_e": ({**_CUSTOM, "sigma2_e": -1.0},
                 lambda: bc.make_instance(1, 4, 4, 40, sigma2_e=-1.0)),
    "sigma2_e_inf": ({**_CUSTOM, "sigma2_e": float("inf")},
                     lambda: bc.synthesize_measurements(
                         bc.generate_partial_dft(4, 2), np.ones((1, 4, 2), complex),
                         bc.sample_ground_truth(1, 2, 2, [1.0], np.random.default_rng(0)),
                         float("inf"))),
    "loo_samples": ({**_CUSTOM, "loo_samples": -1},
                    lambda: bc.select_loo_indices(40, -1, np.random.default_rng(0))),
    "diagnostics_m": ({"preset": "diagnostics", "s": 1, "K": 1, "m": 1},
                      lambda: bc.measure_hypotheses(*_traces_at_m_1())),
}


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
        assert str(exc.value) == "missing required fields: s, K, N, m or m_factor"

    def test_diagnostics_built_without_loo_samples_is_a_config_error(self):
        # The preset sets loo_samples, so a config that names it needs one.
        cfg = bc.ExperimentConfig(preset="diagnostics", s=2, K=8, m_factor=50)
        with pytest.raises(ConfigError, match="^missing required fields: loo_samples$"):
            cfg.validate()
        dataclasses.replace(cfg, loo_samples=8).validate()

    def test_custom_needs_only_s_K_and_m(self):
        cfg = bc.parse_config(overrides={"preset": "custom", "s": 1, "K": 4, "m": 40})
        assert (cfg.N, cfg.eta, cfg.max_iters) == (4, 0.1, 500)

    @pytest.mark.parametrize("preset, overrides, resolved", _RESOLVED, ids=[
        "-".join([preset, *(f"{key}{value}" for key, value in overrides.items())])
        for preset, overrides, _ in _RESOLVED])
    def test_preset_resolves_to_its_fields(self, preset, overrides, resolved):
        cfg = bc.parse_config(overrides={"preset": preset, **overrides})
        assert dataclasses.asdict(cfg) == {"preset": preset,
                                           **dict(zip(_RESOLVED_KEYS, resolved)),
                                           **_RESOLVED_REST}

    def test_presets_hold_only_what_sets_them_apart(self):
        defaults = dataclasses.asdict(bc.ExperimentConfig())
        for values in cli._PRESETS.values():
            assert all(value != defaults[key] for key, value in values.items()), values

    def test_preset_grid_is_not_shared(self):
        first = bc.parse_config(overrides={"preset": "noise-sweep"})
        first.sigma_w_grid.append(1e6)
        second = bc.parse_config(overrides={"preset": "noise-sweep"})
        assert second.sigma_w_grid == [1.0, 1e1, 1e2, 1e3, 1e4, 1e5]
        assert second.sigma_w_grid is not first.sigma_w_grid

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
        text = ("\n# the reference sweep\n   \n"
                "preset = noise-sweep  # reference setting\n"
                "sigma_w_grid = 1,10,100\nq = 1.0\n")
        path = tmp_path / "exp.cfg"
        for head in (b"", b"\xef\xbb\xbf"):     # a UTF-8 byte-order mark is not text
            path.write_bytes(head + text.encode())
            cfg = bc.parse_config(str(path))
            assert cfg.sigma_w_grid == [1.0, 10.0, 100.0]
            assert cfg.q == [1.0]
        path.write_bytes(b"\xef\xbb\xbfpreset = custom\ns = 1\nK = 4\nm = 40\n")
        assert bc.parse_config(str(path)).preset == "custom"

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("preset = noise-sweep\nK 12\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:2: expected key = value$"):
            bc.parse_config(str(path))

    @pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_file_rejected(self, tmp_path, name):
        with pytest.raises(ConfigError, match="^cannot read config file: "):
            bc.parse_config(str(tmp_path / name))

    def test_non_utf8_file_is_a_config_error(self, tmp_path, capsys):
        # one Latin-1 byte, in a comment
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"# caf\xe9\npreset = noise-sweep\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file: ")
        assert not out.exists()

    def test_key_given_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("preset = noise-sweep\nK = 12\ntrials = 2\nK=14\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:4: K given twice$"):
            bc.parse_config(str(path))
        # a flag does not make the file valid
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--K", "16", "--out", str(out)]) == 2
        assert "config error: " in capsys.readouterr().err and not out.exists()
        # once in the file, the key is still overridden by a flag
        path.write_text("preset = noise-sweep\nK = 12\n")
        assert bc.parse_config(str(path), overrides={"K": 16}).K == 16

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ConfigError):
            bc.parse_config(overrides={"preset": "noise-sweep", "trials": 0})

    @pytest.mark.parametrize("key, value", [("q", ["x"]), ("sigma_w_grid", [1, "y"])])
    def test_bad_list_entry_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            bc.parse_config(overrides={"preset": "noise-sweep", key: value})

    def test_noise_sweep_built_without_a_grid_is_a_config_error(self):
        cfg = bc.parse_config(overrides={"preset": "noise-sweep"})
        with pytest.raises(ConfigError, match="sigma_w_grid"):
            dataclasses.replace(cfg, sigma_w_grid=None).validate()

    @pytest.mark.parametrize("key, value", [
        ("max_iters", 10.5), ("s", 1.5), ("seed", 1.5), ("trials", 2.0),
        ("cadence", 2.5), ("K", True), ("jobs", 1.0), ("m", np.float64(100.0))])
    def test_int_field_given_a_non_int_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            bc.parse_config(overrides={"preset": "noise-sweep", key: value})
        cfg = bc.parse_config(overrides={"preset": "noise-sweep"})
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            dataclasses.replace(cfg, **{key: value}).validate()

    @pytest.mark.parametrize("key, value", [
        ("eta", "0.1"), ("tol", "1e-6"), ("sigma2_e", None), ("trials", None),
        ("loo_samples", 2.0), ("q", 1.0), ("sigma_w_grid", 10.0),
        ("sigma_w_grid", [1, "y"]), ("out", 3), ("eta", True), ("q", [True]),
        ("sigma_w_grid", [True, 10]), ("q", (0.5,)), ("q", {0.5: 1}), ("q", ["0.5"]),
        ("q", b"0.5"), ("preset", ["noise-sweep"])])
    def test_field_given_a_value_of_another_kind_is_a_config_error(self, key, value):
        cfg = bc.parse_config(overrides={"preset": "noise-sweep"})
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            dataclasses.replace(cfg, **{key: value}).validate()
        if value is not None and not isinstance(value, str):   # else unset or text
            with pytest.raises(ConfigError, match=f"bad value for {key}"):
                bc.parse_config(overrides={"preset": "noise-sweep", key: value})

    @pytest.mark.parametrize("rule", _LIBRARY_RULES)
    def test_config_error_is_the_library_error(self, rule):
        overrides, call = _LIBRARY_RULES[rule]
        with pytest.raises((ParameterError, DimensionMismatchError)) as library:
            call()
        with pytest.raises(ConfigError) as config:
            bc.parse_config(overrides=overrides)
        assert str(config.value) == str(library.value)


# A value for each config key that differs from its default and is valid on
# top of the components preset (s = 4).
_KEY_SAMPLES = {"preset": "diagnostics", "s": "3", "K": "12", "N": "7", "m": "90",
                "m_factor": "20", "eta": "0.05", "max_iters": "40", "tol": "1e-3",
                "sigma2_e": "0.01", "sigma_w_grid": "1,10,100", "q": "1,0.5,0.25,1",
                "trials": "3", "seed": "11", "out": "elsewhere", "cadence": "5",
                "loo_samples": "2", "jobs": "2"}


def _flag(key):
    return "--" + key.replace("_", "-")


def _main_config(monkeypatch, argv):
    """The config that ``main(argv)`` runs, with the run itself stubbed out."""
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg: seen.append(cfg) or {"ok": True, "trials": []})
    assert main(argv) == 0
    return seen[0]


class TestKeysFromFields:
    @pytest.mark.parametrize("field", dataclasses.fields(bc.ExperimentConfig),
                             ids=lambda field: field.name)
    def test_flag_and_config_line_agree(self, field, tmp_path, monkeypatch):
        settings = {"preset": "components", field.name: _KEY_SAMPLES[field.name]}
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        from_file = _main_config(monkeypatch, ["run", "--config", str(path)])
        flags = [arg for key, value in settings.items() for arg in (_flag(key), value)]
        assert _main_config(monkeypatch, ["run", *flags]) == from_file
        assert getattr(from_file, field.name) != getattr(bc.ExperimentConfig(), field.name)

    def test_file_and_flags_write_the_same_bytes(self, tmp_path, monkeypatch):
        # An unsorted grid, so the slope fit orders sigma_w itself.
        path = tmp_path / "sweep.cfg"
        path.write_text("preset = noise-sweep\nK = 12\ntrials = 3\nseed = 4\n"
                        "cadence = 3\nsigma_w_grid = 100, 1, 10\n")
        seen, real = [], cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or real(cfg))
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["run", "--config", str(path), "--out", str(one)]) == 0
        assert main(["run", "--preset", "noise-sweep", "--K", "12", "--trials", "3",
                     "--seed", "4", "--cadence", "3", "--sigma-w-grid", "100,1,10",
                     "--out", str(two)]) == 0
        assert seen[0] == dataclasses.replace(seen[1], out=str(one))
        assert seen[0].sigma_w_grid == [100.0, 1.0, 10.0]
        for name in ("trace.csv", "stages.json", "report.json", "plot.gp",
                     "noise_sweep.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        # the header, then each trial's last 10 log points per sigma_w: 1 + 3 x 10 x 3
        assert len((one / "noise_sweep.csv").read_bytes().splitlines()) == 91

    def test_help_lists_one_flag_per_field(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^\s+(--[\w-]+)", capsys.readouterr().out, re.M)
        assert listed == ["--config"] + [_flag(field.name) for field
                                         in dataclasses.fields(bc.ExperimentConfig)]


def _assert_reprints(path):
    """The CSV at ``path``, read back by ``read_trace_csv`` and printed again
    one field at a time with '%.17g', is the same bytes."""
    cols = bc.read_trace_csv(path)
    write_csv_rows(path + ".rows", list(cols), [np.column_stack(list(cols.values()))])
    with open(path, "rb") as f1, open(path + ".rows", "rb") as f2:
        assert f1.read() == f2.read(), path


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
        _assert_reprints(result["paths"]["trace"])

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

    @pytest.mark.parametrize("case, workers", [
        # one block, which runs in the main process
        (dict(preset="noise-sweep", trials=2, jobs=2, max_iters=20), 1),
        # test_worker_pool_matches_serial's three blocks
        (dict(preset="custom", s=2, K=4, N=16, m=1200, max_iters=30, trials=3, jobs=4), 3),
    ], ids=["one_block", "three_blocks"])
    def test_timings_record_the_workers_used(self, tmp_path, case, workers):
        cfg = bc.parse_config(overrides=dict(case, out=str(tmp_path / "w")))
        with open(bc.run_experiment(cfg)["paths"]["timings"]) as fh:
            assert json.load(fh)["jobs"] == workers

    def test_N_defaults_to_K_in_a_config_built_in_python(self, tmp_path):
        settings = dict(preset="custom", s=1, K=4, m=40, max_iters=5, jobs=1,
                        out=str(tmp_path / "n"))
        cfg = bc.ExperimentConfig(**settings)
        assert cfg.N == 4 and cfg == bc.parse_config(overrides=settings)
        result = bc.run_experiment(cfg)
        assert result["ok"]
        with open(result["paths"]["stages"]) as fh:
            assert json.load(fh)["config"]["N"] == 4

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
        assert (timings["wall_clock_s"] > timings["artifacts_s"] > 0
                and timings["jobs"] == 1)

    def test_noise_sweep_report(self, tmp_path):
        def reject(name):
            raise AssertionError(f"{name} in report.json")

        # The smallest accepted sigma_w, 5e-201, has noise scale 1e100: its
        # squared noisy errors stay finite, so the report is strict JSON.
        for k, grid in enumerate(["1,100,10000", "5e-201,1"]):
            cfg = bc.parse_config(overrides=dict(
                preset="noise-sweep", trials=1, seed=9, max_iters=200,
                sigma_w_grid=grid, out=str(tmp_path / f"ns{k}"), jobs=1))
            result = bc.run_experiment(cfg)
            assert result["ok"]
            sweep = result["report"]["noise_sweep"]
            assert len(sweep["points"]) == len(cfg.sigma_w_grid)
            assert -1.5 < sweep["slope_db_per_db"] < -0.5
            assert os.path.exists(result["paths"]["noise"])
            _assert_reprints(result["paths"]["noise"])
            with open(result["paths"]["report"]) as fh:
                json.loads(fh.read(), parse_constant=reject)

    @pytest.mark.parametrize("s", [1, 3])
    def test_noise_sweep_rows_match_per_row_loop(self, s):
        # The loop's last rows: the fit window of 41 log points, and all 6
        # of a run shorter than the window.
        grid = [1.0, 10.0, 1e3, 1e5]
        for max_iters, n_kept in ((40, cli._NOISE_FIT_WINDOW), (5, 6)):
            inst, _, trace = run_desk_scale(3, s=s, max_iters=max_iters)
            rows = _noise_sweep_rows(trace, grid, np.random.default_rng(8), 2)
            ref = noise_sweep_rows_loop(trace, inst.truth, grid,
                                        np.random.default_rng(8), 2)
            ref = np.asarray(ref)[-n_kept * len(grid):]
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

    # The keys, not the preset's name, turn on a trial's extra work.
    def test_grid_runs_the_noise_sweep_in_any_preset(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "ns", sigma_w_grid="1,10", max_iters=200)
        result = bc.run_experiment(cfg)
        assert result["ok"]
        assert len(result["report"]["noise_sweep"]["points"]) == 2
        assert result["paths"]["noise"] == os.path.join(cfg.out, "noise_sweep.csv")
        _assert_reprints(result["paths"]["noise"])

    def test_loo_samples_runs_the_suite_in_any_preset(self, tmp_path):
        cfg = bc.parse_config(overrides=dict(
            preset="components", K=4, m=60, max_iters=10, loo_samples=2,
            trials=2, seed=4, out=str(tmp_path / "suite"), jobs=1))
        assert cli._trial_blocks(cfg) == [(0, 1), (1, 1)]
        result = bc.run_experiment(cfg)
        assert result["ok"]
        report = result["report"]
        assert len(report["concentration"]) == 2
        assert all(c["incoherence"] > 0 for c in report["concentration"])
        assert report["hypotheses_csv"] == ["hypotheses_0.csv", "hypotheses_1.csv"]
        assert os.path.exists(os.path.join(cfg.out, "hypotheses_1.csv"))


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


def _random_doubles(n, seed):
    """n random bit patterns covering every biased exponent (subnormals,
    inf and nan payloads included), with random mantissas and signs."""
    rng = np.random.default_rng(seed)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    exponent = np.arange(n, dtype=np.uint64) % np.uint64(2048) << np.uint64(52)
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return (mantissa | exponent | sign).view(float)


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.column_stack([np.nextafter(values, -np.inf), values,
                            np.nextafter(values, np.inf)])


def _long_table():
    """Rows for several formatting calls, in two tables: columns 0 and 2
    repeat, and their runs of one value straddle the calls' boundaries."""
    n = 5 * cli._CSV_CHUNK_FIELDS // 2
    rng = np.random.default_rng(6)
    rows = np.column_stack([np.repeat(np.arange(7.0), n // 7 + 1)[:n], rng.normal(size=n),
                            np.arange(n) % 5 * 0.1, rng.uniform(-1e-6, 1e6, n)])
    return [rows[:7001], rows[7001:]]


# 17 digits of an odd multiple of 1/8 in [1e14, 1e15) end on a tie, broken
# to even: ...84.875 prints as ...84.88 and ...84.625 as ...84.62.
_TIES = np.r_[123456789012384.875, 123456789012384.625,
              (2 * np.random.default_rng(3).integers(4 * 10**14, 4 * 10**15, 2000) + 1) / 8]


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
        (["a", "b", "c", "d"], [_random_doubles(10**5, 5).reshape(-1, 4)]),
        (["below", "at", "above"], [_with_neighbours([float(f"1e{k}")
                                                      for k in range(-323, 309)])]),
        (["v"], [np.ldexp(1.0, np.arange(-1074, 1024))[:, None]]),
        (["below", "at", "above"], [_with_neighbours([1e-5, 1e-4, 1e16, 1e17])]),
        (["near_2_53", "near_1e17"], [np.column_stack([2.0**53 + np.arange(-64, 65),
                                                       1e17 + 16 * np.arange(-64, 65)])]),
        (["v"], [_TIES[:, None]]),
        (["v", "w"], [[[np.copysign(np.nan, -1.0), 1.0], [2.0, -np.nan]]]),
        (["a", "b", "c", "d"], _long_table()),
    ], ids=["empty", "empty_list", "one_row", "one_column", "half_distinct", "special",
            "signed_zeros", "several_tables", "random_bits", "powers_of_ten",
            "powers_of_two", "g_switch_points", "integers", "ties", "negative_nan",
            "several_chunks"])
    def test_write_csv_matches_per_row_writer(self, tmp_path, header, tables):
        cli._write_csv(str(tmp_path / "fast.csv"), header, tables)
        write_csv_rows(str(tmp_path / "rows.csv"), header, tables)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())

    def test_write_csv_peak_memory_stays_near_one_chunk(self, tmp_path):
        # Eight chunks of 17-digit values: one '%' over the whole table holds
        # every field as a Python float, its tuple and its text at once,
        # about 4 MiB; chunked, the writer holds one chunk's worth.
        table = np.random.default_rng(9).normal(size=(cli._CSV_CHUNK_FIELDS, 8))
        _, peak = traced_peak(cli._write_csv, str(tmp_path / "t.csv"),
                              list("abcdefgh"), [table])
        assert peak < table.nbytes + 2**20

    def test_fit_noise_slope_matches_masked_loop(self):
        rng = np.random.default_rng(4)
        # trial 1 logs fewer points than the fit window
        lengths = {0: 25, 1: cli._NOISE_FIT_WINDOW - 3, 2: 13, 3: 30}
        for grid in ([1.0, 10.0, 1e3, 1e5], [1e3, 1.0, 1e5, 10.0]):    # sorted or not
            tables = [np.array([[trial, 3 * t, sigma_w, rng.uniform(0.1, 2.0) / sigma_w]
                                for t in range(n) for sigma_w in grid])
                      for trial, n in lengths.items()]
            assert (cli.fit_noise_slope(grid, tables)
                    == fit_noise_slope_loop(np.concatenate(tables)))

    @pytest.mark.parametrize("grid", [[10.0], [], [1.0, 10.0, 1.0],
                                      [1e300, 1.0000000000000002e300]],
                             ids=["one_sigma_w", "no_rows", "repeated_sigma_w",
                                  "same_db_sigma_w"])
    def test_fit_noise_slope_needs_two_sigma_w(self, grid):
        tables = [np.array([[0, t, sigma_w, 0.1 + 0.01 * t]
                            for t in range(20) for sigma_w in grid]).reshape(-1, 4)]
        with pytest.raises(ParameterError):
            cli.fit_noise_slope(grid, tables)


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
            return bc.ProblemInstance(b_rows=inst.b_rows, a=inst.a * 30.0,
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


# The error of a run whose start has a zero block.
_ZERO_START_ERROR = f"{ensemble._RANGE_ERROR} at iteration 0"


def _zero_start_x(monkeypatch, fails):
    """Zero the x block of node 0 in the start of each trial k with
    ``fails(k)``, so that its run fails at iteration 0; trial k's seed is
    [seed, k]."""
    real = cli.random_init

    def random_init(s, K, N, rng):
        z0 = real(s, K, N, rng)
        if fails(rng.bit_generator.seed_seq.entropy[1]):
            z0.x[0] = 0.0
        return z0

    monkeypatch.setattr(cli, "random_init", random_init)


def _fail_trial_1(monkeypatch):
    """Make trial 1's run fail at iteration 0."""
    _zero_start_x(monkeypatch, lambda trial: trial == 1)


def _fail_every_trial(monkeypatch):
    """Make every trial's run fail at iteration 0."""
    _zero_start_x(monkeypatch, lambda trial: True)


def _main_with_both_trials_failed(capsys, how, argv):
    """``main(argv)`` with both trials failing: ``forced`` from a start
    with a zero block, or ``diverged`` for real, under noise of variance
    1e300, which overflows the loss at iteration 1.  It exits 1 with a line
    per trial; returns the report, which report.json holds."""
    results = []
    real = cli.run_experiment
    with pytest.MonkeyPatch.context() as monkeypatch:
        if how == "forced":
            _fail_every_trial(monkeypatch)
        else:
            argv = [*argv, "--sigma2-e", "1e300"]
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: results.append(real(cfg)) or results[-1])
        assert main(argv) == 1
    label = {"forced": "FAILED", "diverged": "DIVERGED"}[how]
    assert capsys.readouterr().out.count(f": {label} (") == 2
    (result,) = results
    with open(result["paths"]["report"]) as fh:
        assert json.load(fh) == result["report"]
    return result["report"]


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
        assert failed["error"] == _ZERO_START_ERROR and not failed["diverged"]
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

    def test_noise_sweep_with_every_trial_failed(self, tmp_path, capsys):
        for how in ("forced", "diverged"):
            out = tmp_path / how
            report = _main_with_both_trials_failed(capsys, how, [
                "run", "--preset", "noise-sweep", "--trials", "2", "--jobs", "1",
                "--out", str(out)])
            assert (out / "noise_sweep.csv").read_bytes() == \
                b"trial,t,sigma_w,noisy_relative_error\r\n"
            assert "noise_sweep" not in report

    def test_diagnostics_with_every_trial_failed(self, tmp_path, capsys):
        # Two diagnostics trials are two blocks: at jobs=2 they run in a
        # pool, which the forced failure's patch reaches only through fork.
        for how, jobs in (("forced", "1"), ("diverged", "2")):
            out = tmp_path / how
            report = _main_with_both_trials_failed(capsys, how, [
                "run", "--preset", "diagnostics", "--K", "4", "--m", "40",
                "--max-iters", "5", "--loo-samples", "1", "--trials", "2", "--jobs", jobs,
                "--out", str(out)])
            assert report["concentration"] == [None, None]
            assert "hypotheses_csv" not in report
            assert not list(out.glob("hypotheses_*.csv"))

    def test_failed_suite_ends_only_its_trial(self, tmp_path, monkeypatch, capsys):
        # The suite is the call a diagnostics trial's block shares: its
        # error in trial 1 is that trial's, and trial 0's artifacts stand.
        real = cli.diag.run_diagnostics_suite
        calls = []

        def suite(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise DivergenceError("forced divergence in trial 1")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.diag, "run_diagnostics_suite", suite)
        out = tmp_path / "d"
        code = main(["run", "--preset", "diagnostics", "--K", "4", "--m", "40",
                     "--max-iters", "5", "--loo-samples", "1", "--trials", "2",
                     "--jobs", "1", "--out", str(out)])
        assert code == 1
        assert ("trial 1: DIVERGED (DivergenceError: forced divergence in trial 1)"
                in capsys.readouterr().out)
        with open(out / "stages.json") as fh:
            failed = json.load(fh)["trials"][1]
        assert failed["error_type"] == "DivergenceError" and failed["diverged"]
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert isinstance(report["concentration"][0], dict)
        assert report["concentration"][1] is None
        assert report["hypotheses_csv"] == ["hypotheses_0.csv"]
        assert sorted(p.name for p in out.glob("hypotheses_*.csv")) == ["hypotheses_0.csv"]

    def test_failed_lockstep_call_ends_its_block(self, tmp_path, monkeypatch, capsys):
        # An error raised by the call that a block's trials share ends every
        # trial of the block, and the artifacts are still written.
        def run_wf(*args, **kwargs):
            raise ParameterError("forced failure of the shared call")

        argv = ["run", "--preset", "noise-sweep", "--trials", "3", "--jobs", "1",
                "--out", str(tmp_path / "n")]
        cfg = bc.parse_config(overrides={"preset": "noise-sweep", "trials": 3})
        assert cli._trial_blocks(cfg) == [(0, 3)]
        monkeypatch.setattr(cli, "run_wf", run_wf)
        assert main(argv) == 1
        out = capsys.readouterr().out
        for trial in range(3):
            assert (f"trial {trial}: FAILED (ParameterError: forced failure of the "
                    f"shared call)") in out
        with open(tmp_path / "n" / "stages.json") as fh:
            assert [t["error_type"] for t in json.load(fh)["trials"]] == \
                ["ParameterError"] * 3
        assert sorted(p.name for p in (tmp_path / "n").iterdir()) == [
            "noise_sweep.csv", "plot.gp", "report.json", "stages.json", "timings.json",
            "trace.csv"]
        assert (tmp_path / "n" / "trace.csv").read_bytes() == \
            (",".join(trace_header(1)) + "\r\n").encode()

    def test_main_exits_1_naming_the_type(self, tmp_path, monkeypatch, capsys):
        _fail_trial_1(monkeypatch)
        code = main(["run", "--preset", "custom", "--s", "1", "--K", "4",
                     "--N", "4", "--m", "60", "--eta", "0.1", "--max-iters",
                     "20", "--trials", "2", "--seed", "2", "--jobs", "1",
                     "--out", str(tmp_path / "cli")])
        assert code == 1
        out = capsys.readouterr().out
        assert f"trial 1: FAILED (DegenerateAlignmentError: {_ZERO_START_ERROR})" in out
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

    @pytest.mark.parametrize("flags", [
        ["--preset", "fig1-convergence", "--K", "4", "--cadence", "0"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "1,-10"],
        ["--preset", "noise-sweep", "--K", "30", "--m", "20"],
        ["--preset", "noise-sweep", "--sigma2-e", "-1"],
        ["--preset", "noise-sweep", "--q", "1.5"],
        ["--preset", "noise-sweep", "--eta", "nan"],
        ["--preset", "noise-sweep", "--eta", "inf"],
        ["--preset", "noise-sweep", "--sigma2-e", "inf"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "1,inf"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "10"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "10,1e1"],
        ["--preset", "noise-sweep", "--max-iters", "0"],
        ["--preset", "diagnostics", "--loo-samples", "-1"],
        ["--preset", "fig1-convergence", "--K", "4", "--seed", "-1"],
        ["--preset", "noise-sweep", "--jobs", "-3"],
        ["--preset", "noise-sweep", "--jobs", "0"],
        ["--preset", "noise-sweep", "--tol", "nan"],
        ["--preset", "noise-sweep", "--tol", "-0.001"],
        ["--preset", "noise-sweep", "--K", "four"],
        ["--preset", "noise-sweep", "--tol", "-1e-6"],
        ["--preset", "noise-sweep", "--sigma2-e", "-1e-3"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "-1e-3,10"],
        ["--preset", "fig1-convergence", "--K", "4", "--sigma-w-grid", "10"],
        ["--preset", "noise-sweep", "--s", "0"],
        ["--preset", "noise-sweep", "--q", "1,1"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "1e-320,1"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "3e-309,1"],
        ["--preset", "noise-sweep", "--sigma-w-grid", "1e300,1.0000000000000002e300"],
        ["--preset", "noise-sweep", "--q", "1e-160"],
        ["--preset", "noise-sweep", "--q", "1e-76"],
        ["--preset", "noise-sweep", "--loo-samples", "3"],
        ["--preset", "diagnostics", "--sigma-w-grid", "1,10"],
    ], ids=["cadence", "sigma_w_grid", "K_above_m", "sigma2_e", "q", "eta_nan",
            "eta_inf", "sigma2_e_inf", "sigma_w_grid_inf", "sigma_w_grid_single",
            "sigma_w_grid_repeated", "max_iters", "loo_samples", "seed",
            "jobs_negative", "jobs_zero", "tol_nan", "tol_negative", "K_text",
            "tol_negative_exponent", "sigma2_e_negative_exponent",
            "sigma_w_grid_negative_first", "sigma_w_grid_single_any_preset",
            "s_zero", "q_length", "sigma_w_grid_subnormal", "sigma_w_grid_overflow",
            "sigma_w_grid_same_db", "q_underflow", "q_below_norm_range",
            "loo_and_grid_noise_sweep", "loo_and_grid_diagnostics"])
    def test_bad_input_rejected_at_boundary(self, flags, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["run", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_run_needs_a_preset_or_a_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        assert "need --preset or --config" in capsys.readouterr().err

    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main(["run", "--preset", "custom", "--s", "1", "--K", "4", "--m", "40",
                     "--max-iters", "5", "--jobs", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert out.read_text() == "not a directory\n"

    def test_diagnostics_needs_two_samples(self, tmp_path, capsys):
        # Its comparison scales are powers of log m, which is 0 at m = 1.
        out = tmp_path / "d"
        code = main(["run", "--preset", "diagnostics", "--s", "1", "--K", "1", "--N", "1",
                     "--m", "1", "--max-iters", "3", "--loo-samples", "1",
                     "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_import_does_not_load_process_pool(self):
        # Neither importing the package nor parsing a config loads the process
        # pool or numpy.random beyond what a bare ``import numpy`` loads: numpy
        # 1.24 imports numpy.random eagerly, numpy 2 on first use.
        src = os.path.dirname(os.path.dirname(bc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, numpy; base = set(sys.modules); import blaircomp; "
                 "blaircomp.parse_config(overrides={'preset': 'components', "
                 "'q': '1,0.5,0.5,1', 'sigma2_e': '0.01'}); "
                 "blaircomp.parse_config(overrides={'preset': 'diagnostics'}); "
                 "print(sorted(name for name in set(sys.modules) - base "
                 "if name.startswith(('concurrent.futures.process', 'numpy.random'))))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_run_diagnostics_preset(self, tmp_path):
        code = main(["run", "--preset", "diagnostics", "--K", "4", "--m", "40",
                     "--max-iters", "8", "--loo-samples", "2", "--seed", "1", "--jobs", "1",
                     "--out", str(tmp_path / "d")])
        assert code == 0
        assert os.path.exists(tmp_path / "d" / "hypotheses_0.csv")

    def test_diagnostics_without_dropped_samples(self, tmp_path):
        code = main(["run", "--preset", "diagnostics", "--K", "4", "--m", "40",
                     "--max-iters", "8", "--loo-samples", "0", "--seed", "1", "--jobs", "1",
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

    def test_unknown_preset_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "bogus.cfg"
        path.write_text("preset = bogus\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        for k, (flags, trials) in enumerate([
                ("--K 4 --N 4 --m 60 --eta 1e6 --max-iters 20 --seed 2", 1),
                # noise of variance 1e300 overflows the loss at iteration 1
                ("--K 2 --N 2 --m 4 --eta 0.1 --max-iters 5 --sigma2-e 1e300", 2)]):
            code = main(["run", "--preset", "custom", "--s", "1", *flags.split(),
                         "--trials", str(trials), "--jobs", "1",
                         "--out", str(tmp_path / f"div{k}")])
            assert code == 1
            assert capsys.readouterr().out.count("DIVERGED") == trials

    def test_diagnostics_runs_only_its_preset(self, tmp_path, monkeypatch, capsys):
        # The diagnostics preset runs through ``run``; there is no
        # ``diagnostics`` command, whatever flags follow it.
        monkeypatch.chdir(tmp_path)                 # where the default out would go
        out = tmp_path / "d"
        tail = ["--max-iters", "5", "--loo-samples", "1", "--out", str(out)]
        path = tmp_path / "components.cfg"
        path.write_text("preset = components\n")
        for argv in (["--preset", "fig1-convergence", "--K", "4", "--m", "40", *tail],
                     ["--config", str(path), *tail], ["--K", "4", "--m", "40"]):
            with pytest.raises(SystemExit) as exc:
                main(["diagnostics", *argv])
            assert exc.value.code == 2
            assert "invalid choice: 'diagnostics'" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["components.cfg"]
