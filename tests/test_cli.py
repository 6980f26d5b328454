"""CLI tests: subcommands, config merging, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffcop
from diffcop import copula
from diffcop.cli import main
from diffcop.models import PathEnsemble
from diffcop.recombine import FirstPassageSample

# the subprocesses import the package from the tree under test
SRC = str(Path(diffcop.__file__).resolve().parents[1])
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(args):
    return main([str(a) for a in args])


class TestCopulaGrid:
    def test_ou_grid_symmetric(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run(["copula-grid", "--model", "ou", "--alpha", 0.1,
                    "--s", 30, "--t", 30.5, "--n", 21, "--out", out])
        assert code == 0
        matrix, meta = copula.read_grid_csv(out)
        assert meta["n"] == 21 and meta["s"] == 30.0 and meta["t"] == 30.5
        assert float(np.max(np.abs(matrix - matrix.T))) <= 1e-9

    def test_cir_gamma_one_matches_time_changed_rbm(self, tmp_path):
        alpha = 0.1
        out_cir = tmp_path / "cir.csv"
        out_rbm = tmp_path / "rbm.csv"
        code = run(["copula-grid", "--model", "cir", "--alpha", alpha, "--gamma", 1,
                    "--x0", 0, "--s", 30, "--t", 30.5, "--n", 9, "--out", out_cir])
        assert code == 0
        phi_inv = lambda tau: math.expm1(alpha * tau) / alpha
        code = run(["copula-grid", "--model", "rbm", "--s", phi_inv(30.0),
                    "--t", phi_inv(30.5), "--n", 9, "--out", out_rbm])
        assert code == 0
        a, _ = copula.read_grid_csv(out_cir)
        b, _ = copula.read_grid_csv(out_rbm)
        assert float(np.max(np.abs(a - b))) <= 1e-8

    def test_bad_surface_model(self, tmp_path, capsys):
        code = run(["copula-grid", "--model", "cir", "--s", 2, "--t", 1,
                    "--out", tmp_path / "x.csv"])
        assert code == 2


class TestSimulate:
    def test_byte_identical_with_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--model", "bm", "--seed", 7, "--t-max", 1.0,
                "--n-steps", 10, "--n-paths", 8]
        assert run(base + ["--out", a]) == 0
        assert run(base + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_uniformized_paths_in_unit_interval(self, tmp_path):
        out = tmp_path / "u.csv"
        code = run(["simulate", "--model", "ou", "--params",
                    "alpha=1.0,beta=0.5,sigma=0.9", "--x0", 0.2, "--uniformized",
                    "--t-max", 2.0, "--n-steps", 5, "--n-paths", 16, "--out", out])
        assert code == 0
        ens = PathEnsemble.from_csv(out)
        assert np.all((ens.paths >= 0.0) & (ens.paths <= 1.0))

    def test_invalid_params_usage_error(self, tmp_path):
        code = run(["simulate", "--model", "gbm", "--x0", 0.0,
                    "--params", "mu=0.1,sigma=0.4", "--out", tmp_path / "x.csv"])
        assert code == 2
        code = run(["simulate", "--model", "ou", "--params", "alpha=1.0",
                    "--out", tmp_path / "x.csv"])
        assert code == 2


    def test_explosive_ou_past_the_clock_exits_2(self, tmp_path, capsys):
        # one step of lag 800 at alpha = -1: the variance's clock e^{1600} overflows
        code = run(["simulate", "--model", "ou", "--params", "alpha=-1,beta=0,sigma=1",
                    "--x0", 0.0, "--t-max", 800.0, "--n-steps", 1, "--n-paths", 2,
                    "--out", tmp_path / "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


    def test_explosive_ou_overflow_exits_2(self, tmp_path, capsys):
        # 50 steps of 16 at alpha = -1: the states overflow double precision at t = 720
        out = tmp_path / "x.csv"
        code = run(["simulate", "--model", "ou", "--params", "alpha=-1,beta=0,sigma=1",
                    "--x0", 0.0, "--t-max", 800.0, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "t = 720:" in err and not out.exists()

    def test_explosive_cir_family_draw_exits_2(self, tmp_path, capsys):
        # rayleigh with b = 1: at t = 21.6 the noncentrality of the draw passes numpy's
        # Poisson range while the states are still finite
        out = tmp_path / "x.csv"
        code = run(["simulate", "--model", "rayleigh", "--params", "a=1,b=1", "--x0", 1.0,
                    "--t-max", 30.0, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "t = 21.6 " in err and not out.exists()


class TestRecombineCommand:
    def test_writes_paths(self, tmp_path):
        out = tmp_path / "z.csv"
        code = run(["recombine",
                    "--source-model", "ou", "--source-params",
                    "alpha=1.0,beta=0.5,sigma=0.9", "--source-x0", 0.2,
                    "--target-model", "cir", "--target-params",
                    "alpha=1.0,beta=1.0,sigma=0.8", "--target-x0", 1.2,
                    "--t-max", 2.0, "--n-steps", 4, "--n-paths", 32,
                    "--seed", 3, "--out", out])
        assert code == 0
        ens = PathEnsemble.from_csv(out)
        assert ens.paths.shape == (32, 4)
        assert np.all(ens.paths > 0.0)      # cir marginals are positive

    def test_grid_starts_at_source_t0(self, tmp_path):
        out = tmp_path / "z.csv"
        base = ["recombine", "--source-model", "ou", "--source-params",
                "alpha=1.0,beta=0.5,sigma=0.9", "--source-x0", 0.2, "--source-t0", 1.0,
                "--target-model", "cir", "--target-params", "alpha=1.0,beta=1.0,sigma=0.8",
                "--target-x0", 1.2, "--t-max", 2.0, "--n-steps", 4, "--n-paths", 8,
                "--out", out]
        assert run(base) == 0
        ens = PathEnsemble.from_csv(out)
        assert ens.times[0] > 1.0 and ens.times[-1] == 2.0
        with pytest.raises(SystemExit) as err:
            run(base + ["--t0", 0.0])
        assert err.value.code == 2


class TestFpt:
    def test_unreachable_threshold_all_censored(self, tmp_path):
        out = tmp_path / "fpt.csv"
        code = run(["fpt", "--model", "ou", "--params", "alpha=0.1,beta=0.0,sigma=1.0",
                    "--threshold", 1e10, "--t-max", 1.0, "--dt", 0.1,
                    "--n-paths", 12, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        assert all(line == ">1" for line in lines)
        back = FirstPassageSample.from_csv(out)
        assert back.censored.all()


class TestValidate:
    def test_special_fn_suite_passes(self, capsys):
        code = run(["validate", "--suite", "special_fn"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS criterion 1" in captured.out


class TestConfigAndUsage:
    def test_config_merges_under_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "bm", "n_paths": 5, "t_max": 1.0,
                                   "n_steps": 4, "out": str(tmp_path / "cfg_out.csv")}))
        code = run(["simulate", "--model", "bm", "--config", cfg,
                    "--n-paths", 3])
        assert code == 0
        ens = PathEnsemble.from_csv(tmp_path / "cfg_out.csv")
        assert ens.paths.shape[0] == 3          # flag wins over config

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"flux_capacitor": 1.21}))
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--model", "bm", "--config", cfg,
                 "--out", tmp_path / "x.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("cfg", [{"x0": "0.5"}, {"n_paths": "6"}, {"uniformized": True}])
    def test_config_values_convert_like_flag_strings(self, tmp_path, cfg):
        path, out = tmp_path / "cfg.json", tmp_path / "p.csv"
        path.write_text(json.dumps({**cfg, "n_steps": 3, "out": str(out)}))
        assert run(["simulate", "--model", "bm", "--config", path]) == 0
        assert PathEnsemble.from_csv(out).paths.shape[0] == int(cfg.get("n_paths", 100))

    @pytest.mark.parametrize("cfg", [{"seed": 1.5}, {"n_paths": "ten"}, {"x0": [0.5]},
                                     {"t_max": True}, {"uniformized": 1}, {"model": "heston"}])
    def test_config_value_its_flag_refuses_exits_2(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--model", "bm", "--config", path, "--out", tmp_path / "x.csv"])
        assert err.value.code == 2

    def test_command_line_flag_beats_config_at_its_default(self, tmp_path):
        path, out = tmp_path / "cfg.json", tmp_path / "p.csv"
        path.write_text(json.dumps({"n_paths": 5, "n_steps": 2, "out": str(out)}))
        assert run(["simulate", "--model", "bm", "--n-paths", 100, "--config", path]) == 0
        assert PathEnsemble.from_csv(out).paths.shape[0] == 100

    @pytest.mark.parametrize("cfg", [{"out": "-x.csv"}, {"uniformized": False, "out": "p.csv"}])
    def test_config_runs_as_its_flags(self, tmp_path, monkeypatch, cfg):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "n_steps": 3}))
        assert run(["simulate", "--model", "bm", "--config", "cfg.json"]) == 0
        assert PathEnsemble.from_csv(tmp_path / cfg["out"]).paths.shape == (100, 3)

    # argparse would read the abbreviated key as --n-paths
    @pytest.mark.parametrize("cfg", [{"n_path": 5}, {"t_max": False}, ["n_paths"]])
    def test_config_refused_before_parsing_exits_2(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--model", "bm", "--config", path, "--out", tmp_path / "x.csv"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--model", "bm", "--warp", "9"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "p.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "diffcop.cli", "simulate", "--model", "bm",
             "--n-paths", "2", "--n-steps", "3", "--t-max", "1.0", "--out", str(out)],
            capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0
        assert out.exists()

    def test_package_runs_as_a_module(self):
        proc = subprocess.run([sys.executable, "-m", "diffcop", "validate", "--suite", "special_fn"],
                              capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0, proc.stderr
        assert "all criteria passed" in proc.stdout
        proc = subprocess.run([sys.executable, "-m", "diffcop", "validate", "--suite", "none"],
                              capture_output=True, text=True, env=ENV)
        assert proc.returncode == 2
