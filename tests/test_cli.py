import json
import math
import os

import numpy as np
import pytest

from bernstein.cli import (
    EXPERIMENTS,
    _sha256,
    compare_report,
    field_to_csv,
    main,
    run_experiment,
)
from bernstein.core import ScalarField, SpaceTimeGrid


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def small_field(values):
    grid = SpaceTimeGrid(xs=np.linspace(0, 1, values.shape[1]),
                         ts=np.linspace(0, 1, values.shape[0]))
    return ScalarField(grid, values)


class TestCompareReport:
    def test_identical_fields(self):
        f = small_field(np.arange(6.0).reshape(2, 3))
        rep = compare_report(f, f)
        assert rep["inf_norm"] == 0.0 and rep["scaled_2_norm"] == 0.0

    def test_unit_offset(self):
        a = small_field(np.zeros((2, 3)))
        b = small_field(np.ones((2, 3)))
        rep = compare_report(a, b, x_abs_min=0.4)
        assert rep["inf_norm"] == 1.0
        assert rep["restricted_inf_norm"] == 1.0
        assert rep["restriction"] == [0.4, None]

    def test_grid_mismatch(self):
        a = small_field(np.zeros((2, 3)))
        b = ScalarField(SpaceTimeGrid(xs=np.linspace(0, 2, 3),
                                      ts=np.linspace(0, 1, 2)),
                        np.zeros((2, 3)))
        with pytest.raises(ValueError, match="grid"):
            compare_report(a, b)


def test_field_to_csv(tmp_path):
    f = small_field(np.arange(6.0).reshape(2, 3))
    path = field_to_csv(f, str(tmp_path / "f.csv"))
    with open(path) as fh:
        lines = [ln.strip().split(",") for ln in fh]
    assert len(lines) == 3 and len(lines[0]) == 4
    assert float(lines[1][0]) == 0.0 and float(lines[2][3]) == 5.0


def test_unknown_experiment_names_choices(tmp_path):
    with pytest.raises(ValueError, match="sec7-forward"):
        run_experiment({"experiment": "nope"}, str(tmp_path), 0)


class TestManifests:
    def test_sec7_forward_small(self, tmp_path):
        cfg = {"experiment": "sec7-forward", "nx": 151, "nt": 126}
        man = run_experiment(cfg, str(tmp_path), 0)
        assert man["all_checks_passed"], man["checks"]
        assert set(man["versions"]) == {"bernstein", "numpy", "scipy", "python"}
        assert man["checks"]["oracle_agreement"]
        assert man["checks"]["stopping_set_is_origin_column"]
        # every listed artifact exists and hashes as recorded
        for name, digest in man["files"].items():
            path = tmp_path / name
            assert path.exists()
            assert _sha256(str(path)) == digest
        with open(tmp_path / "manifest.json") as fh:
            assert json.load(fh) == man

    def test_custom_spec_skips_oracle(self, tmp_path):
        cfg = {
            "experiment": "sec7-forward",
            "nx": 61,
            "nt": 41,
            "spec": {
                "hbar": 1.0,
                "half_horizon": 0.5,
                "x_min": -3.0,
                "x_max": 3.0,
                "potential": "zero",
                "terminal_cost": {"name": "abs", "scale": 2.0},
                "initial_cost": "log1p_abs",
            },
        }
        man = run_experiment(cfg, str(tmp_path), 0)
        assert "oracle_agreement" not in man["checks"]
        assert man["checks"]["lcp_residual"]

    def test_rerun_is_deterministic(self, tmp_path):
        cfg = {"experiment": "sec7-backward", "nx": 101, "nt": 81}
        a = run_experiment(cfg, str(tmp_path / "a"), 0)
        b = run_experiment(cfg, str(tmp_path / "b"), 0)
        assert a["files"] == b["files"]

    def test_schrodinger_small(self, tmp_path):
        cfg = {"experiment": "schrodinger", "nx": 101, "nt": 21}
        man = run_experiment(cfg, str(tmp_path), 0)
        assert man["all_checks_passed"], man["checks"]
        with open(tmp_path / "schrodinger_report.json") as fh:
            rep = json.load(fh)
        assert rep["marginal_residual"] <= 1e-8
        assert max(abs(m - 1) for m in rep["slice_masses"]) <= 1e-6

    def test_schrodinger_reports_kernel_resolution(self, tmp_path):
        # at hbar = 0.05 on 201 nodes the kernel next to the endpoint slices
        # is narrower than one node spacing
        cfg = {"experiment": "schrodinger", "hbar": 0.05}
        run_experiment(cfg, str(tmp_path), 0)
        with open(tmp_path / "schrodinger_report.json") as fh:
            rep = json.load(fh)
        assert rep["kernel_sd_over_dx"] == pytest.approx(
            math.sqrt(0.05 * 0.02) / 0.04)
        assert rep["kernel_sd_over_dx"] < 1

    def test_bridge_small(self, tmp_path):
        cfg = {"experiment": "bridge-test", "n_seeds": 3,
               "n_paths": 20000, "n_bins": 10}
        man = run_experiment(cfg, str(tmp_path), 100)
        with open(tmp_path / "bridge_test.json") as fh:
            rep = json.load(fh)
        assert len(rep["runs"]) == 3
        assert rep["runs"][0]["seed"] == 100
        assert man["checks"]["bridge_pass_rate"]

    def test_convergence_small(self, tmp_path):
        cfg = {"experiment": "convergence-study",
               "levels": [[151, 126], [301, 501]]}
        man = run_experiment(cfg, str(tmp_path), 0)
        with open(tmp_path / "convergence.json") as fh:
            rep = json.load(fh)
        assert len(rep["orders"]) == 1
        assert man["checks"]["order_at_least_1"]

    def test_stopping_small(self, tmp_path):
        cfg = {"experiment": "stopping-dist", "nx": 151, "nt": 101,
               "thresholds": [0.25], "n_paths": 5000, "dt": 2e-3,
               "checkpoints": [-0.2, 0.1]}
        man = run_experiment(cfg, str(tmp_path), 5)
        assert man["all_checks_passed"], man["checks"]
        assert (tmp_path / "q_sweep.csv").exists()
        assert (tmp_path / "martingale.json").exists()


class TestMain:
    def test_run_exit_zero_and_outdir_resolution(self, tmp_path, monkeypatch,
                                                 capsys):
        cfgp = write_config(tmp_path, {"experiment": "sec7-forward",
                                       "nx": 151, "nt": 126})
        monkeypatch.setenv("BERNSTEIN_OUT", str(tmp_path / "envout"))
        assert main(["run", cfgp]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "PASS lcp_residual" in out

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        cfgp = write_config(tmp_path, {"experiment": "sec7-forward",
                                       "nx": 101, "nt": 81})
        monkeypatch.setenv("BERNSTEIN_OUT", str(tmp_path / "envout"))
        main(["run", cfgp, "--out", str(tmp_path / "flagout")])
        assert (tmp_path / "flagout" / "manifest.json").exists()
        assert not (tmp_path / "envout").exists()

    def test_seed_override_recorded(self, tmp_path):
        cfgp = write_config(tmp_path, {"experiment": "bridge-test",
                                       "n_seeds": 1, "n_paths": 20000,
                                       "n_bins": 10, "seed": 1})
        out = str(tmp_path / "o")
        main(["run", cfgp, "--out", out, "--seed", "77"])
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["seed"] == 77

    def test_check_subset(self, capsys):
        assert main(["check", "--criteria", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "all criteria passed" in out


def test_experiment_registry_complete():
    assert len(EXPERIMENTS) == 7
    assert len(set(EXPERIMENTS)) == 7
