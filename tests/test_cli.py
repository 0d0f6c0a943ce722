import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein import acceptance, analytic, cli, core, experiments, stopping
from bernstein.cli import (
    EXPERIMENTS,
    _csv_rows,
    _sha256,
    field_to_csv,
    main,
    run_experiment,
)
from bernstein.core import ScalarField, SpaceTimeGrid, interpolate
from bernstein.experiments import SLICE_TIMES, compare_report


#: one small config per experiment
TINY = {
    "sec7-forward": {"nx": 151, "nt": 126},
    "sec7-backward": {"nx": 101, "nt": 81},
    "sec7-classical-compare": {"nx": 101, "nt": 81},
    "schrodinger": {"nx": 101, "nt": 21},
    "stopping-dist": {"nx": 151, "nt": 101, "thresholds": [0.25, 0.1],
                      "n_paths": 5000, "dt": 2e-3, "checkpoints": [-0.2, 0.1]},
    "bridge-test": {"n_seeds": 3, "n_paths": 20000, "n_bins": 10},
    "convergence-study": {"levels": [[151, 126], [301, 501]]},
}


def tiny(name):
    return dict(TINY[name], experiment=name)


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


def edge_floats():
    """Each side of the bounds of the range where orjson and repr write the
    same string, and the bounds themselves, with both signs."""
    edges = [y for b in (1e-4, 1e16)
             for y in (np.nextafter(b, 0), b, np.nextafter(b, math.inf))]
    return [s * y for s in (1.0, -1.0) for y in edges]


class TestCsvWriter:
    """``_csv_rows`` writes every cell as its repr, whether orjson or repr
    formats it."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16, 5e-324]

    @pytest.fixture(scope="class")
    def table(self):
        n_rows, n_cols = 1001, 257
        rows = np.random.default_rng(1).standard_normal((n_rows, n_cols))
        rows[::7, :len(self.SPECIAL)] = self.SPECIAL
        rows[3, -len(self.SPECIAL):] = self.SPECIAL
        return np.arange(n_rows) * 3 - 40, rows

    def expected(self, first, rows, header="h,x"):
        return header + "\r\n" + "".join(
            ",".join(map(repr, [v, *np.asarray(row).tolist()])) + "\r\n"
            for v, row in zip(first.tolist(), rows))

    def write(self, path, first, rows):
        _csv_rows(str(path), "h,x", first, rows)
        with open(path, newline="") as fh:
            return fh.read()

    @pytest.mark.parametrize("n_blocks", [1, 2, 5])
    def test_bytes_are_the_reprs(self, tmp_path, monkeypatch, table, n_blocks):
        # the same bytes whether orjson formats the table in one block of
        # rows or in several
        first, rows = table
        step = -(-len(rows) // n_blocks)
        monkeypatch.setattr(cli, "_BLOCK_CELLS", step * rows.shape[1])
        assert -(-len(rows) // step) == n_blocks
        text = self.write(tmp_path / "t.csv", first, rows)
        assert text == self.expected(first, rows)
        assert os.listdir(tmp_path) == ["t.csv"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(edge_floats())),
                    min_size=1, max_size=80),
           st.integers(1, 9), st.integers(1, 40))
    def test_any_floats_are_their_reprs(self, tmp_path_factory, cells,
                                        n_cols, block_cells):
        # NaN, +-inf, subnormals and +-0 come from st.floats(); blocks of
        # ``block_cells`` cut the table at every row count
        n_rows = -(-len(cells) // n_cols)
        rows = np.resize(np.array(cells, dtype=float), (n_rows, n_cols))
        first = np.arange(n_rows) - 2
        tables = [
            (first, rows),
            (rows[::-1, 0], rows[::-1]),  # negative-stride rows, float labels
            (first, [rows[i, :i % (n_cols + 1)] for i in range(n_rows)]),  # ragged
            (first, rows[:, :0]),  # zero width
        ]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_CELLS", block_cells)
            for first_col, body in tables:
                assert self.write(path, first_col, body) == self.expected(first_col, body)

    def test_real_fields_are_their_reprs(self, tmp_path, monkeypatch):
        # sec7-backward on a small odd grid: its value and drift fields hold
        # cells below 1e-4 next to the stopping column, which orjson writes
        # in another notation than repr
        name, results = "sec7-backward", []
        runner = experiments.RUNNERS[name]

        def kept(cfg, seed):
            results.append(runner(cfg, seed))
            return results[-1]

        monkeypatch.setitem(experiments.RUNNERS, name, kept)
        man = run_experiment({"experiment": name, "nx": 61, "nt": 41},
                             str(tmp_path), 0)
        (result,) = results
        tables = {f: (",".join(["t\\x", *map(repr, fld.grid.xs.tolist())]),
                      fld.grid.ts, fld.values)
                  for f, fld in result.fields.items()}
        tables.update(result.tables)
        assert sorted(tables) == sorted(f for f in man["files"] if f.endswith(".csv"))
        for f in ("value.csv", "drift.csv"):
            mag = np.abs(result.fields[f].values)
            assert np.any((mag > 0) & (mag < 1e-4)), f
        for f, (header, first, rows) in tables.items():
            with open(tmp_path / f, newline="") as fh:
                text = fh.read()
            assert text == self.expected(first, rows, header), f


class TestManifests:
    def test_sec7_forward_small(self, tmp_path):
        man = run_experiment(tiny("sec7-forward"), str(tmp_path), 0)
        assert man["all_checks_passed"], man["checks"]
        assert set(man["versions"]) == {"bernstein", "numpy", "scipy", "orjson",
                                        "python"}
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
        cfg = tiny("sec7-backward")
        a = run_experiment(cfg, str(tmp_path / "a"), 0)
        b = run_experiment(cfg, str(tmp_path / "b"), 0)
        assert a["files"] == b["files"]

    def test_schrodinger_small(self, tmp_path):
        man = run_experiment(tiny("schrodinger"), str(tmp_path), 0)
        assert man["all_checks_passed"], man["checks"]
        with open(tmp_path / "schrodinger_report.json") as fh:
            rep = json.load(fh)
        assert rep["marginal_residual"] <= 1e-8
        assert max(abs(m - 1) for m in rep["slice_masses"]) <= 1e-6
        assert len(rep["residual_trace"]) == rep["iterations"]
        assert rep["residual_trace"][-1] == rep["marginal_residual"]

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
        man = run_experiment(tiny("bridge-test"), str(tmp_path), 100)
        with open(tmp_path / "bridge_test.json") as fh:
            rep = json.load(fh)
        assert len(rep["runs"]) == 3
        assert rep["runs"][0]["seed"] == 100
        assert man["checks"]["bridge_pass_rate"]

    def test_convergence_small(self, tmp_path):
        man = run_experiment(tiny("convergence-study"), str(tmp_path), 0)
        with open(tmp_path / "convergence.json") as fh:
            rep = json.load(fh)
        assert len(rep["orders"]) == 1
        assert man["checks"]["order_at_least_1"]

    def test_convergence_matches_criterion_10(self, tmp_path):
        # one band schedule: the study and criterion 10 score the same rows
        run_experiment(tiny("convergence-study"), str(tmp_path), 0)
        with open(tmp_path / "convergence.json") as fh:
            rep = json.load(fh)
        errors = [f"{lv['band_rel_err']:.2e}" for lv in rep["levels"]]
        assert errors == acceptance.criterion_10().details["errors"][:2]

    def test_band_schedule_recorded(self, tmp_path):
        cfg = {"experiment": "sec7-forward", "nx": 101, "nt": 81}
        run_experiment(cfg, str(tmp_path), 0)
        with open(tmp_path / "oracle_compare.json") as fh:
            rep = json.load(fh)
        ts = np.linspace(-0.5, 0.5, 81)
        nearest = [float(ts[np.argmin(np.abs(ts - t))]) for t in SLICE_TIMES]
        assert rep["band_slice_times"] == nearest
        assert len(rep["band_slice_rel_err"]) == len(nearest)
        assert max(rep["band_slice_rel_err"]) == rep["oracle_band_rel_err"]

    def test_stopping_set_check_has_both_parts(self, tmp_path):
        cfg = {"experiment": "sec7-backward", "nx": 151, "nt": 251}
        man = run_experiment(cfg, str(tmp_path), 0)
        with open(tmp_path / "oracle_compare.json") as fh:
            rep = json.load(fh)
        assert rep["data_row_stopped"] is True
        assert rep["origin_column_exact"] is True
        assert man["checks"]["stopping_set_is_origin_column"]

    def test_stopping_set_check_needs_stopped_data_row(self, tmp_path,
                                                       monkeypatch):
        exact_columns = experiments.stopping_columns
        monkeypatch.setattr(experiments, "stopping_columns",
                            lambda sol: (exact_columns(sol)[0], False, True))
        cfg = {"experiment": "sec7-backward", "nx": 151, "nt": 251}
        man = run_experiment(cfg, str(tmp_path), 0)
        assert not man["checks"]["stopping_set_is_origin_column"]

    def test_survival_reads_q_at_the_exact_start(self):
        # a start between nodes: the survival report and the martingale check
        # read q at the same point, by the one interpolator
        res = experiments.stopping_dist({"nx": 151, "nt": 101, "n_paths": 2000,
                                         "start": [-0.5, 1.02]}, 5)
        q_pde = res.reports["survival_compare.json"]["q_pde"]
        assert q_pde == res.reports["martingale.json"]["q_at_start"]
        q = res.data["q_solutions"][0].q
        assert q_pde == interpolate(q, -0.5, 1.02)
        assert q_pde != q.values[0, q.grid.nearest_column(1.02)]

    def test_stopping_small(self, tmp_path):
        man = run_experiment(tiny("stopping-dist"), str(tmp_path), 5)
        assert man["all_checks_passed"], man["checks"]
        assert (tmp_path / "q_sweep.csv").exists()
        assert (tmp_path / "martingale.json").exists()
        with open(tmp_path / "survival_compare.json") as fh:
            ens = json.load(fh)["ensemble"]
        assert ens["action_value"]["stderr"] > 0
        assert 0 < ens["boundary_hit_fraction"] < 1


class KeyLog(dict):
    """A config that logs every key the experiment looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each experiment run once by ``run_experiment`` at its TINY config:
    name -> (output directory, manifest, the Result that was written, the
    config keys the experiment looked up)."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in EXPERIMENTS:
            kept = []

            def keep(cfg, seed, runner=experiments.RUNNERS[name]):
                log = KeyLog(cfg)
                kept.append((runner(log, seed), log.read))
                return kept[-1][0]

            mp.setitem(experiments.RUNNERS, name, keep)
            out = tmp_path_factory.mktemp(name)
            man = run_experiment(tiny(name), str(out), 5)
            runs[name] = (out, man, *kept[0])
    return runs


class TestConfigKeys:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_keys_are_the_keys_read(self, tiny_runs, name):
        # every key an experiment looks up is accepted, and no other
        assert tiny_runs[name][3] == experiments.CONFIG_KEYS[name]

    @pytest.mark.parametrize("name, key, value", [
        ("stopping-dist", "n_path", 100),
        ("stopping-dist", "solver", {"boundary": "obstacle"}),
        # a key of another experiment
        ("sec7-forward", "thresholds", [0.25]),
        # settings that are constants of ``experiments``
        ("schrodinger", "tol", 1e-6),
        ("schrodinger", "max_iter", 100),
        ("schrodinger", "x_min", -3.0),
        ("schrodinger", "x_max", 3.0),
        ("schrodinger", "half_horizon", 1.0),
        ("schrodinger", "init_marginal", {"mean": 0.0, "sd": 1.0}),
        ("schrodinger", "final_marginal", {"mean": 0.0, "sd": 1.0}),
        ("bridge-test", "s", 0.1),
        ("bridge-test", "x", 0.2),
        ("bridge-test", "u", 2.0),
        ("bridge-test", "z", 0.5),
        ("bridge-test", "t", 0.3),
        ("bridge-test", "hbar", 0.5),
    ], ids=["n_path", "solver", "thresholds", "tol", "max_iter", "x_min",
            "x_max", "half_horizon", "init_marginal", "final_marginal", "s",
            "x", "u", "z", "t", "hbar"])
    def test_unknown_key_raises_before_the_run(self, tmp_path, name, key, value):
        cfg = dict(tiny(name), **{key: value})
        with pytest.raises(ValueError, match=f"'{key}'"):
            run_experiment(cfg, str(tmp_path / "out"), 0)
        assert not (tmp_path / "out").exists()


class TestArtifacts:
    """The files ``run_experiment`` writes, read back."""

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_out_dir_holds_exactly_the_manifest_files(self, tiny_runs, name):
        out, man, _, _ = tiny_runs[name]
        assert sorted(os.listdir(out)) == sorted([*man["files"], "manifest.json"])
        for fname, digest in man["files"].items():
            assert _sha256(str(out / fname)) == digest

    def test_q_sweep_csv(self, tiny_runs):
        out, _, res, _ = tiny_runs["stopping-dist"]
        sols = res.data["q_solutions"]
        grid = sols[0].q.grid
        with open(out / "q_sweep.csv", newline="") as fh:
            lines = fh.readlines()
        assert lines[0] == "threshold,t,x,q\r\n"
        assert len(sols) == 2
        assert len(lines) == 1 + 2 * grid.nt * grid.nx
        table = np.loadtxt(out / "q_sweep.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0],
                              np.repeat([0.25, 0.1], grid.nt * grid.nx))
        assert np.array_equal(table[: grid.nt * grid.nx, 1],
                              np.repeat(grid.ts, grid.nx))
        assert np.array_equal(table[:, 3], np.concatenate(
            [s.q.values.ravel() for s in sols]))

    def test_survival_records_the_unclamped_range(self, tiny_runs):
        out, _, res, _ = tiny_runs["stopping-dist"]
        qsol = res.data["q_solutions"][0]
        with open(out / "survival_compare.json") as fh:
            lo, hi = json.load(fh)["q_unclamped_range"]
        assert [lo, hi] == list(qsol.unclamped_range)
        # the clamp to [0, 1] moved each marched value by at most 1e-9
        assert -1e-9 <= lo <= hi <= 1 + 1e-9
        marched = qsol.q.values[:qsol.q.grid.nearest_row(qsol.threshold)]
        assert marched.min() == max(lo, 0.0)
        assert marched.max() == min(hi, 1.0)

    def test_unmarched_threshold_writes_null(self, tmp_path):
        # a threshold on the start row (within solve_q's grid-time
        # tolerance) marches no slice: the range is null, in strict JSON
        cfg = {"experiment": "stopping-dist", "nx": 61, "nt": 41,
               "n_paths": 100, "dt": 1e-2, "thresholds": [-0.5 + 1e-12],
               "checkpoints": [0.1]}
        run_experiment(cfg, str(tmp_path), 0)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        with open(tmp_path / "survival_compare.json") as fh:
            doc = json.load(fh, parse_constant=reject)
        assert doc["q_unclamped_range"] is None

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_timings_sit_beside_the_files(self, tiny_runs, name):
        _, man, _, _ = tiny_runs[name]
        timings = man["timings"]
        assert timings["compute_s"] > 0
        assert set(timings["write_s"]) == set(man["files"])
        assert all(s >= 0 for s in timings["write_s"].values())
        assert timings["cpus"] == core.usable_cpus()

    def test_schrodinger_factors_csv(self, tiny_runs):
        out, _, res, _ = tiny_runs["schrodinger"]
        factors = res.data["factors"]
        with open(out / "schrodinger_factors.csv") as fh:
            assert fh.readline().strip() == "x,eta_star_init,eta_final"
        x, eta_star_init, eta_final = np.loadtxt(
            out / "schrodinger_factors.csv", delimiter=",", skiprows=1,
            unpack=True)
        assert np.array_equal(x, res.fields["rho.csv"].grid.xs)
        assert np.array_equal(eta_star_init, factors.eta_star_init)
        assert np.array_equal(eta_final, factors.eta_final)
        with open(out / "schrodinger_factors.json") as fh:
            meta = json.load(fh)
        assert meta["iterations"] == factors.iterations
        assert meta["final_marginal_error"] == factors.final_marginal_error

    def test_martingale_json(self, tiny_runs):
        out, _, res, _ = tiny_runs["stopping-dist"]
        expected = stopping.martingale_check(
            res.data["q_solutions"][0], res.data["ensemble"],
            TINY["stopping-dist"]["checkpoints"])
        with open(out / "martingale.json") as fh:
            assert json.load(fh) == expected


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

    def test_convergence_rejects_custom_spec(self, tmp_path, capsys):
        # the study scores each level against the worked example's oracle,
        # which says nothing about another problem
        spec = dict(analytic.WORKED_EXAMPLE,
                    terminal_cost={"name": "abs", "scale": 2})
        cfgp = write_config(tmp_path, {"experiment": "convergence-study",
                                       "levels": [[151, 126], [301, 501]],
                                       "spec": spec})
        assert main(["run", cfgp, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bernstein: error: convergence-study needs the "
                              "worked example's closed-form oracle")
        assert not (tmp_path / "out" / "convergence.json").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"experiment": "nope"}, "unknown experiment 'nope'"),
        ({"experiment": "sec7-forward", "n_x": 31}, "unknown config keys ['n_x']"),
    ], ids=["experiment", "key"])
    def test_config_error_is_one_line(self, tmp_path, capsys, cfg, message):
        cfgp = write_config(tmp_path, cfg)
        assert main(["run", cfgp, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"bernstein: error: {message}")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["sec7-forward", "sec7-backward"])
    def test_even_nx_on_the_worked_example_is_a_config_error(self, tmp_path,
                                                             capsys, name):
        # no node at x = 0, the worked example's stopping column
        cfgp = write_config(tmp_path, {"experiment": name, "nx": 100, "nt": 81})
        assert main(["run", cfgp, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("bernstein: error: nx = 100 puts no node at x = 0, the "
                       "worked example's stopping column; take an odd nx\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, lo, hi", [(51, -4.0, 4.0), (201, -3.0, 3.0)],
                             ids=["node-count", "node-positions"])
    def test_marginals_off_the_grid_are_a_config_error(self, tmp_path, capsys,
                                                       n, lo, hi):
        # the default grid has 201 nodes on [-4, 4]
        xs = np.linspace(lo, hi, n)
        paths = []
        for name, mean in (("init.csv", -1.0), ("final.csv", 1.0)):
            np.savetxt(tmp_path / name, np.column_stack(
                (xs, np.exp(-(xs - mean) ** 2))), delimiter=",", header="x,density")
            paths.append(str(tmp_path / name))
        cfgp = write_config(tmp_path, {"experiment": "schrodinger",
                                       "marginals_csv": paths})
        assert main(["run", cfgp, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (f"bernstein: error: the {n} marginal CSV nodes on "
                       f"[{lo}, {hi}] are not the grid's 201 on [-4.0, 4.0]\n")
        assert not (tmp_path / "out").exists()

    def test_error_in_the_computation_propagates(self, tmp_path, monkeypatch):
        # only config errors become an exit status; anything the run
        # raises keeps its traceback
        def broken(cfg, seed):
            raise ValueError("solver failed")

        monkeypatch.setitem(experiments.RUNNERS, "sec7-forward", broken)
        cfgp = write_config(tmp_path, {"experiment": "sec7-forward"})
        with pytest.raises(ValueError, match="solver failed"):
            main(["run", cfgp, "--out", str(tmp_path / "out")])

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        cfgp = write_config(tmp_path, {"experiment": "sec7-forward",
                                       "nx": 101, "nt": 81,
                                       "out": str(tmp_path / "cfgout")})
        monkeypatch.setenv("BERNSTEIN_OUT", str(tmp_path / "envout"))
        main(["run", cfgp, "--out", str(tmp_path / "flagout")])
        assert (tmp_path / "flagout" / "manifest.json").exists()
        assert not (tmp_path / "envout").exists()
        assert not (tmp_path / "cfgout").exists()

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
        assert "wall_s=" in out
        assert "all criteria passed" in out


#: run in a fresh interpreter: which of the heavy scipy subpackages are
#: loaded after importing the package and after each experiment in argv[1]
_LOADED_SCRIPT = """
import json, sys
import bernstein, bernstein.cli
from bernstein import experiments

def loaded():
    return sorted(m for m in ("scipy.integrate", "scipy.linalg", "scipy.special",
                              "scipy.stats") if m in sys.modules)

stages = {"import": loaded()}
for name, cfg in json.loads(sys.argv[1]):
    experiments.RUNNERS[name](cfg, 0)
    stages[name] = loaded()
print(json.dumps(stages))
"""


def test_cold_start_loads_scipy_subpackages_on_demand():
    # scipy.stats is never needed; scipy.linalg only by a banded solve,
    # which schrodinger never makes (and by scipy.integrate); scipy.special
    # only by the bridge test (and by scipy.integrate); scipy.integrate only
    # by an oracle quadrature, which sec7-forward runs and the others do not
    runs = [[name, TINY[name]] for name in ("schrodinger", "stopping-dist")]
    runs += [["bridge-test", {"n_seeds": 1, "n_paths": 1000, "n_bins": 5}],
             ["sec7-forward", TINY["sec7-forward"]]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, json.dumps(runs)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [], "schrodinger": [], "stopping-dist": ["scipy.linalg"],
        "bridge-test": ["scipy.linalg", "scipy.special"],
        "sec7-forward": ["scipy.integrate", "scipy.linalg", "scipy.special"]}


def test_import_loads_no_scipy_module():
    # scipy, even its top-level package, loads only once a run needs it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bernstein.cli; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert proc.stdout.strip() == "[]"


def test_experiment_registry_complete():
    assert len(EXPERIMENTS) == 7
    assert len(set(EXPERIMENTS)) == 7
