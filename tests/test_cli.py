import functools
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein import (
    acceptance,
    analytic,
    cli,
    core,
    experiments,
    hjb,
    schrodinger,
    simulate,
    stopping,
)
from bernstein.cli import (
    EXPERIMENTS,
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
    "barrier": {"n_paths": 2000},
    "bridge-test": {"n_seeds": 3, "n_paths": 20000, "n_bins": 10},
    "convergence-study": {"levels": [[151, 126], [301, 501]]},
}


def tiny(name):
    return dict(TINY[name], experiment=name)


def keeping(runner, kept):
    """``runner`` under its own signature, appending each Result it
    returns to ``kept``."""
    @functools.wraps(runner)
    def keep(*args, **kwargs):
        kept.append(runner(*args, **kwargs))
        return kept[-1]
    return keep


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def sha256_of(path):
    """The sha256 of the file at ``path``, as read back."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
        # the band 0.1 <= |x| <= 2.5 holds x = 0.5 and 1, not x = 0
        a = small_field(np.zeros((2, 3)))
        b = small_field(np.array([[5.0, 1.0, 1.0], [5.0, 1.0, 1.0]]))
        rep = compare_report(a, b)
        assert rep["inf_norm"] == 5.0
        assert rep["restricted_inf_norm"] == 1.0
        assert rep["restriction"] == [0.1, 2.5]

    def test_band_is_the_band_errors_band(self):
        # at 61 nodes on [-3, 3] the node x = -0.1 lies 4e-16 inside
        # |x| = 0.1: in the band that band_errors scores, so in this one too
        grid = core.build_grid(core.ProblemSpec.from_json(analytic.WORKED_EXAMPLE),
                               61, 3)
        j = 29
        assert 0.1 - 1e-12 < abs(grid.xs[j]) < 0.1
        b = np.zeros((grid.nt, grid.nx))
        b[:, j] = 1.0
        rep = compare_report(ScalarField(grid, np.zeros_like(b)),
                             ScalarField(grid, b))
        assert rep["restricted_inf_norm"] == 1.0
        assert experiments.in_band(grid.xs)[j]

    def test_grid_mismatch(self):
        a = small_field(np.zeros((2, 3)))
        b = ScalarField(SpaceTimeGrid(xs=np.linspace(0, 2, 3),
                                      ts=np.linspace(0, 1, 2)),
                        np.zeros((2, 3)))
        with pytest.raises(ValueError, match="grid"):
            compare_report(a, b)


def test_field_to_csv(tmp_path, file_log):
    # a field of one block: the calling thread writes the header and the
    # rows, and starts no other thread; the digest returned is of the
    # bytes written
    f = small_field(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "f.csv"
    before = threading.active_count()
    digest = field_to_csv(f, str(path))
    assert threading.active_count() == before
    assert digest == sha256_of(path)
    (logged,) = file_log.files
    assert logged.threads == [threading.current_thread()] * 2
    with open(path) as fh:
        lines = [ln.strip().split(",") for ln in fh]
    assert len(lines) == 3 and len(lines[0]) == 4
    assert float(lines[1][0]) == 0.0 and float(lines[2][3]) == 5.0


class LoggedFile:
    """A binary file opened by ``cli`` for writing: records the thread of
    each ``write``, and raises ``OSError`` at write number ``fail_at``
    (the header is write 1)."""

    def __init__(self, path, mode, fail_at):
        self.fh, self.fail_at, self.threads = open(path, mode), fail_at, []

    def write(self, data):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class FileLog:
    """Stands for ``open`` in ``cli``: every file it opens is a
    ``LoggedFile`` failing at write ``fail_at``, kept in ``files``."""

    def __init__(self):
        self.fail_at, self.files = None, []

    def open(self, path, mode="r"):
        self.files.append(LoggedFile(path, mode, self.fail_at))
        return self.files[-1]


@pytest.fixture
def file_log(monkeypatch):
    log = FileLog()
    monkeypatch.setattr(cli, "open", log.open, raising=False)
    return log


def test_unknown_experiment_names_choices(tmp_path):
    with pytest.raises(ValueError, match="sec7-forward"):
        run_experiment({"experiment": "nope"}, str(tmp_path), 0)


def edge_floats():
    """Each side of the bounds of the range where orjson and repr write the
    same string, and the bounds themselves, with both signs."""
    edges = [y for b in (1e-4, 1e16)
             for y in (np.nextafter(b, 0), b, np.nextafter(b, math.inf))]
    return [s * y for s in (1.0, -1.0) for y in edges]


def decade_floats():
    """Every decade 10^k, k = -324 ... 308, times several mantissas, with
    both signs and each value's two neighbours; then +-1e-9, +-1e-4 and
    +-1e16, the bounds of the ranges where orjson writes another notation
    than repr, +-0, NaN and +-inf."""
    values = [float(f"{m}e{k}") for k in range(-324, 309)
              for m in (1, 1.5, 2.5, 4.9406564584124654, 9.999999)]
    values = [y for v in values for s in (1.0, -1.0)
              for y in (np.nextafter(s * v, -math.inf), s * v,
                        np.nextafter(s * v, math.inf))]
    bounds = [1e-9, 1e-4, 1e16, 0.0]
    return np.array(values + bounds + [-b for b in bounds]
                    + [math.nan, math.inf, -math.inf])


class TestCsvWriter:
    """``_csv_blocks`` writes every cell as its repr, whether orjson or repr
    formats it."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16, 5e-324]

    @pytest.fixture(scope="class")
    def table(self):
        n_rows, n_cols = 1001, 257
        rows = np.random.default_rng(1).standard_normal((n_rows, n_cols))
        rows[::7, :len(self.SPECIAL)] = self.SPECIAL
        rows[3, -len(self.SPECIAL):] = self.SPECIAL
        # float labels, as every label column is, with cells that orjson
        # writes in another notation than repr among them
        first = np.arange(n_rows) * 0.75 - 40
        first[[2, 5, 9]] = [math.nan, 1e-05, -math.inf]
        return first, rows

    def expected(self, first, rows, header="h,x"):
        return header + "\r\n" + "".join(
            ",".join(map(repr, [v, *np.asarray(row).tolist()])) + "\r\n"
            for v, row in zip(first.tolist(), rows))

    def write(self, path, first, rows):
        with open(path, "wb") as fh:
            fh.write(b"h,x\r\n")
            fh.writelines(cli._csv_blocks(first, rows))
        with open(path, newline="") as fh:
            return fh.read()

    @pytest.mark.parametrize("n_blocks", [1, 2, 5])
    def test_bytes_are_the_reprs(self, tmp_path, monkeypatch, table, n_blocks):
        # the same bytes whether orjson formats the table in one block of
        # rows or in several; a block's cells count the label column
        first, rows = table
        step = -(-len(rows) // n_blocks)
        monkeypatch.setattr(cli, "_BLOCK_CELLS", step * (rows.shape[1] + 1))
        assert -(-len(rows) // step) == n_blocks
        text = self.write(tmp_path / "t.csv", first, rows)
        assert text == self.expected(first, rows)
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_decades_are_repaired_where_orjson_differs(self, tmp_path,
                                                      monkeypatch):
        # one cell a line, after a label that orjson writes as repr does: a
        # line is rewritten by repr exactly when orjson writes its cell in
        # another notation, and every line is the reprs
        import orjson
        cells = decade_floats()
        first = np.ones(cells.size)
        repaired, repr_line = [], cli._repr_line
        monkeypatch.setattr(cli, "_repr_line",
                            lambda c: repaired.append(repr(c[1])) or repr_line(c))
        text = self.write(tmp_path / "t.csv", first, cells[:, None])
        assert text == self.expected(first, cells[:, None])
        by_orjson = orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)
        assert repaired == [repr(x) for x, o in zip(
            cells.tolist(), by_orjson[1:-1].split(b",")) if o != repr(x).encode()]
        assert len(repaired) > cells.size // 10

    def test_round_off_cells_repair_no_line(self, tmp_path, monkeypatch):
        # a 601-column field whose only small cells lie below 1e-9, as the
        # round-off next to the stopping column of value.csv and drift.csv
        # does, is written by orjson alone
        rng = np.random.default_rng(2)
        rows = rng.uniform(1e-3, 3, (40, 601)) * rng.choice([-1.0, 1.0], (40, 601))
        rows[:, 300] = [(-1) ** i * 2e-16 * (i + 1) for i in range(40)]
        rows[::3, 17] = [0.0, -0.0, 5e-324, -9.99e-10, 2e-14, -1e-300, 1e-200,
                         0.0, -0.0, 7e-10, 3e-16, -4e-15, 1e-20, -2e-30]
        first = np.linspace(-0.5, 0.5, 40)
        calls = []
        monkeypatch.setattr(cli, "_repr_line", lambda c: calls.append(c))
        assert self.write(tmp_path / "t.csv", first, rows) == self.expected(first, rows)
        assert calls == []

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
        first = np.arange(n_rows) - 2.0
        tables = [
            (first, rows),
            (rows[::-1, 0], rows[::-1]),  # negative-stride rows, float labels
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
        monkeypatch.setitem(experiments.RUNNERS, name,
                            keeping(experiments.RUNNERS[name], results))
        man = run_experiment({"experiment": name, "nx": 61, "nt": 41},
                             str(tmp_path), 0)
        (result,) = results
        tables = {f: (",".join(["t\\x", *map(repr, fld.grid.xs.tolist())]),
                      fld.grid.ts, fld.values)
                  for f, fld in result.fields.items()}
        assert sorted(tables) == sorted(f for f in man["files"] if f.endswith(".csv"))
        for f in ("value.csv", "drift.csv"):
            mag = np.abs(result.fields[f].values)
            assert np.any((mag > 0) & (mag < 1e-4)), f
        for f, (header, first, rows) in tables.items():
            with open(tmp_path / f, newline="") as fh:
                text = fh.read()
            assert text == self.expected(first, rows, header), f

    def test_field_of_several_blocks_is_written_in_order_on_the_calling_thread(
            self, tmp_path, table, file_log):
        # the calling thread writes the header, then each block of rows as
        # it is formatted, one write a block; the digest returned is of the
        # bytes written
        _, rows = table
        fld = ScalarField(small_field(np.zeros(rows.shape)).grid, rows, allow_nan=True)
        n_blocks = len(list(cli._csv_blocks(fld.grid.ts, rows)))
        assert n_blocks > 1
        before = threading.active_count()
        digest = field_to_csv(fld, str(tmp_path / "f.csv"))
        assert threading.active_count() == before
        (logged,) = file_log.files
        assert logged.threads == [threading.current_thread()] * (1 + n_blocks)
        header = ",".join(["t\\x", *map(repr, fld.grid.xs.tolist())])
        with open(tmp_path / "f.csv", newline="") as fh:
            assert fh.read() == self.expected(fld.grid.ts, rows, header)
        assert digest == sha256_of(tmp_path / "f.csv")

    @pytest.mark.parametrize("call", ["field_to_csv", "run_experiment"])
    def test_write_failure_is_raised(self, tmp_path, monkeypatch, file_log, call):
        # writing the third block of rows (of 41) fails: the call raises
        # that error, writes nothing more to the file, and writes no other
        # file, the manifest least of all
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 62)  # 1 line of 61 nodes
        file_log.fail_at = 4
        with pytest.raises(OSError, match="No space left on device"):
            if call == "field_to_csv":
                field_to_csv(small_field(np.ones((41, 61))), str(tmp_path / "f.csv"))
            else:
                run_experiment({"experiment": "sec7-forward", "nx": 61, "nt": 41},
                               str(tmp_path), 0)
        (logged,) = file_log.files
        assert len(logged.threads) == 4
        assert not (tmp_path / "manifest.json").exists()


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
            assert sha256_of(path) == digest
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

    @pytest.mark.parametrize("name", ["sec7-backward", "schrodinger",
                                      "stopping-dist"])
    def test_rerun_is_deterministic(self, tmp_path, name):
        # the same seed writes the same artifacts: the pinning ones at the
        # same BLAS thread count, and the Monte Carlo ones
        cfg = tiny(name)
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
        # is narrower than one node spacing: a config error that names the
        # ratio sqrt(hbar dt) / dx and an nx at which the run passes, and
        # whose report records the ratio
        ratio = math.sqrt(0.05 * 0.02) / 0.04
        cfg = {"experiment": "schrodinger", "hbar": 0.05}
        with pytest.raises(experiments.ConfigError,
                           match=f"is {ratio:.3g} node spacings wide") as exc:
            run_experiment(cfg, str(tmp_path), 0)
        nx = int(str(exc.value).rsplit(">= ", 1)[1])
        man = run_experiment(dict(cfg, nx=nx), str(tmp_path), 0)
        assert man["all_checks_passed"], man["checks"]
        with open(tmp_path / "schrodinger_report.json") as fh:
            rep = json.load(fh)
        assert rep["kernel_sd_over_dx"] == pytest.approx(
            math.sqrt(0.05 * 0.02) / (8 / (nx - 1)))
        assert rep["kernel_sd_over_dx"] >= 1

    def test_bridge_small(self, tmp_path):
        man = run_experiment(tiny("bridge-test"), str(tmp_path), 100)
        with open(tmp_path / "bridge_test.json") as fh:
            rep = json.load(fh)
        assert len(rep["runs"]) == 3
        assert rep["runs"][0]["seed"] == 100
        assert man["checks"]["bridge_pass_rate"]

    @pytest.mark.parametrize("outcomes, passed", [
        ([False], False), ([True], True), ([True, False], True),
        ([False, True, False], False)])
    def test_bridge_gate_needs_all_but_one_and_one(self, monkeypatch, outcomes,
                                                   passed):
        runs = iter(outcomes)
        monkeypatch.setattr(experiments.simulate, "bridge_markov_test",
                            lambda **kw: {"p_value": 0.5, "passed": next(runs)})
        res = experiments.bridge_test(0, n_seeds=len(outcomes))
        assert res.checks["bridge_pass_rate"] is passed

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
        assert errors == acceptance.ALL_CRITERIA[10]().details["errors"][:2]

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
        res = experiments.stopping_dist(5, nx=151, nt=101, n_paths=2000,
                                        start=[-0.5, 1.02])
        survival = res.reports["survival_compare.json"]
        q_pde = survival["q_pde"]
        assert all(row["difference"] == row["mean"] - q_pde
                   for row in survival["martingale"]["checkpoints"])
        q = res.fields["q_0.25.csv"]
        assert q_pde == interpolate(q, -0.5, 1.02)
        assert q_pde != q.values[0, q.grid.nearest_column(1.02)]

    def test_stopping_small(self, tmp_path):
        man = run_experiment(tiny("stopping-dist"), str(tmp_path), 5)
        assert man["all_checks_passed"], man["checks"]
        assert (tmp_path / "q_0.25.csv").exists()
        assert (tmp_path / "q_0.1.csv").exists()
        with open(tmp_path / "survival_compare.json") as fh:
            survival = json.load(fh)
        assert survival["martingale"]["all_within_3_stderr"]
        ens = survival["ensemble"]
        assert ens["action_value"]["stderr"] > 0
        assert 0 < ens["boundary_hit_fraction"] < 1


@pytest.fixture(scope="module")
def tiny_stopping():
    """The survival functions and the ensemble of stopping-dist at its TINY
    config and seed 5, rebuilt from the layers it calls."""
    cfg = TINY["stopping-dist"]
    spec = core.ProblemSpec.from_json(analytic.WORKED_EXAMPLE)
    grid = core.build_grid(spec, cfg["nx"], cfg["nt"])
    val = hjb.value_from_eta(hjb.solve_forward_obstacle(spec, grid), spec.hbar)
    sols = [stopping.solve_q(stopping.SurvivalProblem(
                core.FORWARD, thr, val.drift, val.mask, spec.hbar))
            for thr in cfg["thresholds"]]
    ens = simulate.simulate_forward(spec, val.drift, val.mask, simulate.SimConfig(
        dt=cfg["dt"], n_paths=cfg["n_paths"], seed=5, start=(-0.5, 1.0),
        checkpoints=tuple(cfg["checkpoints"])))
    return sols, ens


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each experiment run once by ``run_experiment`` at its TINY config:
    name -> (output directory, manifest, the Result that was written)."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in EXPERIMENTS:
            kept = []
            mp.setitem(experiments.RUNNERS, name,
                       keeping(experiments.RUNNERS[name], kept))
            out = tmp_path_factory.mktemp(name)
            man = run_experiment(tiny(name), str(out), 5)
            runs[name] = (out, man, kept[0])
    return runs


class TestConfigKeys:
    #: the config keys each experiment accepts besides experiment, out, seed
    KEYS = {
        "sec7-forward": {"spec", "nx", "nt"},
        "sec7-backward": {"spec", "nx", "nt"},
        "sec7-classical-compare": {"spec", "nx", "nt"},
        "schrodinger": {"hbar", "nx", "nt", "marginals_csv"},
        "stopping-dist": {"spec", "nx", "nt", "thresholds", "checkpoints",
                          "start", "dt", "n_paths"},
        "barrier": {"n_paths"},
        "bridge-test": {"n_seeds", "n_paths", "n_bins"},
        "convergence-study": {"levels"},
    }

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_keys_are_the_keys_read(self, name):
        # a runner reads its config keys as its keyword parameters: it takes
        # the seed, then each key keyword-only with its default
        seed, *params = inspect.signature(experiments.RUNNERS[name]).parameters.values()
        assert (seed.name, seed.default) == ("seed", 0)
        assert {p.name for p in params} == self.KEYS[name]
        assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty
                   for p in params)

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
        out, man, _ = tiny_runs[name]
        assert sorted(os.listdir(out)) == sorted([*man["files"], "manifest.json"])
        for fname, digest in man["files"].items():
            assert sha256_of(out / fname) == digest

    def test_worker_thread_writes_the_digested_reprs(self, tmp_path,
                                                     monkeypatch):
        # in blocks of one line, every field of a small sec7-backward run
        # spans several blocks, each written and hashed as it is formatted:
        # its file reads back as the manifest's digest and as the reprs
        name, results = "sec7-backward", []
        monkeypatch.setitem(experiments.RUNNERS, name,
                            keeping(experiments.RUNNERS[name], results))
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
        man = run_experiment({"experiment": name, "nx": 61, "nt": 41},
                             str(tmp_path), 0)
        (result,) = results
        for fname, digest in man["files"].items():
            assert sha256_of(tmp_path / fname) == digest
        for fname, fld in result.fields.items():
            assert len(list(cli._csv_blocks(fld.grid.ts, fld.values))) > 1
            header = ",".join(["t\\x", *map(repr, fld.grid.xs.tolist())])
            with open(tmp_path / fname, newline="") as fh:
                assert fh.read() == TestCsvWriter().expected(
                    fld.grid.ts, fld.values, header)

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_fields_one_report_and_the_manifest(self, tiny_runs, name):
        # every CSV a run writes is a t x x field, and every other number
        # it emits is in its one JSON report
        out, _, res = tiny_runs[name]
        (report,) = res.reports
        assert report.endswith(".json")
        assert all(isinstance(fld, ScalarField) and f.endswith(".csv")
                   for f, fld in res.fields.items())
        assert sorted(os.listdir(out)) == sorted(
            [*res.fields, report, "manifest.json"])

    @pytest.mark.parametrize("name", ["sec7-forward", "sec7-backward"])
    def test_free_boundary_in_report(self, tiny_runs, name):
        # one list of x positions per row of eta.csv, bit for bit
        out, _, res = tiny_runs[name]
        grid = res.fields["eta.csv"].grid
        solve = (hjb.solve_forward_obstacle if name == "sec7-forward"
                 else hjb.solve_backward_obstacle)
        sol = solve(core.ProblemSpec.from_json(analytic.WORKED_EXAMPLE), grid)
        with open(out / "oracle_compare.json") as fh:
            boundary = json.load(fh)["free_boundary"]
        assert len(boundary) == grid.nt
        assert boundary == [b.tolist() for b in sol.boundary]
        assert any(boundary)

    def test_q_field_csvs(self, tiny_runs, tiny_stopping):
        # each threshold's survival function is a matrix CSV of its own,
        # named by the threshold's repr, that reads back bit for bit
        out, man, _ = tiny_runs["stopping-dist"]
        sols = tiny_stopping[0]
        assert [s.threshold for s in sols] == [0.25, 0.1]
        assert sorted(f for f in man["files"] if f.startswith("q_")) == [
            "q_0.1.csv", "q_0.25.csv"]
        for s in sols:
            table = np.loadtxt(out / f"q_{s.threshold!r}.csv", delimiter=",",
                               skiprows=1)
            grid = s.q.grid
            header = np.loadtxt(out / f"q_{s.threshold!r}.csv", delimiter=",",
                                max_rows=1, usecols=range(1, grid.nx + 1))
            assert np.array_equal(header, grid.xs)
            assert np.array_equal(table[:, 0], grid.ts)
            assert np.array_equal(table[:, 1:], s.q.values)

    def test_survival_records_the_unclamped_range(self, tiny_runs, tiny_stopping):
        out = tiny_runs["stopping-dist"][0]
        qsol = tiny_stopping[0][0]
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

    def test_no_resolved_density_fails_the_reversal_check(self):
        # where no node resolves rho nothing is checked: no error (null in
        # the report) and no node, on which the drift_reversal check fails
        grid = SpaceTimeGrid(xs=np.linspace(-4, 4, 5), ts=np.linspace(-0.5, 0.5, 3))
        ones = ScalarField(grid, np.ones((3, 5)))
        rho = ScalarField(grid, np.full((3, 5), 1e-13))
        assert experiments.drift_reversal_error(ones, ones, rho, 0.5) == (None, 0)

    @pytest.mark.parametrize("nt", [2, 21])
    @pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-3])
    def test_inhomogeneous_propagation_fails_the_gauge_check(self, monkeypatch,
                                                             offset, nt):
        # a propagation that adds a constant to its factor is not linear in
        # it, so the density moves under the gauge rescaling of the factors;
        # at nt = 2 each row holds one factor's data
        propagate = schrodinger._propagate
        monkeypatch.setattr(schrodinger, "_propagate",
                            lambda factor, *args: propagate(factor + offset, *args))
        res = experiments.pinning(nx=101, nt=nt)
        report = res.reports["schrodinger_report.json"]
        assert (report["gauge_deviation"] > experiments.GAUGE_TOL) == (offset > 0)
        assert res.checks["gauge_invariance"] == (offset == 0)

    def test_pinning_propagates_on_its_own_grid(self, monkeypatch):
        # the density's two factors and the gauge check's two rescaled ones
        grids = []
        propagate = schrodinger._propagate

        def recording(factor, grid, *args):
            grids.append(grid)
            return propagate(factor, grid, *args)

        monkeypatch.setattr(schrodinger, "_propagate", recording)
        res = experiments.pinning(nx=101, nt=21)
        assert all(grid == res.fields["rho.csv"].grid for grid in grids)
        assert len(grids) == 4

    def test_gauge_deviation_is_the_rescaled_density_change(self, tiny_runs):
        # tests/test_schrodinger.py::test_gauge_invariance's deviation at
        # c = 1.7, bit for bit, from the factors the report holds
        _, _, res = tiny_runs["schrodinger"]
        report = res.reports["schrodinger_report.json"]
        grid, hbar, c = res.fields["rho.csv"].grid, 0.5, 1.7
        factors = schrodinger.SchrodingerFactors(
            eta_star_init=np.array(report["eta_star_init"]),
            eta_final=np.array(report["eta_final"]),
            residual_trace=np.array(report["residual_trace"]))
        scaled = schrodinger.SchrodingerFactors(
            eta_star_init=factors.eta_star_init * c,
            eta_final=factors.eta_final / c,
            residual_trace=factors.residual_trace)
        rho_a, rho_b = (schrodinger.bernstein_density(
            schrodinger.propagate_eta(f, grid, hbar),
            schrodinger.propagate_eta_star(f, grid, hbar)) for f in (factors, scaled))
        assert report["gauge_deviation"] == np.max(np.abs(rho_a.values - rho_b.values))

    @pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
    def test_criterion_reads_what_its_runs_produce(self, tiny_runs, monkeypatch,
                                                   number):
        # the criterion read from the TINY run of each experiment it names: a
        # check, report or report field that the experiment does not produce
        # raises, and so does a config key that it does not read
        def tiny_run(name, seed, config):
            params = inspect.signature(experiments.RUNNERS[name]).parameters
            assert set(dict(config)) <= set(params) - {"seed"}
            return tiny_runs[name][2]

        monkeypatch.setattr(acceptance, "_run", tiny_run)
        assert acceptance.ALL_CRITERIA[number]().details
        # only criterion 1's solve times are read from outside the reports
        assert all(report is not None or number == 1
                   for _, report, _, _ in acceptance.CRITERIA[number][1])

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_timings_sit_beside_the_files(self, tiny_runs, name):
        _, man, _ = tiny_runs[name]
        timings = man["timings"]
        assert timings["compute_s"] > 0
        assert set(timings["write_s"]) == set(man["files"])
        assert all(s >= 0 for s in timings["write_s"].values())
        assert timings["cpus"] == core.usable_cpus()

    def test_schrodinger_factors_in_report(self, tiny_runs):
        # the density and one report, which holds the factors on the
        # density's x nodes, and nothing else
        out, _, res = tiny_runs["schrodinger"]
        assert sorted(os.listdir(out)) == [
            "manifest.json", "rho.csv", "schrodinger_report.json"]
        grid = res.fields["rho.csv"].grid
        p_init, p_final = (np.exp(-((grid.xs - mean) ** 2) / (2 * sd**2))
                           for mean, sd in experiments.PIN_MARGINALS)
        factors = schrodinger.pin_endpoints(  # at the default hbar, 0.5
            schrodinger.MarginalPair(xs=grid.xs, p_init=p_init, p_final=p_final),
            grid, 0.5)[0]
        with open(out / "schrodinger_report.json") as fh:
            report = json.load(fh)
        assert report["eta_star_init"] == factors.eta_star_init.tolist()
        assert report["eta_final"] == factors.eta_final.tolist()
        assert len(report["eta_final"]) == grid.nx
        assert report["iterations"] == factors.iterations
        assert report["marginal_residual"] == factors.final_marginal_error
        assert report["residual_trace"] == factors.residual_trace.tolist()
        assert report["tolerance"] == schrodinger.SINKHORN_TOL
        assert report["gauge"] == "eta_star_init equals 1 at the middle node"
        assert factors.eta_star_init[grid.nx // 2] == 1.0
        assert report["monotone_residuals"] is bool(factors.monotone)

    def test_martingale_in_survival_report(self, tiny_runs, tiny_stopping):
        # the martingale check but for q at the start, which is q_pde
        out = tiny_runs["stopping-dist"][0]
        (qsol, _), ens = tiny_stopping
        expected = stopping.martingale_check(qsol, ens,
                                             TINY["stopping-dist"]["checkpoints"])
        with open(out / "survival_compare.json") as fh:
            survival = json.load(fh)
        assert survival["q_pde"] == expected.pop("q_at_start")
        assert survival["martingale"] == expected


class TestPeakMemory:
    """The obstacle experiments allocate little beyond the grid arrays they
    keep. Peaks are measured by tracemalloc, to which numpy reports its
    array buffers, after a warm-up call that loads what a first call loads;
    they are counted in fields, one grid-sized float array each."""

    NX, NT = 201, 401

    def peak_fields(self, run, nx=NX, nt=NT):
        run()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (nx * nt * 8)

    @pytest.mark.parametrize("orientation", [core.FORWARD, core.BACKWARD])
    def test_sec7_holds_at_most_four_fields(self, orientation):
        # it keeps eta, U and the drift; one solve's working arrays add
        # less than one more
        assert self.peak_fields(lambda: experiments.sec7(
            orientation, nx=self.NX, nt=self.NT)) <= 4

    def test_classical_compare_holds_at_most_five_and_a_half_fields(self):
        # it keeps the two values; each solve's eta, mask and drift live
        # only until its value is built
        assert self.peak_fields(lambda: experiments.classical_compare(
            nx=self.NX, nt=self.NT)) <= 5.5

    def test_erf_oracle_peaks_under_120_mb(self):
        # its time grid ends one step past the threshold and its zero drift
        # is a read-only view: 96.2 MB measured, of which q is one 64 MB
        # field; 176.3 MB when the grid ran 500 rows past the threshold
        # under a drift field of zeros
        from scipy.linalg import lapack  # noqa: F401  (imported before tracing)

        experiments.erf_survival_pde.cache_clear()
        tracemalloc.start()
        try:
            value = experiments.erf_survival_pde()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value - math.erf(1 / math.sqrt(2))) <= experiments.ERF_TOL
        assert peak <= 120e6

    def test_stopping_dist_holds_at_most_four_and_a_half_fields(self):
        # it keeps U, the drift, the mask and q; the solve's eta lives only
        # until the drift is built, and q is returned as the field it is
        # (3.8 fields measured)
        assert self.peak_fields(lambda: experiments.stopping_dist(
            nx=self.NX, nt=self.NT, n_paths=2000, dt=2e-3)) <= 4.5

    def test_pinning_holds_at_most_nine_fields(self):
        # eta, eta* and rho, with the drift-reversal and gauge checks'
        # arrays on top (8.27 fields measured); on nx = 401, nt = 201, since
        # the class's 201 nodes and 401 slices leave the one-step kernel
        # narrower than a node spacing, which the run rejects
        assert self.peak_fields(lambda: experiments.pinning(nx=401, nt=201),
                                nx=401, nt=201) <= 9


class TestMain:
    def test_run_exit_zero_and_outdir_resolution(self, tmp_path, monkeypatch,
                                                 capsys):
        # --out names the output directory, else it is ./out
        cfgp = write_config(tmp_path, {"experiment": "sec7-forward",
                                       "nx": 151, "nt": 126})
        monkeypatch.chdir(tmp_path)
        assert main(["run", cfgp]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "PASS lcp_residual" in out
        assert out.endswith(f"manifest: {os.path.join('out', 'manifest.json')}\n")
        assert main(["run", cfgp, "--out", str(tmp_path / "flagout")]) == 0
        assert (tmp_path / "flagout" / "manifest.json").exists()

    def test_convergence_rejects_custom_spec(self, tmp_path, capsys):
        # the study scores each level against the worked example's oracle,
        # which says nothing about another problem: it takes no spec
        spec = dict(analytic.WORKED_EXAMPLE,
                    terminal_cost={"name": "abs", "scale": 2})
        cfgp = write_config(tmp_path, {"experiment": "convergence-study",
                                       "levels": [[151, 126], [301, 501]],
                                       "spec": spec})
        assert main(["run", cfgp, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bernstein: error: unknown config keys ['spec'] "
                              "for convergence-study")
        assert not (tmp_path / "out" / "convergence.json").exists()

    UNDERFLOWING_SPEC = dict(analytic.WORKED_EXAMPLE, hbar=0.06, terminal_cost={
        "name": "quadratic", "scale": 3.0, "center": -2.0})
    NEGATIVE_POTENTIAL_SPEC = dict(analytic.WORKED_EXAMPLE, potential={
        "name": "constant", "value": -5000.0})

    @pytest.mark.parametrize("cfg, message", [
        ({"experiment": "nope"}, "unknown experiment 'nope'"),
        ({"experiment": "sec7-forward", "n_x": 31}, "unknown config keys ['n_x']"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE,
                       terminal_cost={"name": "abs", "scal": 5})},
         "function 'abs' takes scale, not ['scal']\n"),
        ({"experiment": "sec7-backward", "spec": {"hbar": 1.0}},
         "problem document is missing field 'half_horizon'\n"),
        ({"experiment": "sec7-forward", "spec": {}},
         "problem document is missing field 'hbar'\n"),
        ({"experiment": "stopping-dist",
          "spec": dict(analytic.WORKED_EXAMPLE, potential="sqrt")},
         "unknown function 'sqrt'"),
        ({"experiment": "sec7-classical-compare",
          "spec": dict(analytic.WORKED_EXAMPLE, hbar=0)},
         "hbar must be positive, got 0.0\n"),
        ({"experiment": "sec7-forward", "nx": 2}, "need nx >= 3 and nt >= 2"),
        ({"experiment": "stopping-dist", "thresholds": []},
         "stopping-dist needs at least one threshold\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21,
          "thresholds": [0.25, 0.2501]},
         "thresholds: t = 0.2501 is on no grid node; the nearest grid time "
         "is 0.25\n"),
        ({"experiment": "convergence-study", "levels": [[151, 126]]},
         "convergence-study needs at least two levels to measure an order, "
         "got 1\n"),
        ({"experiment": "bridge-test", "n_seeds": 0},
         "bridge-test needs n_seeds >= 1, got 0\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "thresholds": [0.5]},
         "thresholds: threshold 0.5 must be strictly inside (-0.5, 0.5)\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "dt": 0},
         "dt must be positive\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 0},
         "n_paths must be >= 1\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "start": [0.6, 1.0]},
         "start time 0.6 outside horizon\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "checkpoints": [-0.7]},
         "checkpoint -0.7 lies before the start time -0.5 of the forward run\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "start": [-0.5, 5.0]},
         "start x 5.0 outside [-3.0, 3.0]\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 1},
         "stopping-dist needs n_paths >= 2 for a standard error, got 1\n"),
        ({"experiment": "barrier", "n_paths": 1},
         "barrier needs n_paths >= 2 for a standard error, got 1\n"),
        ({"experiment": "convergence-study", "levels": [[31, 21], [30, 21]]},
         "nx = 30 puts no node at x = 0, the worked example's stopping column; "
         "take an odd nx\n"),
        ({"experiment": "schrodinger", "nx": 1},
         "need nx >= 3 and nt >= 2, got nx=1, nt=51\n"),
        ({"experiment": "schrodinger", "nx": 2},
         "need nx >= 3 and nt >= 2, got nx=2, nt=51\n"),
        ({"experiment": "schrodinger", "nt": 1},
         "need nx >= 3 and nt >= 2, got nx=201, nt=1\n"),
        ({"experiment": "schrodinger", "hbar": 0},
         "hbar must be positive, got 0.0\n"),
        ({"experiment": "schrodinger", "hbar": 0.05},
         "the pinning kernel over one time step is 0.791 node spacings wide "
         "(sqrt(hbar dt) / dx), under 1; take nx >= 254\n"),
        # the kernel over the horizon underflows before its resolution is
        # judged, so no advice to refine the grid leads into the underflow
        ({"experiment": "schrodinger", "hbar": 0.01},
         "the pinning kernel over the horizon underflows to 0 at hbar = 0.01 "
         "between nodes the domain width 8 apart, on any grid; take a larger "
         "hbar\n"),
        ({"experiment": "schrodinger", "hbar": 0.01, "nx": 567},
         "the pinning kernel over the horizon underflows to 0 at hbar = 0.01 "
         "between nodes the domain width 8 apart, on any grid; take a larger "
         "hbar\n"),
        ({"experiment": "bridge-test", "n_bins": 1},
         "bridge-test needs n_bins >= 2 and n_paths >= 5 n_bins, got "
         "n_bins = 1, n_paths = 100000\n"),
        ({"experiment": "bridge-test", "n_bins": 0},
         "bridge-test needs n_bins >= 2 and n_paths >= 5 n_bins, got "
         "n_bins = 0, n_paths = 100000\n"),
        ({"experiment": "bridge-test", "n_paths": 100},
         "bridge-test needs n_bins >= 2 and n_paths >= 5 n_bins, got "
         "n_bins = 30, n_paths = 100\n"),
        # values of the wrong JSON type
        ({"experiment": "sec7-forward", "nx": None, "nt": 21},
         "nx: expected an integer, got None\n"),
        ({"experiment": "schrodinger", "hbar": None},
         "hbar: expected a number, got None\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21, "spec": [1, 2]},
         "a problem document is an object of fields, not [1, 2]\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "thresholds": 0.25},
         "thresholds: 'float' object is not iterable\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "checkpoints": 0.1},
         "checkpoints: 'float' object is not iterable\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "start": 1.0},
         "start: 'float' object is not iterable\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": None},
         "n_paths: expected an integer, got None\n"),
        ({"experiment": "bridge-test", "n_bins": "x"},
         "n_bins: expected an integer, got 'x'\n"),
        ({"experiment": "bridge-test", "n_seeds": None},
         "n_seeds: expected an integer, got None\n"),
        ({"experiment": "convergence-study", "levels": 3},
         "levels: 'int' object is not iterable\n"),
        ({"experiment": "convergence-study", "levels": [[31, 21, 5], [61, 41, 5]]},
         "levels: too many values to unpack (expected 2)\n"),
        ({"experiment": "schrodinger", "marginals_csv": "a.csv"},
         "marginals_csv must be a pair of paths [init, final], got 'a.csv'\n"),
        ({"experiment": "schrodinger",
          "marginals_csv": ["no/such/init.csv", "no/such/final.csv"]},
         "marginals_csv: [Errno 2] No such file or directory: 'no/such/init.csv'\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21, "seed": "x"},
         "seed: expected an integer, got 'x'\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE,
                       terminal_cost={"name": "abs", "scale": None})},
         "function 'abs' parameter scale must be a number, not None\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE,
                       initial_cost={"name": "log1p_abs", "scale": "x"})},
         "function 'log1p_abs' parameter scale must be a number, not 'x'\n"),
        # a spec's numbers are read as the config's are, not cast; a field
        # it does not have is named, not ignored; a function parameter is
        # finite
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE, hbar=True)},
         "hbar: expected a number, got True\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE, half_horizon="0.5")},
         "half_horizon: expected a number, got '0.5'\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE, x_min=-10 ** 400)},
         "x_min: int too large to convert to float\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE, potental="quadratic")},
         "unknown problem fields ['potental']; valid fields: half_horizon, "
         "hbar, initial_cost, potential, terminal_cost, x_max, x_min\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE,
                       terminal_cost={"name": "abs", "scale": math.inf})},
         "function 'abs' parameter scale must be finite, got inf\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE,
                       terminal_cost={"name": "abs", "scale": 10 ** 400})},
         f"function 'abs' parameter scale must be finite, got {10 ** 400}\n"),
        ({"experiment": "sec7-forward", "nx": 31, "nt": 21,
          "spec": dict(analytic.WORKED_EXAMPLE,
                       potential={"name": "constant", "value": math.nan})},
         "function 'constant' parameter value must be finite, got nan\n"),
        # non-finite numbers, which Python's json reads as NaN and Infinity
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "dt": math.nan},
         "dt must be finite, got nan\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "dt": math.inf},
         "dt must be finite, got inf\n"),
        ({"experiment": "stopping-dist", "nx": math.inf},
         "nx: expected an integer, got inf\n"),
        ({"experiment": "barrier", "n_paths": math.inf},
         "n_paths: expected an integer, got inf\n"),
        ({"experiment": "sec7-forward", "seed": -math.inf},
         "seed: expected an integer, got -inf\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21,
          "checkpoints": [0.1, math.nan]},
         "checkpoint nan is not a finite time\n"),
        # a number that is not an integer, a bool or a numeric string is
        # not cast: an integer key takes an integer, a number key a number
        ({"experiment": "sec7-forward", "nx": 61.9, "nt": 41.5},
         "nx: expected an integer, got 61.9\n"),
        ({"experiment": "sec7-forward", "nx": "61", "nt": "41"},
         "nx: expected an integer, got '61'\n"),
        ({"experiment": "sec7-forward", "nx": 61, "nt": True},
         "nt: expected an integer, got True\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 200,
          "dt": True},
         "dt: expected a number, got True\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 200,
          "start": [-0.5, True]},
         "start: expected a number, got True\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 200,
          "start": [-0.5, 1, 2]},
         "start: expected a pair [t, x], got [-0.5, 1.0, 2.0]\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 200,
          "start": [-0.5]},
         "start: expected a pair [t, x], got [-0.5]\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 200,
          "checkpoints": [True]},
         "checkpoints: expected a number, got True\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21,
          "thresholds": ["0.25"]},
         "thresholds: expected a number, got '0.25'\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 200.5},
         "n_paths: expected an integer, got 200.5\n"),
        ({"experiment": "bridge-test", "n_seeds": True},
         "n_seeds: expected an integer, got True\n"),
        ({"experiment": "schrodinger", "hbar": True},
         "hbar: expected a number, got True\n"),
        ({"experiment": "convergence-study", "levels": [[31, 21], [61, 41.5]]},
         "levels: expected an integer, got 41.5\n"),
        ({"experiment": "barrier", "seed": False},
         "seed: expected an integer, got False\n"),
        # a seed the Philox key of the paths would not tell apart from another
        ({"experiment": "barrier", "seed": -1},
         "seed: expected an integer in [0, 2**63), got -1\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "n_paths": 100,
          "seed": 2 ** 63},
         "seed: expected an integer in [0, 2**63), got 9223372036854775808\n"),
        ({"experiment": "bridge-test", "seed": 2 ** 63 - 1, "n_seeds": 2},
         "the last seed, seed + n_seeds - 1: expected an integer in [0, 2**63), "
         "got 9223372036854775808\n"),
        # two thresholds on one grid row would march q twice into one file
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21,
          "thresholds": [0.25, 0.1, 0.25]},
         "thresholds: 0.25 and 0.25 are both the grid time 0.25\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21,
          "thresholds": [0.1, 0.1 + 1e-12]},
         "thresholds: 0.1 and 0.10000000000100001 are both the grid time "
         "0.10000000000000009\n"),
        # the output directory is --out alone
        ({"experiment": "bridge-test", "out": "x"}, "unknown config keys ['out']"),
        # a spec that hjb._operator rejects on the grid: an obstacle
        # exp(-cost/hbar) that underflows to 0 (exp(-75/0.06) at x = 3,
        # exp(-50/0.064) at x = -3) in the orientation the run solves, and a
        # potential so negative that the step is no M-matrix
        ({"experiment": "sec7-forward", "nx": 61, "nt": 21,
          "spec": UNDERFLOWING_SPEC},
         "obstacle exp(-cost/hbar) must be strictly positive\n"),
        ({"experiment": "sec7-classical-compare", "nx": 61, "nt": 21,
          "spec": UNDERFLOWING_SPEC},
         "obstacle exp(-cost/hbar) must be strictly positive\n"),
        ({"experiment": "stopping-dist", "nx": 61, "nt": 21, "n_paths": 200,
          "spec": UNDERFLOWING_SPEC},
         "obstacle exp(-cost/hbar) must be strictly positive\n"),
        ({"experiment": "sec7-backward", "nx": 61, "nt": 21,
          "spec": {"half_horizon": 0.5, "x_min": -3.0, "x_max": 3.0,
                   "hbar": 0.06392786120670757, "potential": {"name": "zero"},
                   "terminal_cost": {"name": "zero"},
                   "initial_cost": {"name": "quadratic", "scale": 2.0, "center": 2.0}}},
         "obstacle exp(-cost/hbar) must be strictly positive\n"),
        ({"experiment": "stopping-dist", "nx": 61, "nt": 21, "n_paths": 200,
          "spec": NEGATIVE_POTENTIAL_SPEC},
         "potential too negative for this time step: the LU pivot"),
        ({"experiment": "sec7-forward", "nx": 61, "nt": 21,
          "spec": NEGATIVE_POTENTIAL_SPEC},
         "potential too negative for this time step: the LU pivot"),
        # three nodes, -3, 0 and 3, none in the band the oracle checks read
        ({"experiment": "sec7-forward", "nx": 3, "nt": 21},
         "nx = 3 puts no node in the oracle band 0.1 <= |x| <= 2.5; take "
         "nx >= 5\n"),
        ({"experiment": "sec7-backward", "nx": 3, "nt": 21},
         "nx = 3 puts no node in the oracle band 0.1 <= |x| <= 2.5; take "
         "nx >= 5\n"),
        ({"experiment": "convergence-study", "levels": [[3, 21], [31, 21]]},
         "nx = 3 puts no node in the oracle band 0.1 <= |x| <= 2.5; take "
         "nx >= 5\n"),
        # a martingale check of no checkpoint judges nothing
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "checkpoints": []},
         "stopping-dist needs at least one checkpoint\n"),
        # no step reaches it: the paths would be judged at their stop times
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21, "checkpoints": [0.7]},
         "checkpoint 0.7 lies after the end 0.5 of the forward run\n"),
        ({"experiment": "stopping-dist", "nx": 31, "nt": 21,
          "checkpoints": [0.1, 0.1]},
         "checkpoint 0.1 is repeated\n"),
    ], ids=["experiment", "key", "function-parameter", "spec-field", "empty-spec",
            "function-name", "spec-hbar", "grid-size", "no-thresholds",
            "off-grid-threshold", "one-level", "no-seeds", "end-threshold",
            "zero-dt", "no-paths", "start-past-horizon", "checkpoint-before-start",
            "start-off-grid", "one-path", "barrier-one-path", "study-even-nx",
            "pinning-one-node", "pinning-two-nodes", "pinning-one-time",
            "pinning-hbar", "pinning-unresolved", "pinning-underflow",
            "pinning-underflow-resolved", "one-bin",
            "no-bins", "few-paths-per-bin", "null-nx", "null-hbar", "list-spec",
            "scalar-thresholds", "scalar-checkpoints", "scalar-start",
            "null-paths", "text-bins", "null-seeds", "scalar-levels",
            "triple-levels", "one-marginal-path", "missing-marginal-file",
            "text-seed", "null-parameter",
            "text-parameter", "bool-spec-hbar", "text-spec-half-horizon",
            "long-spec-x-min", "misspelt-spec-field", "infinite-parameter",
            "long-parameter", "nan-parameter", "nan-dt", "infinite-dt", "infinite-nx",
            "infinite-paths", "infinite-seed", "nan-checkpoint",
            "fractional-nx", "text-nx", "bool-nt", "bool-dt", "bool-start",
            "long-start", "short-start",
            "bool-checkpoint", "text-threshold", "fractional-paths",
            "bool-seeds", "bool-hbar", "fractional-level", "bool-seed",
            "negative-seed", "long-seed", "long-last-seed", "repeated-threshold",
            "repeated-threshold-row", "out-key", "obstacle-underflow",
            "obstacle-underflow-classical", "obstacle-underflow-stopping",
            "obstacle-underflow-backward", "negative-potential",
            "negative-potential-sec7", "no-band-node", "no-band-node-backward",
            "study-no-band-node", "no-checkpoints", "checkpoint-past-horizon",
            "repeated-checkpoint"])
    def test_config_error_is_one_line(self, tmp_path, capsys, monkeypatch,
                                      cfg, message):
        self.assert_rejected(tmp_path, capsys, monkeypatch, cfg, message)

    @pytest.mark.parametrize("seed", [str(2 ** 63), "-1"])
    def test_seed_option_out_of_range_is_one_line(self, tmp_path, capsys,
                                                  monkeypatch, seed):
        self.assert_rejected(
            tmp_path, capsys, monkeypatch, {"experiment": "barrier"},
            f"--seed: expected an integer in [0, 2**63), got {seed}\n",
            "--seed", seed)

    @pytest.mark.parametrize("out", ["", "taken", "taken/out"],
                             ids=["empty", "file", "below-file"])
    def test_unusable_out_is_one_line(self, tmp_path, capsys, monkeypatch, out):
        # an --out at which no directory can be made is named before the
        # run, not met by os.makedirs after it
        (tmp_path / "taken").write_text("")
        message = (f"--out: {tmp_path / 'taken'} is not a directory\n" if out
                   else "--out: an empty path names no directory\n")
        self.assert_rejected(tmp_path, capsys, monkeypatch, {"experiment": "sec7-forward"},
                             message, "--out", str(tmp_path / out) if out else "")

    @staticmethod
    def assert_rejected(tmp_path, capsys, monkeypatch, cfg, message, *options):
        """``bernstein run`` of ``cfg`` with ``options`` prints ``message``
        as one error line and exits 2, before anything is computed."""
        def computed(*args, **kwargs):
            raise AssertionError("a rejected config was computed")

        for mod, fn in ((experiments.hjb, "solve_forward_obstacle"),
                        (experiments.hjb, "solve_backward_obstacle"),
                        (experiments.simulate, "bridge_markov_test"),
                        (experiments.schrodinger, "pin_endpoints")):
            monkeypatch.setattr(mod, fn, computed)
        cfgp = write_config(tmp_path, cfg)
        assert main(["run", cfgp, "--out", str(tmp_path / "out"), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"bernstein: error: {message}")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_integral_float_reads_as_its_integer(self, tmp_path):
        # 31.0 and 2.1e1 are JSON numbers of integral value: the grid is
        # 31 x 21, and the manifest records the config as given
        statuses, mans = [], []
        for name, text in (("int", '{"experiment": "sec7-forward", "nx": 31, "nt": 21}'),
                           ("float", '{"experiment": "sec7-forward", "nx": 31.0, "nt": 2.1e1}')):
            (tmp_path / f"{name}.json").write_text(text)
            statuses.append(main(["run", str(tmp_path / f"{name}.json"),
                                  "--out", str(tmp_path / name)]))
            with open(tmp_path / name / "manifest.json") as fh:
                mans.append(json.load(fh))
        assert statuses[0] == statuses[1]
        assert mans[0]["files"] == mans[1]["files"]
        assert mans[1]["config"] == {"experiment": "sec7-forward", "nx": 31.0,
                                     "nt": 21.0}

    @pytest.mark.parametrize("change", [
        {"terminal_cost": "zero", "initial_cost": "zero"},
        {"x_min": 3.0, "x_max": 5.0}, {"x_min": -0.05, "x_max": 0.05}],
        ids=["zero-cost", "band-right-of-grid", "grid-inside-band-gap"])
    def test_classical_compare_on_another_spec(self, tmp_path, capsys, change):
        # only the worked example gains strictly at (0, 1), and a grid with
        # no node in the band 0.1 <= |x| <= 2.5 has no restricted norms
        cfgp = write_config(tmp_path, {
            "experiment": "sec7-classical-compare", "nx": 61, "nt": 41,
            "spec": dict(analytic.WORKED_EXAMPLE, **change)})
        assert main(["run", cfgp, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("PASS dominance\nmanifest: ")
        with open(tmp_path / "out" / "compare.json") as fh:
            rep = json.load(fh)
        assert math.isfinite(rep["gap_at_t0_x1"])
        for key in ("restricted_inf_norm", "restricted_scaled_2_norm"):
            assert (rep[key] is None) == ("x_min" in change)

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

    @pytest.mark.parametrize("bad_line, message", [
        ("0,O.3", "'0,O.3' is not an x,density pair of numbers"),
        ("0,0.3,1", "'0,0.3,1' is not an x,density pair of numbers"),
        ("0,nan", "marginals must be finite and strictly positive nodewise"),
    ], ids=["unparsed", "three-columns", "nan"])
    def test_bad_marginal_csv_is_a_config_error(self, tmp_path, capsys,
                                                bad_line, message):
        # a header on the first line is skipped; any other bad line is not
        paths = []
        for name in ("init.csv", "final.csv"):
            with open(tmp_path / name, "w") as fh:
                fh.write("x,density\n-1,0.2\n" + (
                    bad_line if name == "init.csv" else "0,0.3") + "\n1,0.2\n")
            paths.append(str(tmp_path / name))
        cfgp = write_config(tmp_path, {"experiment": "schrodinger",
                                       "marginals_csv": paths})
        assert main(["run", cfgp, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bernstein: error: marginals_csv: ")
        assert err.endswith(f"{message}\n") and err.count("\n") == 1
        if "nan" not in bad_line:
            assert f"{paths[0]}, line 3: " in err
        assert not (tmp_path / "out").exists()

    def test_error_in_the_computation_propagates(self, tmp_path, monkeypatch):
        # only config errors become an exit status; anything the run
        # raises keeps its traceback
        def broken(seed=0):
            raise ValueError("solver failed")

        monkeypatch.setitem(experiments.RUNNERS, "sec7-forward", broken)
        cfgp = write_config(tmp_path, {"experiment": "sec7-forward"})
        with pytest.raises(ValueError, match="solver failed"):
            main(["run", cfgp, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read the config {path}: No such file or directory\n"),
        ("{'experiment': 'bridge-test'}", "the config {path} is not JSON: "
         "Expecting property name enclosed in double quotes: line 1 column 2 "
         "(char 1)\n"),
        ("[1, 2]", "a config is a JSON object of settings, not [1, 2]\n"),
    ], ids=["missing-file", "not-json", "list"])
    def test_unreadable_config_is_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bernstein: error: {message.format(path=path)}"
        assert not (tmp_path / "out").exists()

    def test_seed_override_recorded(self, tmp_path):
        cfgp = write_config(tmp_path, {"experiment": "bridge-test",
                                       "n_seeds": 1, "n_paths": 20000,
                                       "n_bins": 10, "seed": 1})
        out = str(tmp_path / "o")
        main(["run", cfgp, "--out", out, "--seed", "77"])
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["seed"] == 77

    @pytest.mark.parametrize("number", ["0", "11"])
    def test_unknown_criterion_is_a_usage_error(self, capsys, number):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--criteria", "7", number])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bernstein check")
        assert f"argument --criteria: invalid choice: {number}" in err

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
    experiments.RUNNERS[name](0, **cfg)
    stages[name] = loaded()
print(json.dumps(stages))
"""


def test_cold_start_loads_scipy_subpackages_on_demand():
    # scipy.stats is never needed; scipy.linalg only by a banded solve,
    # which schrodinger never makes; scipy.special only by the bridge test;
    # scipy.integrate by no run: the worked example's oracles (sec7-forward,
    # barrier) take a fixed Gauss-Legendre rule from numpy
    runs = [["schrodinger", TINY["schrodinger"]],
            ["stopping-dist", dict(TINY["stopping-dist"], spec=analytic.WORKED_EXAMPLE)],
            ["sec7-forward", TINY["sec7-forward"]],
            ["barrier", TINY["barrier"]],
            ["bridge-test", {"n_seeds": 1, "n_paths": 1000, "n_bins": 5}]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, json.dumps(runs)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages == {
        "import": [], "schrodinger": [], "stopping-dist": ["scipy.linalg"],
        "sec7-forward": ["scipy.linalg"], "barrier": ["scipy.linalg"],
        "bridge-test": ["scipy.linalg", "scipy.special"]}
    assert not any("scipy.integrate" in loaded for loaded in stages.values())


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
    assert len(EXPERIMENTS) == 8
    assert len(set(EXPERIMENTS)) == 8
