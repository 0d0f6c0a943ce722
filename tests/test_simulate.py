import math

import numpy as np
import pytest

from bernstein.core import (
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
    STOPPING,
    build_grid,
)
from bernstein.hjb import solve_backward_obstacle, solve_forward_obstacle, value_from_eta
from bernstein.simulate import (
    PathEnsemble,
    SimConfig,
    action_estimate,
    bridge_markov_test,
    fokker_planck,
    reversed_drift,
    simulate_backward,
    simulate_forward,
    write_ensemble,
)


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def make_spec(**kw):
    base = dict(
        hbar=1.0,
        half_horizon=0.5,
        potential=zero,
        terminal_cost=lambda x: np.abs(x),
        initial_cost=lambda x: np.log1p(np.abs(x)),
        x_min=-3.0,
        x_max=3.0,
    )
    base.update(kw)
    return ProblemSpec(**base)


@pytest.fixture(scope="module")
def sec7_value():
    spec = make_spec()
    grid = build_grid(spec, 301, 501)
    return spec, value_from_eta(solve_forward_obstacle(spec, grid), spec.hbar)


class TestBrownianBaseline:
    def test_moments_without_stopping(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-3, n_paths=4000, seed=1, start=(-0.5, 1.0))
        ens = simulate_forward(spec, None, None, cfg)
        n = ens.n_paths
        mean = ens.stopped_state.mean()
        var = ens.stopped_state.var(ddof=1)
        assert abs(mean - 1.0) <= 3 * math.sqrt(1.0 / n)
        assert abs(var - 1.0) <= 3 * math.sqrt(2.0 / n)
        assert np.all(ens.stop_time == 0.5)
        assert not np.any(ens.hit_flag)

    def test_constant_payoff_exact(self):
        spec = make_spec(terminal_cost=lambda x: np.full_like(
            np.asarray(x, dtype=float), 2.5))
        cfg = SimConfig(dt=1e-2, n_paths=100, seed=2, start=(-0.5, 0.3))
        est = action_estimate(simulate_forward(spec, None, None, cfg))
        assert est["mean"] == pytest.approx(2.5)
        assert est["stderr"] == pytest.approx(0.0, abs=1e-15)

    def test_backward_zero_drift_mean(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-3, n_paths=4000, seed=3, start=(0.5, 0.7))
        ens = simulate_backward(spec, None, None, cfg)
        assert abs(ens.stopped_state.mean() - 0.7) <= 3 * math.sqrt(1.0 / 4000)
        assert np.all(ens.stop_time == -0.5)


class TestDeterminism:
    def test_chunking_does_not_change_results(self):
        spec = make_spec()
        base = dict(dt=2e-3, n_paths=500, seed=9, start=(-0.5, 1.0))
        a = simulate_forward(spec, None, None,
                             SimConfig(**base, chunk_size=500), barrier=0.0)
        b = simulate_forward(spec, None, None,
                             SimConfig(**base, chunk_size=37), barrier=0.0)
        assert np.array_equal(a.stop_time, b.stop_time)
        assert np.array_equal(a.action_value, b.action_value)

    def test_same_seed_identical(self):
        spec = make_spec()
        cfg = SimConfig(dt=2e-3, n_paths=300, seed=9, start=(-0.5, 1.0))
        a = simulate_forward(spec, None, None, cfg, barrier=0.0)
        b = simulate_forward(spec, None, None, cfg, barrier=0.0)
        assert np.array_equal(a.stopped_state, b.stopped_state)

    def test_different_seed_differs(self):
        spec = make_spec()
        a = simulate_forward(spec, None, None,
                             SimConfig(dt=2e-3, n_paths=300, seed=1,
                                       start=(-0.5, 1.0)))
        b = simulate_forward(spec, None, None,
                             SimConfig(dt=2e-3, n_paths=300, seed=2,
                                       start=(-0.5, 1.0)))
        assert not np.array_equal(a.stopped_state, b.stopped_state)


class TestBarrierStopping:
    def test_stopped_exactly_on_barrier(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-3, n_paths=2000, seed=5, start=(-0.5, 0.5))
        ens = simulate_forward(spec, None, None, cfg, barrier=0.0)
        hit = ens.hit_flag
        assert hit.any()
        assert np.all(ens.stopped_state[hit] == 0.0)
        assert np.all(ens.stop_time[hit] < 0.5)
        assert np.all(ens.stop_time >= -0.5)

    def test_survival_erf(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-3, n_paths=20000, seed=6, start=(-0.5, 1.0))
        ens = simulate_forward(spec, None, None, cfg, barrier=0.0)
        p = 1 - ens.hit_flag.mean()
        ref = math.erf(1 / math.sqrt(2))
        assert abs(p - ref) <= 3 * math.sqrt(ref * (1 - ref) / 20000)

    def test_bridge_correction_reduces_bias(self):
        # without the conditional crossing test the survival estimate is
        # biased upward at coarse dt; the correction must remove most of it
        spec = make_spec()
        ref = math.erf(1 / math.sqrt(2))
        base = dict(dt=2e-2, n_paths=40000, seed=7, start=(-0.5, 1.0))
        raw = simulate_forward(spec, None, None,
                               SimConfig(**base, bridge_correction=False),
                               barrier=0.0)
        fixed = simulate_forward(spec, None, None,
                                 SimConfig(**base, bridge_correction=True),
                                 barrier=0.0)
        bias_raw = (1 - raw.hit_flag.mean()) - ref
        bias_fixed = (1 - fixed.hit_flag.mean()) - ref
        assert bias_raw > 0.02
        assert abs(bias_fixed) < bias_raw / 3

    def test_degenerate_start_on_barrier(self, sec7_value):
        spec, val = sec7_value
        cfg = SimConfig(dt=1e-3, n_paths=10, seed=8, start=(-0.5, 0.0))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        assert np.all(ens.stop_time == -0.5)
        assert np.all(ens.hit_flag)
        assert np.all(ens.action_value == 0.0)

    def test_backward_degenerate_start_on_barrier(self):
        # the backward x = 0 stopping column is a point barrier; a start on
        # it stops at once, with state 0 and action S*(0) = 0
        spec = make_spec()
        grid = build_grid(spec, 61, 41)
        val = value_from_eta(solve_backward_obstacle(spec, grid), spec.hbar)
        cfg = SimConfig(dt=1e-3, n_paths=10, seed=8, start=(0.25, 0.0))
        ens = simulate_backward(spec, val.drift, val.mask, cfg)
        assert ens.orientation == "backward"
        assert np.all(ens.stop_time == 0.25)
        assert np.all(ens.stopped_state == 0.0)
        assert np.all(ens.hit_flag)
        assert np.all(ens.action_value == 0.0)


class TestOptimalPolicy:
    def test_boundary_hits_land_on_zero(self, sec7_value):
        spec, val = sec7_value
        cfg = SimConfig(dt=1e-3, n_paths=2000, seed=10, start=(-0.5, 1.0))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        assert np.all(ens.stopped_state[ens.hit_flag] == 0.0)

    def test_backward_mirror_consistency(self, sec7_value):
        spec, val = sec7_value
        # backward run of the mirrored problem (initial cost = |x|) from the
        # opposite end reproduces the forward stop-time law under s -> -s
        mirrored = make_spec(initial_cost=lambda x: np.abs(x))
        grid = val.value.grid
        bsol = solve_backward_obstacle(mirrored, grid)
        bval = value_from_eta(bsol, mirrored.hbar)
        n = 4000
        fcfg = SimConfig(dt=1e-3, n_paths=n, seed=11, start=(-0.5, 1.0))
        bcfg = SimConfig(dt=1e-3, n_paths=n, seed=12, start=(0.5, 1.0))
        fens = simulate_forward(spec, val.drift, val.mask, fcfg)
        bens = simulate_backward(mirrored, bval.drift, bval.mask, bcfg)
        assert np.all(bens.stop_time >= -0.5) and np.all(bens.stop_time <= 0.5)
        assert np.all(bens.stopped_state[bens.hit_flag] == 0.0)
        mf, sf = fens.stop_time.mean(), fens.stop_time.std(ddof=1) / math.sqrt(n)
        mb, sb = (-bens.stop_time).mean(), bens.stop_time.std(ddof=1) / math.sqrt(n)
        assert abs(mf - mb) <= 3 * math.hypot(sf, sb)
        assert abs(fens.hit_flag.mean() - bens.hit_flag.mean()) <= 3 * math.hypot(
            math.sqrt(0.25 / n), math.sqrt(0.25 / n))


class TestReversedDrift:
    def test_gaussian_log_derivative(self):
        grid = SpaceTimeGrid(xs=np.linspace(-2, 2, 201), ts=np.linspace(0, 1, 3))
        rho = ScalarField(grid, np.tile(
            np.exp(-grid.xs**2 / 2) / math.sqrt(2 * math.pi), (3, 1)))
        b = ScalarField(grid, np.zeros((3, 201)))
        rev = reversed_drift(b, rho, 1.0)
        assert np.allclose(rev.values[:, 1:-1], grid.xs[1:-1], atol=1e-3)

    def test_constant_density_identity(self):
        grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 21), ts=np.linspace(0, 1, 2))
        rho = ScalarField(grid, np.full((2, 21), 0.5))
        b = ScalarField(grid, np.random.default_rng(0).normal(size=(2, 21)))
        rev = reversed_drift(b, rho, 1.0)
        assert np.allclose(rev.values, b.values, atol=1e-12)

    def test_underflow_nodes_flagged(self):
        grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 21), ts=np.linspace(0, 1, 2))
        vals = np.full((2, 21), 0.5)
        vals[:, :3] = 1e-300
        rho = ScalarField(grid, vals)
        rev = reversed_drift(ScalarField(grid, np.zeros((2, 21))), rho, 1.0)
        assert np.all(np.isnan(rev.values[:, :2]))

    def test_all_nonpositive_rejected(self):
        grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 5), ts=np.linspace(0, 1, 2))
        rho = ScalarField(grid, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            reversed_drift(ScalarField(grid, np.zeros((2, 5))), rho, 1.0)


class TestFokkerPlanck:
    def test_heat_spreading_variance(self):
        spec = make_spec()
        grid = SpaceTimeGrid(xs=np.linspace(-8, 8, 801),
                             ts=np.linspace(-0.5, 0.5, 501))
        sd0 = 0.5
        rho0 = np.exp(-grid.xs**2 / (2 * sd0**2))
        rho0 /= np.trapezoid(rho0, grid.xs)
        out = fokker_planck(spec, None, rho0, grid)
        var_end = np.trapezoid(grid.xs**2 * out.values[-1], grid.xs)
        expected = sd0**2 + 1.0  # hbar * elapsed time
        assert abs(var_end - expected) / expected < 0.01

    def test_mass_conserved(self):
        spec = make_spec()
        grid = SpaceTimeGrid(xs=np.linspace(-6, 6, 301),
                             ts=np.linspace(-0.5, 0.5, 101))
        rho0 = np.exp(-grid.xs**2)
        rho0 /= np.trapezoid(rho0, grid.xs)
        out = fokker_planck(spec, None, rho0, grid)
        masses = np.trapezoid(out.values, grid.xs, axis=1)
        assert np.max(np.abs(masses - 1.0)) <= 1e-6

    def test_peclet_warning(self):
        spec = make_spec()
        grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 11), ts=np.linspace(0, 0.1, 5))
        drift = ScalarField(grid, np.full((5, 11), 50.0))
        rho0 = np.ones(11) / 2
        with pytest.warns(UserWarning, match="Peclet"):
            fokker_planck(spec, drift, rho0, grid)

    def test_matches_mc_histogram_under_optimal_drift(self, sec7_value):
        spec, val = sec7_value
        # density of surviving paths at t=0, absorbing at the origin
        grid = SpaceTimeGrid(xs=np.linspace(0.0, 3.0, 301),
                             ts=np.linspace(-0.5, 0.0, 251))
        sd0 = 0.05
        rho0 = np.exp(-((grid.xs - 1.0) ** 2) / (2 * sd0**2))
        rho0 /= np.trapezoid(rho0, grid.xs)
        fp = fokker_planck(spec, val.drift, rho0, grid, boundary="absorbing")

        cfg = SimConfig(dt=1e-3, n_paths=20000, seed=13, start=(-0.5, 1.0),
                        checkpoints=(0.0,))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        tt, xx = ens.checkpoints[0.0]
        alive = tt >= 0.0
        edges = np.linspace(0.0, 3.0, 31)
        hist, _ = np.histogram(xx[alive], bins=edges, density=False)
        p_mc = hist / hist.sum()
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.interp(centers, grid.xs, fp.values[-1])
        p_fp = dens / dens.sum()
        tv = 0.5 * np.abs(p_mc - p_fp).sum()
        assert tv < 0.05


class TestBridgeTest:
    def test_moments_and_pass(self):
        rep = bridge_markov_test(0, 0, 1, 0, 0.5, 1.0, 50000, 30, seed=4)
        assert abs(rep["sample_mean"]) <= 3 * math.sqrt(0.25 / 50000)
        assert abs(rep["sample_var"] - 0.25) <= 3 * 0.25 * math.sqrt(2 / 50000)
        assert rep["passed"]

    def test_symmetric_case_skewness(self):
        rep = bridge_markov_test(0, 0.7, 1, 0.7, 0.5, 1.0, 50000, 20, seed=5)
        assert abs(rep["sample_mean"] - 0.7) <= 3 * math.sqrt(0.25 / 50000)
        assert rep["passed"]

    def test_too_many_bins_rejected(self):
        with pytest.raises(ValueError, match="expected bin count"):
            bridge_markov_test(0, 0, 1, 0, 0.5, 1.0, 50, 30, seed=0)

    def test_ordering_rejected(self):
        with pytest.raises(ValueError):
            bridge_markov_test(0, 0, 1, 0, 1.5, 1.0, 100, 5, seed=0)


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0, n_paths=1, seed=0, start=(0, 0))

    def test_start_outside_horizon(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-3, n_paths=1, seed=0, start=(0.7, 0.0))
        with pytest.raises(ValueError, match="horizon"):
            simulate_forward(spec, None, None, cfg)


def test_write_ensemble(tmp_path):
    spec = make_spec()
    cfg = SimConfig(dt=1e-2, n_paths=50, seed=0, start=(-0.5, 1.0))
    ens = simulate_forward(spec, None, None, cfg, barrier=0.0)
    paths = write_ensemble(ens, str(tmp_path / "run"), per_path=True, max_rows=10)
    for p in paths:
        assert (tmp_path / p.split("/")[-1]).exists()
    with open(paths[1]) as fh:
        assert len(fh.readlines()) == 11
