import math
import os
import sys
import types

import numpy as np
import pytest

from bernstein import analytic, core, experiments, simulate
from bernstein.core import (
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
    STOPPING,
    build_grid,
    interpolate,
)
from bernstein.hjb import solve_backward_obstacle, solve_forward_obstacle, value_from_eta
from bernstein.simulate import (
    PathEnsemble,
    SimConfig,
    bridge_markov_test,
    reversed_drift,
    simulate_backward,
    simulate_forward,
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


def serial_blocks(monkeypatch, n_cpu, group):
    """Cut each run into the path blocks of ``n_cpu`` CPUs (no floor on a
    block's path-steps, ``os.sched_getaffinity`` patched) in stream groups
    of ``group`` paths, and run the blocks one after another here."""
    monkeypatch.setattr(simulate, "_MIN_BLOCK_PATH_STEPS", 1)
    monkeypatch.setattr(simulate, "_GROUP", group)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpu)))
    monkeypatch.setattr(simulate.core, "fork_blocks", lambda bounds, fn: [
        fn(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])])


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
        est = simulate_forward(spec, None, None, cfg).summary()["action_value"]
        assert est["mean"] == pytest.approx(2.5)
        assert est["stderr"] == pytest.approx(0.0, abs=1e-15)

    def test_backward_zero_drift_mean(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-3, n_paths=4000, seed=3, start=(0.5, 0.7))
        ens = simulate_backward(spec, None, None, cfg)
        assert abs(ens.stopped_state.mean() - 0.7) <= 3 * math.sqrt(1.0 / 4000)
        assert np.all(ens.stop_time == -0.5)

    @pytest.mark.parametrize("t_max", [0.5, 0.7])
    def test_backward_drift_read_at_its_own_time(self, t_max):
        # b*(t, x) = t^2 on time grids of step 0.1 up to t_max, which only
        # at 0.5 is symmetric about t = 0; with no noise, the path from
        # (0.5, 0) ends at -(the integral of b*'s interpolant over the
        # horizon) = -(1/12 + 1/600) on both
        spec = make_spec(hbar=1e-14)
        ts = np.linspace(-0.5, t_max, int(round((t_max + 0.5) / 0.1)) + 1)
        grid = SpaceTimeGrid(np.linspace(-3.0, 3.0, 61), ts)
        drift = ScalarField(grid, np.repeat(ts[:, None] ** 2, grid.nx, axis=1))
        cfg = SimConfig(dt=1e-3, n_paths=1, seed=0, start=(0.5, 0.0))
        ens = simulate_backward(spec, drift, None, cfg)
        assert ens.stop_time[0] == -0.5
        assert ens.stopped_state[0] == pytest.approx(-0.085, abs=1e-6)


class TestDeterminism:
    def test_block_boundaries_do_not_change_results(self, monkeypatch):
        # 500 paths in 32 groups of 16 paths: on 14 CPUs, blocks of 2 or 3
        # whole groups, the last one cut short
        spec = make_spec()
        base = dict(dt=2e-3, n_paths=500, seed=9, start=(-0.5, 1.0))

        def run(n_cpu):
            serial_blocks(monkeypatch, n_cpu, 16)
            return simulate_forward(spec, None, None, SimConfig(**base),
                                    barrier=0.0)
        a, b = run(1), run(14)
        assert np.array_equal(a.stop_time, b.stop_time)
        assert np.array_equal(a.action_value, b.action_value)

    def test_backward_checkpoints_do_not_depend_on_blocks(self, monkeypatch):
        # 700 paths in 44 groups of 16 paths: blocks of 2 or 3 groups (19
        # CPUs), of 22 (2 CPUs) and of all 44
        spec = make_spec()
        grid = build_grid(spec, 61, 41)
        val = value_from_eta(solve_backward_obstacle(spec, grid), spec.hbar)
        base = dict(dt=2e-3, n_paths=700, seed=4, start=(0.5, 0.8),
                    checkpoints=(0.3, 0.0, -0.2))

        def run(n_cpu):
            serial_blocks(monkeypatch, n_cpu, 16)
            return simulate_backward(spec, val.drift, val.mask,
                                     SimConfig(**base))
        a, *others = [run(n_cpu) for n_cpu in (19, 2, 1)]
        assert a.hit_flag.any() and not a.hit_flag.all()
        assert set(a.checkpoints) == {0.3, 0.0, -0.2}
        for b in others:
            for name in ("stop_time", "stopped_state", "action_value",
                         "hit_flag"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            for c, (tt, xx) in a.checkpoints.items():
                assert np.array_equal(tt, b.checkpoints[c][0])
                assert np.array_equal(xx, b.checkpoints[c][1])

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


class TestCheckpoints:
    """A checkpoint's recorded time is the time its recorded state belongs
    to. Under drift 1 and almost no noise a path is x0 + (t - t0), so the
    pair (time, state) shows which time the state was taken at."""

    def _drift_one(self, spec):
        grid = build_grid(spec, 61, 11)
        return ScalarField(grid, np.ones((grid.nt, grid.nx)))

    @pytest.mark.parametrize("simulate, sign", [(simulate_forward, 1.0),
                                                (simulate_backward, -1.0)])
    def test_time_matches_state(self, simulate, sign):
        spec = make_spec(hbar=1e-12, terminal_cost=zero, initial_cost=zero)
        t0, x0, dt = -0.4037 * sign, 0.0, 3e-3
        on_lattice = t0 + sign * 100 * dt
        cfg = SimConfig(dt=dt, n_paths=200, seed=3, start=(t0, x0),
                        checkpoints=(0.0, on_lattice))
        ens = simulate(spec, self._drift_one(spec), None, cfg)
        for c in cfg.checkpoints:
            tt, xx = ens.checkpoints[c]
            # the off-lattice checkpoint 0.0 is seen at the end of the step
            # that reaches it, 0.0013 past it in the run's direction
            assert np.all(sign * (tt - c) >= -1e-12)
            assert np.all(sign * (tt - c) < dt)
            assert np.max(np.abs(xx - (x0 + (tt - t0)))) <= 1e-5
        tt, _ = ens.checkpoints[0.0]
        assert np.allclose(tt, 0.0013 * sign, rtol=0, atol=1e-12)
        tt, _ = ens.checkpoints[on_lattice]
        assert np.max(np.abs(tt - on_lattice)) <= 1e-12

    @pytest.mark.parametrize("simulate, t0", [(simulate_forward, -0.5),
                                              (simulate_backward, 0.5)])
    def test_checkpoint_at_start(self, simulate, t0):
        # a checkpoint at the start is seen before the first step
        spec = make_spec()
        cfg = SimConfig(dt=1e-2, n_paths=500, seed=4, start=(t0, 1.0),
                        checkpoints=(t0,))
        ens = simulate(spec, None, None, cfg, barrier=0.0)
        tt, xx = ens.checkpoints[t0]
        assert np.all(tt == t0) and np.all(xx == 1.0)

    @pytest.mark.parametrize("simulate, t0", [(simulate_forward, -0.5),
                                              (simulate_backward, 0.5)])
    def test_checkpoint_within_round_off_of_start(self, simulate, t0):
        # seen before the first step, as every checkpoint within 1e-12 of
        # the time it is seen at, and recorded at its own time
        c = t0 + 5e-13 * np.sign(-t0)
        cfg = SimConfig(dt=1e-2, n_paths=500, seed=4, start=(t0, 1.0),
                        checkpoints=(c,))
        ens = simulate(make_spec(), None, None, cfg, barrier=0.0)
        tt, xx = ens.checkpoints[c]
        assert np.all(tt == c) and np.all(xx == 1.0)

    def test_start_checkpoint_leaves_later_ones_alone(self, sec7_value):
        # the monte_carlo benchmark ensemble's checkpoints, with and
        # without one at the start: every other record is bit-identical
        spec, val = sec7_value
        later = (-0.3, -0.1, 0.1, 0.2)
        base = dict(dt=1e-3, n_paths=2000, seed=20260823, start=(-0.5, 1.0))
        a = simulate_forward(spec, val.drift, val.mask,
                             SimConfig(**base, checkpoints=later))
        b = simulate_forward(spec, val.drift, val.mask,
                             SimConfig(**base, checkpoints=(-0.5, *later)))
        for name in ("stop_time", "stopped_state", "action_value", "hit_flag"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for c in later:
            assert np.array_equal(a.checkpoints[c][0], b.checkpoints[c][0])
            assert np.array_equal(a.checkpoints[c][1], b.checkpoints[c][1])
        tt, xx = b.checkpoints[-0.5]
        assert np.all(tt == -0.5) and np.all(xx == 1.0)


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

    def test_bridge_corrected_survival_at_coarse_dt(self):
        # at dt = 2e-2 the survival estimate matches erf(1/sqrt 2) only
        # through the conditional crossing test: with sign changes alone it
        # read 0.0341 too high here, about 15 standard errors
        spec = make_spec()
        ref = math.erf(1 / math.sqrt(2))
        cfg = SimConfig(dt=2e-2, n_paths=40000, seed=7, start=(-0.5, 1.0))
        ens = simulate_forward(spec, None, None, cfg, barrier=0.0)
        p = 1 - ens.hit_flag.mean()
        assert abs(p - ref) <= 3 * math.sqrt(ref * (1 - ref) / 40000)

    def test_degenerate_start_on_barrier(self, sec7_value):
        spec, val = sec7_value
        cfg = SimConfig(dt=1e-3, n_paths=10, seed=8, start=(-0.5, 0.0))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        assert np.all(ens.stop_time == -0.5)
        assert np.all(ens.hit_flag)
        assert np.all(ens.action_value == 0.0)

    def test_start_on_a_barrier_next_to_another(self):
        # point barriers at x = 0 and 0.2 (stopping columns one node wide):
        # a path from 0.2 stops there at once, although about one first step
        # in 20 crosses x = 0, or crosses it by the bridge test
        grid = SpaceTimeGrid(xs=np.linspace(-3, 3, 61),
                             ts=np.linspace(-0.5, 0.5, 11))
        flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
        flags[:, [30, 32]] = STOPPING
        spec, x0 = make_spec(), grid.xs[32]
        cfg = SimConfig(dt=1e-2, n_paths=2000, seed=2, start=(-0.3, x0),
                        checkpoints=(0.0,))
        ens = simulate_forward(spec, None, RegionMask(grid, flags), cfg)
        assert np.all(ens.stop_time == -0.3) and np.all(ens.hit_flag)
        assert np.all(ens.stopped_state == x0)
        assert np.all(ens.action_value == abs(x0))
        tt, xx = ens.checkpoints[0.0]
        assert np.all(tt == -0.3) and np.all(xx == x0)

    def test_crossing_rule_on_fixed_steps(self):
        # barriers at 0 and 1, hbar = h = 1: the steps ending within 20 of a
        # barrier, 0 < d0 d1 <= 20, draw one uniform each, in index order;
        # a uniform of 0 bridges to a barrier with none between it and the
        # step's start. Step 7 ends beyond 20 of both barriers, so it draws
        # no uniform and does not bridge, although its uniform here is 0
        xo = np.array([0.5, 1.5, -0.5, 0.5, 1.5, 0.5, 1.0, 6.0])
        xn = np.array([1.5, -0.5, 1.5, 1.5, 1.6, 0.6, 0.5, 6.5])
        u = np.array([0.99, 0.99, 0.99, 0.0, 0.0, 0.99, 0.99, 0.0])
        asked = []

        def uniforms(near):
            asked.append(near.tolist())
            return u[near]

        c, bars, theta = simulate._crossings(xo, xn, uniforms,
                                             np.array([0.0, 1.0]), 1.0, 1.0)
        assert asked == [[0, 3, 4, 5, 6]]
        got = sorted(zip(c.tolist(), bars.tolist(), theta.tolist()))
        assert got == [(0, 1.0, 0.5),    # a sign change at 1
                       (1, 1.0, 0.25),   # both crossed, 1 first
                       (2, 0.0, 0.25),   # both crossed, 0 first
                       (3, 0.0, 0.5),    # a tie of a sign change and a bridge
                       (4, 1.0, 0.5),    # no bridge past 1 to 0
                       (6, 1.0, 0.0)]    # a start on a barrier
        # no step near a barrier: nothing is drawn
        asked.clear()
        c, _, _ = simulate._crossings(xo[[1, 2, 7]], xn[[1, 2, 7]], uniforms,
                                      np.array([0.0, 1.0]), 1.0, 1.0)
        assert asked == [] and c.tolist() == [0, 1]

    @pytest.mark.parametrize("dt", [1e-2, 0.25])
    def test_the_barrier_reached_first_stops_the_path(self, dt):
        # point barriers at x = 0 and 0.1 (stopping columns one node wide):
        # a driftless path from 0.2 reaches 0.1 before 0, also in a step
        # that crosses both, or crosses 0.1 and then 0 by the bridge test
        grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 41),
                             ts=np.linspace(-0.5, 0.5, 11))
        flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
        flags[:, [20, 22]] = STOPPING
        cfg = SimConfig(dt=dt, n_paths=20000, seed=3, start=(-0.5, 0.2))
        ens = simulate_forward(make_spec(), None, RegionMask(grid, flags), cfg)
        hit = ens.hit_flag
        assert hit.mean() > 0.9
        assert np.all(ens.stopped_state[hit] == grid.xs[22])
        assert np.all(ens.action_value[hit] == abs(grid.xs[22]))

    def test_backward_degenerate_start_on_barrier(self):
        # the backward x = 0 stopping column is a point barrier; a start on
        # it stops at once, with state 0 and action S*(0) = 0
        spec = make_spec()
        grid = build_grid(spec, 61, 41)
        val = value_from_eta(solve_backward_obstacle(spec, grid), spec.hbar)
        cfg = SimConfig(dt=1e-3, n_paths=10, seed=8, start=(0.25, 0.0),
                        checkpoints=(0.1, 0.25))
        ens = simulate_backward(spec, val.drift, val.mask, cfg)
        assert ens.orientation == "backward"
        assert np.all(ens.stop_time == 0.25)
        assert np.all(ens.stopped_state == 0.0)
        assert np.all(ens.hit_flag)
        assert np.all(ens.action_value == 0.0)
        # a backward checkpoint c sees the path at max(c, tau*)
        for c in cfg.checkpoints:
            tt, xx = ens.checkpoints[c]
            assert np.all(tt == 0.25) and np.all(xx == 0.0)


class TestThickRegion:
    def test_paths_stop_where_the_nearest_node_stops(self):
        # stopping wherever |x| >= 1 from t = 0 on, on a grid coarser than
        # the simulation step; a path stops at the end of the first step whose
        # nearest node, as argmin picks it, is a stopping node
        grid = SpaceTimeGrid(xs=np.linspace(-3, 3, 31),
                             ts=np.linspace(-0.5, 0.5, 11))
        late = grid.ts >= 0
        flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
        flags[np.ix_(late, np.abs(grid.xs) >= 1 - 1e-12)] = STOPPING
        cfg = SimConfig(dt=1e-2, n_paths=4000, seed=21, start=(-0.5, 0.3))
        ens = simulate_forward(make_spec(), None, RegionMask(grid, flags), cfg)
        hit = ens.hit_flag
        assert 0.2 < hit.mean() < 0.9
        k = np.argmin(np.abs(grid.ts[None, :] - ens.stop_time[hit, None]), axis=1)
        j = np.argmin(np.abs(grid.xs[None, :] - ens.stopped_state[hit, None]),
                      axis=1)
        assert np.all(flags[k, j] == STOPPING)
        assert np.all(ens.stop_time[~hit] == 0.5)

    def test_first_thick_spec_matches_the_pde(self):
        # stopping-dist at its defaults on a spec whose stopping mask holds
        # 5514 thick-region nodes beside the x = 0 barrier: q_pde 0.97623
        # against q_mc 0.97745 +- 0.00105 at seed 0
        spec = dict(analytic.WORKED_EXAMPLE, hbar=0.082,
                    terminal_cost="log1p_abs", initial_cost="zero")
        result = experiments.stopping_dist(0, spec=spec)
        assert result.checks["pde_vs_mc"], result.reports
        assert result.checks["martingale"], result.reports


class TestParallelBlocks:
    """Path blocks, one per usable CPU (``os.sched_getaffinity`` patched),
    give the serial ensemble bit for bit. 1001 paths in stream groups of 64
    are cut into blocks at 500 on 2 CPUs and at 333 and 667 on 3, each
    bound inside a group."""

    N_PATHS, GROUP = 1001, 64

    def ensembles(self, monkeypatch, run):
        monkeypatch.setattr(simulate, "_MIN_BLOCK_PATH_STEPS", 1)
        monkeypatch.setattr(simulate, "_GROUP", self.GROUP)
        out = []
        for n_cpu in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=n_cpu: set(range(n)))
            bounds = core.block_bounds(self.N_PATHS, 1)
            assert len(bounds) == n_cpu + 1
            assert all(b % self.GROUP for b in bounds[1:-1])
            out.append(run(dict(n_paths=self.N_PATHS)))
        return out

    def assert_identical(self, ensembles):
        first, *others = ensembles
        for ens in others:
            for name in ("stop_time", "stopped_state", "action_value",
                         "hit_flag"):
                assert (getattr(ens, name).tobytes()
                        == getattr(first, name).tobytes())
            assert set(ens.checkpoints) == set(first.checkpoints)
            for c, (tt, xx) in first.checkpoints.items():
                assert ens.checkpoints[c][0].tobytes() == tt.tobytes()
                assert ens.checkpoints[c][1].tobytes() == xx.tobytes()

    def test_forward_optimal_with_checkpoints(self, monkeypatch, sec7_value):
        # the x = 0 stopping column is a point barrier with bridge uniforms
        spec, val = sec7_value
        ens = self.ensembles(monkeypatch, lambda kw: simulate_forward(
            spec, val.drift, val.mask,
            SimConfig(dt=2e-3, seed=3, start=(-0.5, 1.0),
                      checkpoints=(-0.3, 0.1, 0.2), **kw)))
        assert ens[0].hit_flag.any() and not ens[0].hit_flag.all()
        self.assert_identical(ens)

    def test_backward_optimal_with_checkpoints(self, monkeypatch):
        spec = make_spec()
        grid = build_grid(spec, 61, 41)
        val = value_from_eta(solve_backward_obstacle(spec, grid), spec.hbar)
        ens = self.ensembles(monkeypatch, lambda kw: simulate_backward(
            spec, val.drift, val.mask,
            SimConfig(dt=2e-3, seed=4, start=(0.5, 0.8),
                      checkpoints=(0.3, 0.0, -0.2), **kw)))
        assert ens[0].hit_flag.any() and not ens[0].hit_flag.all()
        self.assert_identical(ens)

    def test_explicit_barrier(self, monkeypatch):
        ens = self.ensembles(monkeypatch, lambda kw: simulate_forward(
            make_spec(), None, None,
            SimConfig(dt=1e-2, seed=7, start=(-0.5, 1.0), **kw), barrier=0.0))
        assert ens[0].hit_flag.any() and not ens[0].hit_flag.all()
        self.assert_identical(ens)

    def test_thick_region(self, monkeypatch):
        grid = SpaceTimeGrid(xs=np.linspace(-3, 3, 31),
                             ts=np.linspace(-0.5, 0.5, 11))
        flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
        flags[np.ix_(grid.ts >= 0, np.abs(grid.xs) >= 1 - 1e-12)] = STOPPING
        ens = self.ensembles(monkeypatch, lambda kw: simulate_forward(
            make_spec(), None, RegionMask(grid, flags),
            SimConfig(dt=1e-2, seed=21, start=(-0.5, 0.3), checkpoints=(0.2,),
                      **kw)))
        assert ens[0].hit_flag.any() and not ens[0].hit_flag.all()
        self.assert_identical(ens)

    def test_draw_memory_does_not_grow_with_cpus(self, monkeypatch):
        # each block holds one buffer of its own path count, whatever the
        # number of steps, and every draw is a view of it: the blocks
        # together hold one entry per path on any number of CPUs
        monkeypatch.setattr(simulate, "_MIN_BLOCK_PATH_STEPS", 1)
        monkeypatch.setattr(simulate, "_GROUP", self.GROUP)
        buffers, block, step_draws = {}, [], simulate._step_draws

        def blocks_here(bounds, fn):  # the blocks one after another
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                block.append((lo, hi))
                fn(lo, hi)

        def logged_draws(seed, n):
            draw = step_draws(seed, n)
            buffers.setdefault(block[-1], set()).add(n)

            def logged(k, kind, idx):
                out = draw(k, kind, idx)
                buffers[block[-1]].add(out.base.nbytes // 8)
                return out
            return logged

        monkeypatch.setattr(simulate.core, "fork_blocks", blocks_here)
        monkeypatch.setattr(simulate, "_step_draws", logged_draws)
        for n_cpu in (1, 2, 3, 8):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=n_cpu: set(range(n)))
            for dt in (1e-2, 2.5e-3):  # 100 and 400 steps
                buffers.clear()
                simulate_forward(make_spec(), None, None,
                                 SimConfig(dt=dt, seed=7, start=(-0.5, 1.0),
                                           n_paths=self.N_PATHS),
                                 barrier=0.0)
                assert len(buffers) == n_cpu
                for (lo, hi), sizes in buffers.items():
                    assert sizes == {hi - lo}
                assert sum(hi - lo for lo, hi in buffers) == self.N_PATHS


class TestDrawCounts:
    """Each step draws one normal per live path and one bridge uniform per
    path whose step ends within 20 hbar h of a point barrier, 0 < (x0 -
    b)(x1 - b) <= 20 hbar h, however many barriers it is near. A counting
    stand-in wraps the draw source, and a spy on ``_crossings`` counts the
    live and near paths it is handed. 1500 paths run in the serial blocks
    of 3 CPUs, in stream groups of 64."""

    N_PATHS = 1500

    def counted(self, monkeypatch, run, cfg):
        serial_blocks(monkeypatch, 3, 64)
        events = []
        step_draws, crossings = simulate._step_draws, simulate._crossings
        normals = np.zeros(self.N_PATHS, dtype=int)

        def counting_draws(seed, n):
            draw = step_draws(seed, n)

            def counting(k, kind, idx):
                assert np.all(np.diff(idx) > 0)
                events.append(("draw", k, kind, idx.size))
                if kind == 0:
                    np.add.at(normals, idx, 1)
                return draw(k, kind, idx)
            return counting

        def spy(xo, xn, uniforms, barriers, hbar, h):
            prod = (xo[:, None] - barriers) * (xn[:, None] - barriers)
            near = (prod > 0) & (prod <= 20 * hbar * h)
            events.append(("crossings", xo.size, int(near.any(axis=1).sum()),
                           int(near.sum())))
            return crossings(xo, xn, uniforms, barriers, hbar, h)

        monkeypatch.setattr(simulate, "_step_draws", counting_draws)
        monkeypatch.setattr(simulate, "_crossings", spy)
        ens = run(SimConfig(n_paths=self.N_PATHS, **cfg))
        # each step: its normals, the crossing test on as many live paths,
        # and one uniform per near path, drawn only when a path is near
        near_twice = 0
        while events:
            (_, k, kind, n_normals), (_, n_live, n_near, n_pairs), *events = events
            assert kind == 0 and n_normals == n_live
            if n_near:
                (_, k1, kind1, n_uniforms), *events = events
                assert (k1, kind1, n_uniforms) == (k, 1, n_near)
            near_twice += n_pairs - n_near
        # a path draws a normal at every step up to the one it stops in
        hit, dt = ens.hit_flag, cfg["dt"]
        assert hit.any() and not hit.all()
        assert np.all(normals[~hit] == round((0.5 - cfg["start"][0]) / dt))
        reached = cfg["start"][0] + normals[hit] * dt
        assert np.all(ens.stop_time[hit] >= reached - dt - 1e-9)
        assert np.all(ens.stop_time[hit] <= reached + 1e-9)
        return near_twice

    def test_worked_example_forward(self, monkeypatch, sec7_value):
        spec, val = sec7_value
        self.counted(monkeypatch, lambda cfg: simulate_forward(
            spec, val.drift, val.mask, cfg),
            dict(dt=1e-3, seed=20260823, start=(-0.5, 1.0)))

    def test_driftless_explicit_barrier(self, monkeypatch):
        self.counted(monkeypatch, lambda cfg: simulate_forward(
            make_spec(), None, None, cfg, barrier=0.0),
            dict(dt=1e-2, seed=7, start=(-0.5, 1.0)))

    def test_one_uniform_for_two_barriers(self, monkeypatch):
        # point barriers at 0 and 0.1 (stopping columns one node wide) at
        # dt = 0.25, where 20 hbar h = 5: steps near both draw one uniform
        grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 41),
                             ts=np.linspace(-0.5, 0.5, 11))
        flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
        flags[:, [20, 22]] = STOPPING
        near_twice = self.counted(monkeypatch, lambda cfg: simulate_forward(
            make_spec(), None, RegionMask(grid, flags), cfg),
            dict(dt=0.25, seed=3, start=(-0.5, 0.2)))
        assert near_twice > 0


class TestFastPath:
    """The engine's drift lookup and RNG streams against the library calls
    they stand in for, bit for bit."""

    @pytest.mark.parametrize("lo, hi, n, jitter", [
        (-3.0, 3.0, 301, 0.0), (-4.0, 4.0, 601, 0.0), (-3.0, 3.0, 301, 1e-11),
    ])
    def test_lookup_equals_np_interp(self, lo, hi, n, jitter):
        rng = np.random.default_rng(n)
        xs = np.linspace(lo, hi, n)
        # a grid uniform only to round-off, as SpaceTimeGrid admits
        xs[1:-1] += jitter * (xs[1] - xs[0]) * rng.uniform(-1, 1, n - 2)
        grid = SpaceTimeGrid(xs=xs, ts=np.array([0.0, 1.0]))
        rows = [rng.normal(size=n), np.cumsum(rng.normal(size=n)),
                np.where(np.arange(n) % 2, -0.0, 0.0)]
        ends = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                lo - 5.0, hi + 5.0, -np.inf, np.inf]
        xq = np.concatenate([rng.uniform(lo - 1, hi + 1, 100000), xs,
                             np.nextafter(xs, np.inf),
                             np.nextafter(xs, -np.inf), ends])
        for fp in rows:
            # at t = 1 the time blend is 0 * (-0.0) + 1 * fp: fp, bit for bit
            fld = ScalarField(grid, np.array([np.full(n, -0.0), fp]))
            want = np.interp(xq, xs, fp).tobytes()
            # positions off the grid, infinite ones included, read the edge
            assert interpolate(fld, 1.0, xq).tobytes() == want
            assert interpolate(fld, np.ones(xq.size), xq).tobytes() == want

    def test_streams_equal_per_path_generators(self, monkeypatch):
        # the paths of idx in group g = i // G take, in index order, the
        # first entries of Generator(Philox(key=[seed, g], counter=[0, k,
        # kind, 0])).standard_normal (kind 0) or .random (kind 1): path i's
        # draw is the entry at its rank among the paths of idx in its group,
        # for the engine's G and for a patched one
        seed, G = 20260823, simulate._GROUP

        def library(g, k, kind, size):
            gen = np.random.Generator(np.random.Philox(
                key=[seed, g], counter=[0, k, kind, 0]))
            return (gen.standard_normal, gen.random)[kind](size)

        # all of group 4, none of 5, 300 of 6 and one path of 9
        picked = np.random.default_rng(1).choice(G, 300, replace=False)
        idx = np.concatenate([np.arange(4 * G, 5 * G), 6 * G + np.sort(picked),
                              [9 * G + 17]])
        draw = simulate._step_draws(seed, idx.size + 5)
        for k in (0, 1, 999):
            for kind in (0, 1):
                got = draw(k, kind, idx)
                assert got.shape == idx.shape
                want = np.concatenate([library(4, k, kind, G),
                                       library(6, k, kind, 300),
                                       library(9, k, kind, 1)])
                assert np.array_equal(got, want)

        # the engine's noise, read back from a driftless run of 2 steps
        # without stopping in groups of 8: 37 paths from path 0 span groups
        # 0 to 4, and 7 CPUs run them in 5 blocks of one group each
        for n_cpu in (7, 1):
            serial_blocks(monkeypatch, n_cpu, 8)
            ens = simulate_forward(make_spec(), None, None, SimConfig(
                dt=0.5, n_paths=37, seed=seed, start=(-0.5, 0.0),
                checkpoints=(0.0,)))
            mid = ens.checkpoints[0.0][1]
            steps = [mid, ens.stopped_state - mid]
            for k, step in enumerate(steps):
                want = np.concatenate([library(g, k, 0, 8) for g in range(5)])
                np.testing.assert_allclose(step, math.sqrt(0.5) * want[:37],
                                           rtol=1e-12, atol=1e-15)


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

    @pytest.mark.parametrize("seed, n_bins", [(0, 5), (3, 12), (11, 30)])
    def test_matches_scipy_stats_bit_for_bit(self, seed, n_bins, monkeypatch):
        # scipy.special's ndtri and chdtrc stand in for scipy.stats's
        # norm.ppf and chi2.sf; the edges, p-value and verdict must not move.
        # bridge_markov_test imports them from scipy.special when it runs,
        # so it is handed a stand-in module: patching scipy.special itself
        # would reach norm.ppf, which calls scipy.special.ndtri
        from scipy import special, stats

        args = (0, 0.3, 1, -0.2, 0.4, 1.0, 20000, n_bins)

        def run_with(ndtri, chdtrc):
            monkeypatch.setitem(sys.modules, "scipy.special", types.SimpleNamespace(
                ndtri=ndtri, chdtrc=chdtrc))
            return bridge_markov_test(*args, seed=seed)

        quantiles = []

        def ndtri_spy(q):
            quantiles.append((q, special.ndtri(q)))
            return quantiles[-1][1]

        rep = run_with(ndtri_spy, special.chdtrc)
        [(q, z)] = quantiles
        assert z.tobytes() == stats.norm.ppf(q).tobytes()  # the -inf, inf ends too
        assert rep["p_value"] == float(stats.chi2.sf(rep["statistic"], rep["dof"]))
        assert run_with(stats.norm.ppf, lambda dof, x: stats.chi2.sf(x, dof)) == rep


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0, n_paths=1, seed=0, start=(0, 0))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_checkpoint(self, c):
        # no step reaches it, so it would never be recorded
        cfg = SimConfig(dt=1e-2, n_paths=10, seed=0, start=(0.0, 1.0),
                        checkpoints=(0.2, c))
        with pytest.raises(ValueError, match=f"checkpoint {c} is not a finite time"):
            simulate.check_start(make_spec(), core.FORWARD, cfg)

    @pytest.mark.parametrize("seed", [2**63, -2**63, -1])
    def test_seed_outside_what_the_philox_key_tells_apart(self, seed):
        # the Philox key holds a seed modulo 2**64: 2**63 and -2**63 would
        # draw the same ensemble
        cfg = dict(dt=1e-2, n_paths=50, start=(-0.5, 1.0))
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*63\), got"):
            simulate_forward(make_spec(), None, None,
                             SimConfig(seed=seed, **cfg), barrier=0.0)
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*63\), got"):
            bridge_markov_test(0, 0, 1, 0, 0.5, 1.0, 100, 5, seed=seed)

    def test_seed_range_ends(self):
        for seed in (0, 2**63 - 1):
            SimConfig(dt=1e-2, n_paths=50, seed=seed, start=(-0.5, 1.0))
            assert bridge_markov_test(0, 0, 1, 0, 0.5, 1.0, 100, 5,
                                      seed=seed)["dof"] == 4

    def test_start_outside_horizon(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-3, n_paths=1, seed=0, start=(0.7, 0.0))
        with pytest.raises(ValueError, match="horizon"):
            simulate_forward(spec, None, None, cfg)

    @pytest.mark.parametrize("simulate, sign", [(simulate_forward, 1.0),
                                                (simulate_backward, -1.0)])
    @pytest.mark.parametrize("x0", [1.0, 0.0])  # 0.0 starts on the barrier
    def test_checkpoint_before_start(self, simulate, sign, x0):
        # a checkpoint the run never reaches has no state to record
        spec = make_spec()
        c = -0.3 * sign
        cfg = SimConfig(dt=1e-2, n_paths=10, seed=0, start=(0.0, x0),
                        checkpoints=(0.2 * sign, c))
        with pytest.raises(ValueError, match=f"checkpoint {c} "):
            simulate(spec, None, None, cfg, barrier=0.0)

    @pytest.mark.parametrize("simulate, sign", [(simulate_forward, 1.0),
                                                (simulate_backward, -1.0)])
    def test_checkpoint_past_the_horizon(self, simulate, sign):
        # no step reaches it: its record would be the stop, under its key
        c = 0.7 * sign
        cfg = SimConfig(dt=1e-2, n_paths=10, seed=0, start=(0.0, 1.0),
                        checkpoints=(0.2 * sign, c))
        with pytest.raises(ValueError, match=f"checkpoint {c} lies after the "
                                             f"end {0.5 * sign} "):
            simulate(make_spec(), None, None, cfg, barrier=0.0)

    @pytest.mark.parametrize("simulate, sign", [(simulate_forward, 1.0),
                                                (simulate_backward, -1.0)])
    def test_checkpoint_within_round_off_of_the_horizon(self, simulate, sign):
        # seen after the last step, as ``see`` allows 1e-12: at the stop,
        # or at the horizon for a path that ran to it
        c = (0.5 + 5e-13) * sign
        cfg = SimConfig(dt=1e-2, n_paths=200, seed=0, start=(0.0, 1.0),
                        checkpoints=(c,))
        ens = simulate(make_spec(), None, None, cfg, barrier=0.0)
        tt, xx = ens.checkpoints[c]
        assert ens.hit_flag.any() and not ens.hit_flag.all()
        assert np.array_equal(tt, ens.stop_time)
        assert np.array_equal(xx, ens.stopped_state)

    @pytest.mark.parametrize("simulate, sign", [(simulate_forward, 1.0),
                                                (simulate_backward, -1.0)])
    def test_repeated_checkpoint(self, simulate, sign):
        # one dict key would own two record rows
        c = 0.1 * sign
        cfg = SimConfig(dt=1e-2, n_paths=10, seed=0, start=(0.0, 1.0),
                        checkpoints=(c, 0.2 * sign, c))
        with pytest.raises(ValueError, match=f"checkpoint {c} is repeated"):
            simulate(make_spec(), None, None, cfg, barrier=0.0)
