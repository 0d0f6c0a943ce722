import json
import mmap
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein.core import (
    CONTINUATION,
    STOPPING,
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
    block_bounds,
    build_grid,
    fork_blocks,
    function_from_spec,
    gradient_rows,
    interpolate,
    _factor_step,
    _pin_rows,
    region_from_eta,
    _solve_step,
    _step_matrix,
    _step_residual,
    usable_cpus,
)


def make_spec(**kw):
    base = dict(
        hbar=1.0,
        half_horizon=0.5,
        potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        terminal_cost=lambda x: np.abs(x),
        initial_cost=lambda x: np.log1p(np.abs(x)),
        x_min=-3.0,
        x_max=3.0,
    )
    base.update(kw)
    return ProblemSpec(**base)


class TestProblemSpec:
    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError, match="hbar"):
            make_spec(hbar=0.0)

    def test_rejects_inverted_domain(self):
        with pytest.raises(ValueError, match="x_min"):
            make_spec(x_min=1.0, x_max=0.0)

    def test_from_json_registry(self):
        doc = {
            "hbar": 1.0,
            "half_horizon": 0.5,
            "x_min": -3,
            "x_max": 3,
            "potential": "zero",
            "terminal_cost": "abs",
            "initial_cost": {"name": "log1p_abs", "scale": 2.0},
        }
        spec = ProblemSpec.from_json(doc)
        assert spec.terminal_cost(-2.0) == 2.0
        assert spec.initial_cost(0.0) == 0.0
        assert np.allclose(spec.initial_cost(1.0), 2 * np.log(2.0))
        # the document is parsed JSON, not its text
        with pytest.raises(ValueError, match="object of fields, not"):
            ProblemSpec.from_json(json.dumps(doc))

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            ProblemSpec.from_json({"hbar": 1.0})

    def test_unknown_function_name(self):
        with pytest.raises(ValueError, match="unknown function"):
            function_from_spec("no_such_thing")

    @pytest.mark.parametrize("doc, message", [
        ({"name": "abs", "scal": 5},
         "function 'abs' takes scale, not ['scal']"),
        ({"name": "linear", "slope": 2, "offset": 1},
         "function 'linear' takes slope, intercept, not ['offset']"),
        ({"name": "zero", "scale": 1},
         "function 'zero' takes no parameters, not ['scale']"),
    ])
    def test_unknown_parameter_names_the_ones_taken(self, doc, message):
        # a misspelt parameter does not fall back to the default
        with pytest.raises(ValueError) as info:
            function_from_spec(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [None, "x", True, [1.0]],
                             ids=["null", "text", "bool", "list"])
    def test_parameter_must_be_a_number(self, value):
        # rejected here, not when the function is first evaluated
        with pytest.raises(ValueError) as info:
            function_from_spec({"name": "abs", "scale": value})
        assert str(info.value) == (f"function 'abs' parameter scale must be a "
                                   f"number, not {value!r}")
        assert function_from_spec({"name": "abs", "scale": 2})(-1.5) == 3.0


class TestBuildGrid:
    def test_endpoint_construction(self):
        spec = make_spec(x_min=-1.0, x_max=1.0)
        grid = build_grid(spec, nx=3, nt=2)
        assert np.array_equal(grid.xs, [-1.0, 0.0, 1.0])
        assert np.array_equal(grid.ts, [-0.5, 0.5])

    def test_spacing(self):
        grid = build_grid(make_spec(), nx=601, nt=2001)
        assert grid.dx == pytest.approx(0.01)
        assert grid.ts[0] == -0.5 and grid.ts[-1] == 0.5

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            build_grid(make_spec(), nx=2, nt=2)

    def test_nonuniform_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            SpaceTimeGrid(xs=np.array([0.0, 1.0, 3.0]), ts=np.array([0.0, 1.0]))

    def test_value_equality(self):
        # two grids with the same nodes are equal, also as different objects
        a = build_grid(make_spec(), nx=31, nt=21)
        b = build_grid(make_spec(), nx=31, nt=21)
        assert a is not b and a == b and not a != b
        assert a != build_grid(make_spec(), nx=31, nt=11)
        assert a != build_grid(make_spec(x_max=4.0), nx=31, nt=21)
        assert a != SpaceTimeGrid(xs=a.xs[:-1], ts=a.ts)
        assert a != (a.xs, a.ts)

    def test_field_and_mask_value_equality(self):
        # fields and masks compare by grid and values, as grids do; NaN
        # equals NaN only where a field allows it
        grid = SpaceTimeGrid(xs=[0.0, 1.0, 2.0], ts=[0.0, 1.0])
        other = SpaceTimeGrid(xs=[0.0, 1.0, 2.0], ts=[0.0, 2.0])
        v = np.arange(6.0).reshape(2, 3)
        f = ScalarField(grid, v)
        assert f == ScalarField(grid, v.copy()) and not f != ScalarField(grid, v)
        assert f != ScalarField(grid, v + 1) and f != ScalarField(other, v)
        assert f != ScalarField(grid, v, allow_nan=True) and f != grid
        w = np.where(v > 2, np.nan, v)
        assert ScalarField(grid, w, allow_nan=True) == ScalarField(
            grid, w.copy(), allow_nan=True)
        flags = np.array([[0, 1, 0], [1, 1, 0]], dtype=np.int8)
        m = RegionMask(grid, flags)
        assert m == RegionMask(grid, flags.copy()) and not m != RegionMask(grid, flags)
        assert m != RegionMask(grid, 1 - flags) and m != RegionMask(other, flags)
        assert m != f


def small_field(values):
    grid = SpaceTimeGrid(xs=np.linspace(0, 1, values.shape[1]),
                         ts=np.linspace(0, 1, values.shape[0]))
    return ScalarField(grid, values)


class TestInterpolate:
    def test_exact_at_nodes(self):
        v = np.arange(12, dtype=float).reshape(3, 4)
        f = small_field(v)
        for k, t in enumerate(f.grid.ts):
            for j, x in enumerate(f.grid.xs):
                assert interpolate(f, t, x) == v[k, j]

    def test_midpoint_linearity(self):
        f = small_field(np.array([[0.0, 2.0], [0.0, 2.0]]))
        assert interpolate(f, 0.5, 0.5) == pytest.approx(1.0)

    def test_out_of_hull_names_coordinate(self):
        f = small_field(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="time 5.0 outside"):
            interpolate(f, 5.0, 0.5)

    def test_arrays_equal_scalar_calls(self):
        rng = np.random.default_rng(3)
        grid = SpaceTimeGrid(xs=np.linspace(-3, 3, 61), ts=np.linspace(-0.5, 0.5, 41))
        f = ScalarField(grid, rng.standard_normal((41, 61)))
        ts = np.concatenate([rng.uniform(-0.5, 0.5, 500), grid.ts[[0, 7, -1]],
                             [-0.5, 0.5, 0.5]])
        xs = np.concatenate([rng.uniform(-3, 3, 500), grid.xs[[0, 30, -1]],
                             [3.0, -3.0, 3.0]])
        vals = interpolate(f, ts, xs)
        assert isinstance(vals, np.ndarray) and vals.shape == ts.shape
        scalar = [interpolate(f, float(t), float(x)) for t, x in zip(ts, xs)]
        assert all(isinstance(v, float) for v in scalar)
        assert vals.tobytes() == np.array(scalar).tobytes()
        # a scalar time broadcasts against an array of positions
        row = interpolate(f, 0.1, xs)
        assert row.tobytes() == np.array(
            [interpolate(f, 0.1, float(x)) for x in xs]).tobytes()

    def test_array_out_of_hull_names_coordinate(self):
        f = small_field(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="time -1.0"):
            interpolate(f, np.array([-1.0, 0.5]), 0.5)

    def test_clipped_lookup_reads_the_edge_off_the_grid(self):
        rng = np.random.default_rng(4)
        grid = SpaceTimeGrid(xs=np.linspace(-3, 3, 61), ts=np.linspace(-0.5, 0.5, 41))
        f = ScalarField(grid, rng.standard_normal((41, 61)))
        xs = np.concatenate([rng.uniform(-3, 3, 500), grid.xs])
        far = np.concatenate([xs, [-1e300, -3.5, 3.5, np.inf]])
        for t in (-0.5, 0.123, 0.5, np.full(far.size, 0.2)):
            # off the hull, the edge node's values; in it, the values inside
            got = interpolate(f, t, far)
            assert (got.tobytes()
                    == interpolate(f, t, np.clip(far, -3, 3)).tobytes())
            inside = t if np.ndim(t) == 0 else t[:xs.size]
            assert got[:xs.size].tobytes() == interpolate(f, inside, xs).tobytes()
        assert interpolate(f, 0.1, 7.0) == interpolate(f, 0.1, 3.0)
        assert interpolate(f, 0.1, -7.0) == interpolate(f, 0.1, -3.0)
        with pytest.raises(ValueError, match="time 0.75"):
            interpolate(f, 0.75, xs)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_between_nodes(self, t, x):
        # a field increasing in x interpolates to values within the bracket
        v = np.tile(np.linspace(0.0, 3.0, 7), (4, 1))
        f = small_field(v)
        val = interpolate(f, t, x)
        assert 0.0 - 1e-12 <= val <= 3.0 + 1e-12


class TestForkBlocks:
    """``fork_blocks`` on several CPUs (``os.sched_getaffinity`` patched):
    block 0 runs here, each other block in a forked child."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(n)))
        return set_cpus

    @pytest.fixture
    def forks(self, monkeypatch):
        pids, fork = [], os.fork

        def logged_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", logged_fork)
        return pids

    def assert_reaped(self, pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("n, min_block, n_cpu, want", [
        (10, 1, 3, [0, 3, 6, 10]), (10, 4, 3, [0, 5, 10]),
        (10, 11, 3, [0, 10]), (10, 1, 1, [0, 10]), (2, 1, 3, [0, 1, 2]),
        (0, 1, 3, [0, 0]),
    ])
    def test_bounds(self, cpus, n, min_block, n_cpu, want):
        cpus(n_cpu)
        assert usable_cpus() == n_cpu
        assert block_bounds(n, min_block) == want

    @pytest.mark.parametrize("n_cpu", [1, 2, 3])
    def test_children_write_shared_memory(self, cpus, forks, n_cpu):
        cpus(n_cpu)
        out = np.frombuffer(mmap.mmap(-1, 8 * 100), dtype=float)

        def square(lo, hi):
            out[lo:hi] = np.arange(lo, hi) ** 2

        fork_blocks(block_bounds(100, 10), square)
        assert np.array_equal(out, np.arange(100.0) ** 2)
        assert len(forks) == n_cpu - 1
        self.assert_reaped(forks)

    def test_serial_without_fork(self, cpus, monkeypatch):
        cpus(4)
        monkeypatch.delattr(os, "fork")
        calls = []
        bounds = block_bounds(100, 1)
        assert bounds == [0, 100]
        fork_blocks(bounds, lambda lo, hi: calls.append((lo, hi)))
        assert calls == [(0, 100)]

    def test_failed_child_names_its_block(self, cpus, forks, capfd):
        cpus(3)

        def fail_in_block_2(lo, hi):
            if lo == 6:
                raise RuntimeError("block failed")

        with pytest.raises(ChildProcessError,
                           match=r"block 2 of 3 \(items 6 to 10 of 10\) "
                                 r"exited with status 1"):
            fork_blocks(block_bounds(10, 1), fail_in_block_2)
        assert "RuntimeError: block failed" in capfd.readouterr().err
        assert len(forks) == 2
        self.assert_reaped(forks)

    def test_child_killed_by_a_signal(self, cpus, forks):
        cpus(2)

        def die(lo, hi):
            if lo:
                os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ChildProcessError, match="status -9"):
            fork_blocks(block_bounds(4, 1), die)
        self.assert_reaped(forks)

    def test_error_here_kills_and_reaps_every_child(self, cpus, forks):
        cpus(3)

        def block(lo, hi):
            if lo == 0:
                raise KeyError("parent block failed")
            time.sleep(60)  # killed long before this ends

        start = time.monotonic()
        with pytest.raises(KeyError, match="parent block failed"):
            fork_blocks(block_bounds(3, 1), block)
        assert time.monotonic() - start < 30
        assert len(forks) == 2
        self.assert_reaped(forks)


class TestNearestNode:
    @pytest.mark.parametrize("lo, hi, n, jitter", [
        (-3.0, 3.0, 601, 0.0), (-0.5, 0.5, 2001, 0.0), (0.0, 5.0, 11, 0.0),
        (-3.0, 3.0, 301, 1e-10),
    ])
    def test_equals_argmin(self, lo, hi, n, jitter):
        rng = np.random.default_rng(n)
        nodes = np.linspace(lo, hi, n)
        # a grid uniform only to round-off, as SpaceTimeGrid admits
        nodes[1:-1] += jitter * (nodes[1] - nodes[0]) * rng.uniform(-1, 1, n - 2)
        grid = SpaceTimeGrid(xs=nodes, ts=nodes)
        mid = 0.5 * (nodes[:-1] + nodes[1:])  # exact ties on the 0.5-step grid
        q = np.concatenate([rng.uniform(lo - 1, hi + 1, 5000), nodes, mid,
                            np.nextafter(mid, np.inf), np.nextafter(mid, -np.inf),
                            [lo - 7.0, hi + 7.0]])
        want = np.concatenate([np.argmin(np.abs(nodes[None, :] - c[:, None]), axis=1)
                               for c in np.array_split(q, q.size // 500)])
        assert np.array_equal(grid.nearest_column(q), want)
        assert np.array_equal(grid.nearest_row(q), want)
        assert np.array_equal(grid.nearest_row(q[:5000].reshape(50, 100)),
                              want[:5000].reshape(50, 100))
        for v, k in zip(q[::997], want[::997]):
            got = grid.nearest_column(float(v))
            assert type(got) is int and got == k
        # all distances tie at infinity; the near end is the nearest node
        assert grid.nearest_column([-np.inf, np.inf]).tolist() == [0, n - 1]


class TestExactNode:
    def test_grid_nodes_within_round_off(self):
        grid = SpaceTimeGrid(xs=np.linspace(-3, 3, 31), ts=np.linspace(-0.5, 0.5, 21))
        assert grid.exact_row(0.25) == 15 and grid.exact_row(0.25 + 1e-12) == 15
        assert grid.exact_row(-0.5) == 0 and grid.exact_row(0.5 - 1e-12) == 20

    @pytest.mark.parametrize("t", [0.2501, 0.7, -np.inf, np.inf, np.nan])
    def test_off_grid_time_raises(self, t):
        grid = SpaceTimeGrid(xs=np.linspace(-3, 3, 31), ts=np.linspace(-0.5, 0.5, 21))
        with pytest.raises(ValueError, match=r"t = .* is on no grid node; "
                                             r"the nearest grid time is"):
            grid.exact_row(t)


class TestGradient:
    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_affine_exact(self, a, b):
        grid = SpaceTimeGrid(xs=np.linspace(-2, 2, 41), ts=np.linspace(0, 1, 3))
        g = gradient_rows(np.tile(a * grid.xs + b, (3, 1)), grid.dx)
        assert np.allclose(g, a, atol=1e-9 * max(1, abs(a)))

    def test_quadratic_interior(self):
        grid = SpaceTimeGrid(xs=np.arange(-1, 1.005, 0.01), ts=np.linspace(0, 1, 2))
        g = gradient_rows(np.tile(grid.xs**2, (2, 1)), grid.dx)
        assert np.allclose(g[:, 1:-1], 2 * grid.xs[1:-1], atol=1e-10)

    def test_constant_zero(self):
        grid = SpaceTimeGrid(xs=np.linspace(0, 1, 11), ts=np.linspace(0, 1, 2))
        g = gradient_rows(np.full((2, 11), 3.7), grid.dx)
        assert np.allclose(g, 0.0, atol=1e-12)


def dense(ab):
    """The square matrix of a (1, 1)-banded one."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


class TestStepMatrix:
    XS = np.linspace(-1, 1, 41)
    HBAR, DT = 0.5, 0.01
    DX = XS[1] - XS[0]
    #: a drift of both signs reaching cell Peclet |b| dx / (hbar / 2) = 50
    DRIFT = 50 * (HBAR / 2) / DX * np.sin(3 * XS)

    def test_rows_sum_to_one_without_potential(self):
        m = dense(_step_matrix(self.DRIFT, self.HBAR, self.DT, self.DX))
        assert np.allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_off_diagonals_nonpositive_at_peclet_50(self):
        peclet = np.max(np.abs(self.DRIFT)) * self.DX / (self.HBAR / 2)
        assert peclet == pytest.approx(50, rel=1e-2)
        ab = _step_matrix(self.DRIFT, self.HBAR, self.DT, self.DX)
        assert np.all(ab[0, 1:] <= 0) and np.all(ab[2, :-1] <= 0)
        assert np.all(ab[1] > 0)
        # upwinded: a positive drift couples a node to i + 1 alone
        lam = self.DT * self.HBAR / 2 / self.DX**2
        pos = self.DRIFT[:-1] > 0
        assert np.allclose(ab[0, 1:][pos], -lam - self.DT * self.DRIFT[:-1][pos]
                           / self.DX, rtol=1e-12)
        assert np.allclose(ab[2, :-1][self.DRIFT[1:] > 0], -lam, rtol=1e-12)

    def test_applies_the_generator_to_affine_functions(self):
        # (I - M) f / dt = L f = b f' + (hbar/2) f'' - V f / hbar, exactly
        # for an affine f at interior nodes
        v = 1 + self.XS**2
        f = 2.0 * self.XS - 0.3
        m = dense(_step_matrix(self.DRIFT, self.HBAR, self.DT, self.DX, v))
        lf = (f - m @ f) / self.DT
        assert np.allclose(lf[1:-1], (2.0 * self.DRIFT - v * f / self.HBAR)[1:-1],
                           rtol=1e-9, atol=1e-9)

    def test_pinned_rows_are_identity_rows(self):
        ab = _step_matrix(self.DRIFT, self.HBAR, self.DT, self.DX)
        before = dense(ab)
        rows = np.zeros(self.XS.size, dtype=bool)
        rows[[0, 5, 6, 20, -1]] = True
        assert _pin_rows(ab, rows) is ab
        after = dense(ab)
        assert np.array_equal(after[rows], np.eye(self.XS.size)[rows])
        assert np.array_equal(after[~rows], before[~rows])

    @pytest.mark.parametrize("nx, dt, hbar, scale", [
        (5, 1e-2, 1.0, 0.0),
        (41, 5e-4, 0.1, 5.0),
        (101, 1e-2, 0.5, 2.0),
        (400, 1e-2, 1.0, 5.0),
        (400, 5e-3, 0.1, 0.0),
    ])
    def test_solve_matches_solve_banded_bit_for_bit(self, nx, dt, hbar, scale):
        from scipy.linalg import solve_banded
        rng = np.random.default_rng(nx)
        dx = 2 / (nx - 1)
        pivoted = False
        for _ in range(20):
            drift = scale * rng.standard_normal(nx) * (hbar / 2) / dx
            pins = rng.random(nx) < 0.05
            ab = _pin_rows(_step_matrix(drift, hbar, dt, dx), pins)
            # and the transposed bands, as stopping.fokker_planck builds them
            at = np.array([np.roll(ab[2], 1), ab[1], np.roll(ab[0], -1)])
            for m in (ab, at):
                b = rng.random(nx)
                lu = _factor_step(m)
                assert np.array_equal(_solve_step(lu, b), solve_banded((1, 1), m, b))
                pivoted |= np.any(lu[4] != np.arange(1, nx + 1))
        # at lambda = hbar dt / (2 dx^2) > 1 the column under a pinned row
        # outweighs its diagonal, so both routines exchange rows
        if hbar * dt / (2 * dx * dx) > 1:
            assert pivoted

    def test_factor_leaves_the_matrix_alone(self):
        ab = _step_matrix(self.DRIFT, self.HBAR, self.DT, self.DX)
        before = ab.copy()
        lu = _factor_step(ab)
        _solve_step(lu, np.ones(self.XS.size))
        assert np.array_equal(ab, before)

    def test_step_residual_is_the_banded_mat_vec(self):
        rng = np.random.default_rng(3)
        v = 1 + self.XS**2
        ab = _step_matrix(self.DRIFT, self.HBAR, self.DT, self.DX, v)
        e, b = rng.random(self.XS.size), rng.random(self.XS.size)
        assert np.allclose(_step_residual(ab, e, b), dense(ab) @ e - b,
                           rtol=0, atol=1e-12 * np.max(np.abs(dense(ab))))
        # and it vanishes, to round-off, at the solution
        x = _solve_step(_factor_step(ab), b)
        assert np.max(np.abs(_step_residual(ab, x, b))) < 1e-10


class TestRegionFromEta:
    def setup_method(self):
        self.grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 5),
                                  ts=np.linspace(-0.5, 0.5, 4))
        self.obstacle = ScalarField(self.grid, np.full((4, 5), 0.5))

    def test_equality_is_stopping(self):
        mask = region_from_eta(self.obstacle, self.obstacle)
        assert np.all(mask.flags == STOPPING)

    def test_strictly_above_is_continuation(self):
        eta = ScalarField(self.grid, 2 * self.obstacle.values)
        mask = region_from_eta(eta, self.obstacle)
        assert np.all(mask.flags == CONTINUATION)

    def test_fixed_tolerances(self):
        # STOPPING within max(1e-9, 1e-8 psi) of psi: the absolute bound
        # decides at psi = 0.05, the relative one at psi = 10
        psi = np.tile([0.05, 0.05, 10.0, 10.0, 10.0], (4, 1))
        gap = np.array([0.7e-9, 2e-9, 0.7e-7, 2e-7, 2e-9])
        mask = region_from_eta(ScalarField(self.grid, psi + gap),
                               ScalarField(self.grid, psi))
        assert np.all(mask.flags == [STOPPING, CONTINUATION, STOPPING,
                                     CONTINUATION, STOPPING])

    def test_grid_mismatch(self):
        other = SpaceTimeGrid(xs=np.linspace(-2, 2, 5), ts=self.grid.ts)
        eta = ScalarField(other, np.ones((4, 5)))
        with pytest.raises(ValueError, match="same grid"):
            region_from_eta(eta, self.obstacle)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            RegionMask(self.grid, np.full((4, 5), 2, dtype=np.int8))
