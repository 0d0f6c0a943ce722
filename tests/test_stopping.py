import math

import numpy as np
import pytest

from bernstein import core, stopping
from bernstein.core import (
    CONTINUATION,
    STOPPING,
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
    build_grid,
)
from bernstein.hjb import (
    solve_backward_obstacle,
    solve_forward_obstacle,
    value_from_eta,
)
from bernstein.simulate import PathEnsemble, SimConfig, simulate_forward
from bernstein.stopping import (
    SurvivalProblem,
    empirical_survival,
    fokker_planck,
    martingale_check,
    solve_q,
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
def solved():
    spec = make_spec()
    grid = build_grid(spec, 301, 501)
    sol = solve_forward_obstacle(spec, grid)
    val = value_from_eta(sol, spec.hbar)
    return spec, grid, sol, val


def mask_with_origin_column(grid):
    flags = np.full((grid.nt, grid.nx), CONTINUATION, dtype=np.int8)
    j0 = int(np.argmin(np.abs(grid.xs)))
    flags[:, j0] = STOPPING
    flags[-1] = STOPPING
    return RegionMask(grid, flags), j0


#: the codes of ``solve_q``'s closed_form_region
ZERO, ONE, PDE = 0, 1, 2


class TestClassification:
    """The closed-form case analysis, read node by node from
    ``solve_q(...).closed_form_region``."""

    def setup_method(self):
        self.grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 5),
                                  ts=np.linspace(-0.5, 0.5, 5))
        flags = np.full((5, 5), CONTINUATION, dtype=np.int8)
        flags[:, 2] = STOPPING           # a standing barrier at x = 0
        flags[3:, 4] = STOPPING          # late stopping at the right edge
        self.mask = RegionMask(self.grid, flags)

    def code(self, t, x, threshold, mask=None, orientation="forward"):
        """The closed-form code of the node (t, x) for a driftless problem."""
        mask = mask or self.mask
        drift = ScalarField(self.grid, np.zeros((5, 5)))
        out = solve_q(SurvivalProblem(orientation, threshold, drift, mask, 1.0))
        return out.closed_form_region[self.grid.exact_row(t),
                                      self.grid.nearest_column(x)]

    def test_stopping_node_forward(self):
        assert self.code(0.5, 0.0, 0.25) == ONE
        assert self.code(0.0, 0.0, 0.25) == ZERO

    def test_continuation_past_threshold(self):
        assert self.code(0.5, -1.0, 0.25) == ONE
        assert self.code(0.25, -1.0, 0.25) == ONE

    def test_no_continuation_time_left(self):
        # x = 1 leaves the continuation region after t = 0, but a path from
        # there may still move sideways and continue at the threshold: the
        # march gives q = 0.909 at (-0.25, 1) for the threshold 0, and the
        # node is PDE too for the threshold 0.25, by which x = 1 has stopped
        assert self.code(-0.25, 1.0, 0.0) == PDE
        assert self.code(-0.25, 1.0, 0.25) == PDE
        drift = ScalarField(self.grid, np.zeros((5, 5)))
        out = solve_q(SurvivalProblem("forward", 0.0, drift, self.mask, 1.0))
        assert 0.5 < out.q.values[1, 4] < 1.0

    def test_zero_only_when_nothing_continues_at_the_threshold(self):
        flags = self.mask.flags.copy()
        flags[2:] = STOPPING  # everything stops from t = 0 on
        mask = RegionMask(self.grid, flags)
        assert self.code(-0.25, 1.0, 0.0, mask) == ZERO
        assert self.code(-0.25, 1.0, 0.25, mask) == ZERO
        assert self.code(-0.25, 1.0, -0.25, mask) == ONE
        mirror = RegionMask(self.grid, flags[::-1])
        assert self.code(0.25, 1.0, 0.0, mirror, "backward") == ZERO
        assert self.code(0.25, 1.0, 0.25, mirror, "backward") == ONE
        # closed_form_region marks every node before the threshold ZERO
        drift = ScalarField(self.grid, np.zeros((5, 5)))
        for m, orientation, rows in ((mask, "forward", slice(None, 2)),
                                     (mirror, "backward", slice(3, None))):
            out = solve_q(SurvivalProblem(orientation, 0.0, drift, m, 1.0))
            assert np.all(out.closed_form_region[rows] == 0)
            assert np.all(out.q.values[rows] == 0.0)

    def test_stopping_column_before_the_threshold(self):
        # only the x = 1 column stops, from just after t = 0 on; a path
        # from it at t = -0.2 may leave it and survive a threshold at 0.25
        grid = SpaceTimeGrid(xs=np.linspace(0, 2, 41),
                             ts=np.linspace(-0.5, 0.5, 101))
        j = grid.nearest_column(1.0)
        flags = np.full((grid.nt, grid.nx), CONTINUATION, dtype=np.int8)
        flags[grid.ts > 1e-12, j] = STOPPING
        mask = RegionMask(grid, flags)
        k, thr = grid.nearest_row(-0.2), grid.ts[grid.nearest_row(0.25)]
        drift = ScalarField(grid, np.zeros((grid.nt, grid.nx)))
        out = solve_q(SurvivalProblem("forward", thr, drift, mask, 1.0))
        assert out.closed_form_region[k, j] == PDE
        assert 0.3 < out.q.values[k, j] < 0.7

    def test_generic_is_pde(self):
        assert self.code(-0.25, -0.5, 0.25) == PDE

    def test_backward_mirror(self):
        assert self.code(-0.5, 0.0, 0.25, orientation="backward") == ONE
        assert self.code(0.5, 0.0, 0.25, orientation="backward") == ZERO
        assert self.code(0.0, -1.0, 0.25, orientation="backward") == ONE


class TestSurvivalProblemValidation:
    def test_threshold_interior(self, solved):
        spec, grid, sol, val = solved
        with pytest.raises(ValueError, match="threshold"):
            SurvivalProblem("forward", 0.5, val.drift, sol.mask, spec.hbar)

    def test_orientation(self, solved):
        spec, grid, sol, val = solved
        with pytest.raises(ValueError, match="orientation"):
            SurvivalProblem("up", 0.0, val.drift, sol.mask, spec.hbar)

    def test_threshold_must_be_grid_time(self, solved):
        spec, grid, sol, val = solved
        p = SurvivalProblem("forward", 0.1234567, val.drift, sol.mask, spec.hbar)
        with pytest.raises(ValueError, match="grid time"):
            solve_q(p)


class TestSolveQ:
    def test_threshold_slice_values(self, solved):
        spec, grid, sol, val = solved
        p = SurvivalProblem("forward", 0.25, val.drift, sol.mask, spec.hbar)
        out = solve_q(p)
        kT = int(np.argmin(np.abs(grid.ts - 0.25)))
        stop = sol.mask.flags[kT] == STOPPING
        assert np.all(out.q.values[kT, stop] == 0.0)
        assert np.all(out.q.values[kT, ~stop] == 1.0)
        assert np.all(out.q.values[kT + 1:] == 1.0)

    def test_bounds_and_barrier_zero(self, solved):
        spec, grid, sol, val = solved
        p = SurvivalProblem("forward", 0.25, val.drift, sol.mask, spec.hbar)
        out = solve_q(p)
        assert np.all(out.q.values >= 0.0) and np.all(out.q.values <= 1.0)
        # the barrier column is zero up to the threshold slice; past it the
        # closed-form value is one (stopping there happens after the threshold)
        kT = int(np.argmin(np.abs(grid.ts - 0.25)))
        j0 = int(np.argmin(np.abs(grid.xs)))
        assert np.all(out.q.values[:kT + 1, j0] <= 1e-12)

    @pytest.mark.parametrize("orientation, row", [("forward", 0), ("backward", -1)])
    def test_no_range_when_nothing_is_marched(self, solved, orientation, row):
        # a threshold within the grid-time tolerance of the slice that the
        # march would start from leaves no slice to march
        spec, grid, sol, val = solved
        thr = grid.ts[row] + (1e-12 if row == 0 else -1e-12)
        out = solve_q(SurvivalProblem(orientation, thr, val.drift, sol.mask,
                                      spec.hbar))
        assert out.unclamped_range is None
        marched = solve_q(SurvivalProblem(orientation, 0.0, val.drift,
                                          sol.mask, spec.hbar))
        lo, hi = marched.unclamped_range
        assert math.isfinite(lo) and math.isfinite(hi)

    def test_threshold_monotone(self, solved):
        spec, grid, sol, val = solved
        qs = []
        for thr in (0.0, 0.25):
            p = SurvivalProblem("forward", thr, val.drift, sol.mask, spec.hbar)
            qs.append(solve_q(p).q.values[0])
        # surviving past a later threshold is harder
        assert np.all(qs[1] <= qs[0] + 1e-12)

    def test_driftless_barrier_matches_erf(self):
        # pure Brownian motion absorbed at the origin: the survival
        # probability from (t0, x) over an elapsed time dT is
        # erf(x / sqrt(2 hbar dT))
        spec = make_spec(x_min=0.0, x_max=6.0)
        grid = build_grid(spec, 301, 501)
        mask, j0 = mask_with_origin_column(grid)
        drift = ScalarField(grid, np.zeros((grid.nt, grid.nx)))
        p = SurvivalProblem("forward", 0.3, drift, mask, spec.hbar)
        out = solve_q(p)
        k = int(np.argmin(np.abs(grid.ts + 0.2)))
        for x in (0.5, 1.0, 1.5):
            j = int(np.argmin(np.abs(grid.xs - x)))
            ref = math.erf(x / math.sqrt(2 * 0.5))
            assert out.q.values[k, j] == pytest.approx(ref, abs=5e-3)

    def test_backward_orientation_mirror(self):
        # a time-symmetric driftless barrier problem: q* marched up from the
        # threshold equals q marched down, time-mirrored
        spec = make_spec(x_min=0.0, x_max=6.0)
        grid = build_grid(spec, 151, 251)
        flags = np.full((grid.nt, grid.nx), CONTINUATION, dtype=np.int8)
        flags[:, 0] = STOPPING
        mask = RegionMask(grid, flags)
        drift = ScalarField(grid, np.zeros((grid.nt, grid.nx)))
        fwd = solve_q(SurvivalProblem("forward", -0.1, drift, mask, spec.hbar))
        bwd = solve_q(SurvivalProblem("backward", 0.1, drift, mask, spec.hbar))
        assert np.array_equal(bwd.q.values, fwd.q.values[::-1])

    def test_closed_form_codes(self, solved):
        spec, grid, sol, val = solved
        p = SurvivalProblem("forward", 0.25, val.drift, sol.mask, spec.hbar)
        out = solve_q(p)
        kT = int(np.argmin(np.abs(grid.ts - 0.25)))
        assert np.all(out.closed_form_region[kT + 1:] == 1)
        j0 = int(np.argmin(np.abs(grid.xs)))
        assert np.all(out.closed_form_region[:kT, j0] == 0)

    def test_classification_consistent_with_pde(self, solved):
        # wherever the case analysis returns a closed-form value, the marched
        # solution agrees exactly
        spec, grid, sol, val = solved
        p = SurvivalProblem("forward", 0.25, val.drift, sol.mask, spec.hbar)
        out = solve_q(p)
        codes = out.closed_form_region
        assert np.all(np.abs(out.q.values[codes == ONE] - 1.0) <= 1e-12)
        assert np.all(np.abs(out.q.values[codes == ZERO]) <= 1e-12)
        assert (codes == ONE).any() and (codes == ZERO).any()

    def test_labels_agree_with_the_march(self):
        # random masks and drifts, both orientations, every interior grid
        # threshold: a node the case analysis settles marches to its value
        rng = np.random.default_rng(11)
        for _ in range(120):
            nt, nx = rng.integers(3, 12, size=2)
            grid = SpaceTimeGrid(xs=np.linspace(-1, 1, nx),
                                 ts=np.linspace(-0.5, 0.5, nt))
            mask = RegionMask(grid, rng.random((nt, nx)) < rng.random())
            drift = ScalarField(grid, rng.normal(scale=5.0, size=(nt, nx)))
            for orientation in ("forward", "backward"):
                for thr in grid.ts[1:-1]:
                    out = solve_q(SurvivalProblem(orientation, thr, drift,
                                                  mask, 1.0))
                    codes = out.closed_form_region
                    settled = codes != PDE
                    assert np.all(np.abs(out.q.values[settled]
                                         - codes[settled]) <= 1e-12)

    def test_max_principle_guard(self, solved, monkeypatch):
        spec, grid, sol, val = solved
        p = SurvivalProblem("forward", 0.25, val.drift, sol.mask, spec.hbar)
        monkeypatch.setattr(stopping, "_MAX_PRINCIPLE_TOL", -1.0)
        with pytest.raises(ValueError, match="maximum principle"):
            solve_q(p)


class TestAgainstMonteCarlo:
    def test_pde_matches_empirical(self, solved):
        spec, grid, sol, val = solved
        thr = 0.2
        p = SurvivalProblem("forward", thr, val.drift, sol.mask, spec.hbar)
        out = solve_q(p)
        cfg = SimConfig(dt=1e-3, n_paths=20000, seed=42, start=(-0.5, 1.0))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        emp = empirical_survival(ens, thr)
        k = 0
        j = int(np.argmin(np.abs(grid.xs - 1.0)))
        assert abs(out.q.values[k, j] - emp["estimate"]) <= 3 * emp["stderr"]

    def test_martingale_property(self, solved):
        spec, grid, sol, val = solved
        thr = 0.25
        cps = (-0.2, 0.0, 0.2)
        p = SurvivalProblem("forward", thr, val.drift, sol.mask, spec.hbar)
        out = solve_q(p)
        cfg = SimConfig(dt=1e-3, n_paths=20000, seed=3, start=(-0.5, 0.8),
                        checkpoints=cps)
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        report = martingale_check(out, ens, cps)
        assert report["all_within_3_stderr"], report

    def test_martingale_on_degenerate_start(self):
        # a start on the x = 0 barrier stops at once; every checkpoint still
        # records the start, so q along the paths is q at the start
        spec = make_spec()
        grid = build_grid(spec, 151, 201)
        sol = solve_forward_obstacle(spec, grid)
        val = value_from_eta(sol, spec.hbar)
        out = solve_q(SurvivalProblem("forward", 0.25, val.drift, sol.mask,
                                      spec.hbar))
        cfg = SimConfig(dt=1e-3, n_paths=10, seed=0, start=(-0.5, 0.0),
                        checkpoints=(0.1,))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        tt, xx = ens.checkpoints[0.1]
        assert np.all(tt == -0.5) and np.all(xx == 0.0)
        report = martingale_check(out, ens, (0.1,))
        assert report["all_within_3_stderr"], report
        assert abs(report["checkpoints"][0]["difference"]) <= 1e-12

    def test_martingale_states_outside_hull(self, solved):
        # checkpoint states beyond the grid's x range take q at the edge node
        spec, grid, sol, val = solved
        out = solve_q(SurvivalProblem("forward", 0.25, val.drift, sol.mask,
                                      spec.hbar))
        n = 4
        xx = np.array([-5.0, -3.5, 3.2, 7.0])
        ens = PathEnsemble(
            orientation="forward", start=(-0.5, 1.0), dt=1e-3, seed=0,
            stop_time=np.full(n, 0.5), stopped_state=xx, action_value=np.zeros(n),
            hit_flag=np.zeros(n, dtype=bool),
            checkpoints={0.1: (np.full(n, 0.1), xx)})
        report = martingale_check(out, ens, (0.1,))
        k = int(np.argmin(np.abs(grid.ts - 0.1)))
        edges = out.q.values[k, [0, 0, -1, -1]]
        assert report["checkpoints"][0]["mean"] == pytest.approx(
            float(np.mean(edges)), rel=0, abs=1e-15)
        j = int(np.argmin(np.abs(grid.xs - 1.0)))
        assert report["q_at_start"] == out.q.values[0, j]

    def test_missing_checkpoint_raises(self, solved):
        spec, grid, sol, val = solved
        p = SurvivalProblem("forward", 0.25, val.drift, sol.mask, spec.hbar)
        out = solve_q(p)
        cfg = SimConfig(dt=1e-2, n_paths=10, seed=0, start=(-0.5, 1.0))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        with pytest.raises(ValueError, match="checkpoint"):
            martingale_check(out, ens, (0.1,))


class TestEmpiricalSurvival:
    def test_no_stopping_gives_one(self):
        spec = make_spec()
        cfg = SimConfig(dt=1e-2, n_paths=200, seed=1, start=(-0.5, 1.0))
        ens = simulate_forward(spec, None, None, cfg)
        assert empirical_survival(ens, 0.25)["estimate"] == 1.0

    def test_degenerate_start_gives_zero(self, solved):
        spec, grid, sol, val = solved
        cfg = SimConfig(dt=1e-2, n_paths=50, seed=1, start=(-0.5, 0.0))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        assert empirical_survival(ens, 0.0)["estimate"] == 0.0


def zero_drift(grid):
    # a read-only view of one number, as experiments.erf_survival_pde builds it
    return ScalarField(grid, np.broadcast_to(0.0, (grid.nt, grid.nx)))


def pairings(orientation, q, rho, threshold):
    """sum_j q[k, j] rho[k, j] on each row k in marching order up to the
    threshold's row."""
    grid = q.grid
    row = grid.exact_row(threshold)
    at = row if orientation == "forward" else grid.nt - 1 - row
    return core._marching_rows(orientation, np.sum(q.values * rho.values,
                                                   axis=1))[:at + 1]


@pytest.fixture(scope="module")
def solved_backward():
    spec = make_spec()
    grid = build_grid(spec, 301, 501)
    return value_from_eta(solve_backward_obstacle(spec, grid), spec.hbar)


class TestFokkerPlanck:
    def test_heat_spreading_variance(self):
        grid = SpaceTimeGrid(xs=np.linspace(-8, 8, 801),
                             ts=np.linspace(-0.5, 0.5, 501))
        sd0 = 0.5
        rho0 = np.exp(-grid.xs**2 / (2 * sd0**2))
        rho0 /= np.trapezoid(rho0, grid.xs)
        out = fokker_planck("forward", zero_drift(grid), None, rho0, 1.0)
        var_end = np.trapezoid(grid.xs**2 * out.values[-1], grid.xs)
        expected = sd0**2 + 1.0  # hbar * elapsed time
        assert abs(var_end - expected) / expected < 0.01

    def test_mass_conserved(self):
        grid = SpaceTimeGrid(xs=np.linspace(-6, 6, 301),
                             ts=np.linspace(-0.5, 0.5, 101))
        rho0 = np.exp(-grid.xs**2)
        rho0 /= np.trapezoid(rho0, grid.xs)
        out = fokker_planck("forward", zero_drift(grid), None, rho0, 1.0)
        masses = np.trapezoid(out.values, grid.xs, axis=1)
        assert np.max(np.abs(masses - 1.0)) <= 1e-6

    def test_mass_conserved_under_drift(self, solved):
        spec, grid, _, val = solved
        rho0 = np.exp(-((grid.xs - 1.0) ** 2) / (2 * 0.3**2))
        out = fokker_planck("forward", val.drift, None, rho0, spec.hbar)
        assert np.max(np.abs(out.values.sum(axis=1) / rho0.sum() - 1)) <= 1e-13

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_dual_to_the_survival_march(self, solved, orientation):
        # the transpose step makes sum_j q[k, j] rho[k, j] constant on every
        # row up to the threshold: the discrete martingale property of q
        spec, grid, _, val = solved
        threshold = 0.25 if orientation == "forward" else -0.25
        flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
        flags[:, [0, -1]] = STOPPING
        mask = RegionMask(grid, flags)
        q = solve_q(SurvivalProblem(
            orientation=orientation, threshold=threshold, drift=val.drift,
            mask=mask, hbar=spec.hbar)).q
        rho0 = np.exp(-((grid.xs - 1.0) ** 2) / (2 * 0.1**2))
        rho0 /= rho0.sum()
        rho = fokker_planck(orientation, val.drift, mask, rho0, spec.hbar)
        pairing = pairings(orientation, q, rho, threshold)
        assert 0.5 < pairing[0] < 1
        assert np.max(np.abs(pairing - pairing[0])) <= 1e-12

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_dual_on_the_obstacle_masks(self, solved, solved_backward,
                                        orientation):
        # the worked example's own stopping sets, the x = 0 column and the
        # data row, kill the density
        spec = solved[0]
        val, threshold = ((solved[3], 0.25) if orientation == "forward"
                          else (solved_backward, -0.25))
        q = solve_q(SurvivalProblem(
            orientation=orientation, threshold=threshold, drift=val.drift,
            mask=val.mask, hbar=spec.hbar)).q
        grid = q.grid
        rho0 = np.exp(-((grid.xs - 1.0) ** 2) / (2 * 0.3**2))
        rho0 /= rho0.sum()
        rho = fokker_planck(orientation, val.drift, val.mask, rho0, spec.hbar)
        pairing = pairings(orientation, q, rho, threshold)
        assert 0.1 < pairing[0] < 1
        assert np.max(np.abs(pairing - pairing[0])) <= 1e-12

    def test_mask_on_another_grid(self, solved):
        spec, grid, _, val = solved
        other = build_grid(spec, 31, 501)
        with pytest.raises(ValueError, match="share a grid"):
            fokker_planck("forward", val.drift,
                          RegionMask(other, np.zeros((501, 31))),
                          np.ones(grid.nx), spec.hbar)

    def test_peclet_warning(self):
        grid = SpaceTimeGrid(xs=np.linspace(-1, 1, 11), ts=np.linspace(0, 0.1, 5))
        drift = ScalarField(grid, np.full((5, 11), 50.0))
        rho0 = np.ones(11) / 2
        with pytest.warns(UserWarning, match="Peclet"):
            fokker_planck("forward", drift, None, rho0, 1.0)

    def test_matches_mc_histogram_under_optimal_drift(self, solved):
        # density of the paths alive at t = 0, killed on the solve's own
        # stopping set
        spec, grid, _, val = solved
        sd0 = 0.05
        rho0 = np.exp(-((grid.xs - 1.0) ** 2) / (2 * sd0**2))
        rho0 /= np.trapezoid(rho0, grid.xs)
        fp = fokker_planck("forward", val.drift, val.mask, rho0, spec.hbar)

        cfg = SimConfig(dt=1e-3, n_paths=20000, seed=13, start=(-0.5, 1.0),
                        checkpoints=(0.0,))
        ens = simulate_forward(spec, val.drift, val.mask, cfg)
        tt, xx = ens.checkpoints[0.0]
        alive = tt >= 0.0
        edges = np.linspace(0.0, 3.0, 31)
        hist, _ = np.histogram(xx[alive], bins=edges, density=False)
        p_mc = hist / hist.sum()
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.interp(centers, grid.xs, fp.values[grid.exact_row(0.0)])
        p_fp = dens / dens.sum()
        tv = 0.5 * np.abs(p_mc - p_fp).sum()
        assert tv < 0.05
