import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from bernstein import core, hjb, stopping
from bernstein.experiments import (
    BAND,
    BAND_TOL,
    DOMINANCE_TOL,
    LCP_TOL,
    SLICE_TIMES,
    stopping_columns,
)
from bernstein.core import (
    CONTINUATION,
    FUNCTION_REGISTRY,
    STOPPING,
    ConvergenceError,
    ProblemSpec,
    RegionMask,
    ScalarField,
    build_grid,
    function_from_spec,
)
from bernstein.hjb import (
    classical_value,
    lcp_residual,
    solve_backward_obstacle,
    solve_forward_obstacle,
    value_from_eta,
)
from bernstein.analytic import (
    sec7_classical_eta,
    sec7_classical_eta_star,
    sec7_drift_backward,
    sec7_drift_forward,
    sec7_eta_backward,
    sec7_eta_forward,
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


def lu_pivots(ab):
    """Pivots of the LU without row exchanges of a tridiagonal matrix in
    the (1, 1)-banded layout of ``core._step_matrix``."""
    piv = [ab[1, 0]]
    for i in range(1, ab.shape[1]):
        piv.append(ab[1, i] - ab[2, i - 1] * ab[0, i] / piv[-1])
    return piv


@pytest.fixture(scope="module")
def medium_forward():
    spec = make_spec()
    grid = build_grid(spec, 301, 501)
    return spec, grid, solve_forward_obstacle(spec, grid)


@pytest.fixture(scope="module")
def medium_backward():
    spec = make_spec()
    grid = build_grid(spec, 301, 501)
    return spec, grid, solve_backward_obstacle(spec, grid)


class TestTrivialProblems:
    def test_zero_cost_stops_everywhere(self):
        spec = make_spec(terminal_cost=zero)
        grid = build_grid(spec, 31, 11)
        sol = solve_forward_obstacle(spec, grid)
        assert np.allclose(sol.eta.values, 1.0, atol=1e-9)
        assert np.all(sol.mask.flags == STOPPING)
        val = value_from_eta(sol, spec.hbar)
        assert np.allclose(val.value.values, 0.0, atol=1e-9)

    def test_zero_initial_cost_backward(self):
        spec = make_spec(initial_cost=zero)
        grid = build_grid(spec, 31, 11)
        sol = solve_backward_obstacle(spec, grid)
        assert np.allclose(sol.eta.values, 1.0, atol=1e-9)

    def test_log_linear_field_drift(self):
        spec = make_spec()
        grid = build_grid(spec, 31, 11)
        sol = solve_forward_obstacle(spec, grid)
        eta = ScalarField(grid, np.tile(np.exp(grid.xs), (grid.nt, 1)))
        fake = type(sol)(eta=eta, mask=sol.mask, step_solves=sol.step_solves,
                         orientation="forward", stopping_cost=None)
        val = value_from_eta(fake, 1.0)
        assert np.allclose(val.value.values, -grid.xs, atol=1e-9)
        assert np.allclose(val.drift.values, 1.0, atol=1e-9)


class TestForwardExample:
    def test_eta_one_on_axis(self, medium_forward):
        _, grid, sol = medium_forward
        j0 = int(np.argmin(np.abs(grid.xs)))
        assert np.allclose(sol.eta.values[:, j0], 1.0, atol=1e-6)

    def test_terminal_row_is_data(self, medium_forward):
        _, grid, sol = medium_forward
        assert np.allclose(sol.eta.values[-1], np.exp(-np.abs(grid.xs)))

    def test_stopping_set_is_origin_column(self, medium_forward):
        _, grid, sol = medium_forward
        interior = sol.mask.flags[:-1]
        expected = (np.abs(grid.xs) < grid.dx / 2)[None, :]
        assert np.array_equal(interior == STOPPING,
                              np.broadcast_to(expected, interior.shape))
        assert np.all(sol.mask.flags[-1] == STOPPING)

    def test_oracle_agreement_point(self, medium_forward):
        _, grid, sol = medium_forward
        k = int(np.argmin(np.abs(grid.ts)))
        j = int(np.argmin(np.abs(grid.xs - 1.0)))
        u = -math.log(sol.eta.values[k, j])
        ref = -math.log(sec7_eta_forward(0.0, 1.0, 1.0, 1.0))
        assert abs(u - ref) / ref < 0.01

    def test_obstacle_dominance(self, medium_forward):
        _, grid, sol = medium_forward
        psi = np.exp(-np.abs(grid.xs))
        assert np.all(sol.eta.values >= psi[None, :] - 1e-12)

    def test_mirror_symmetry(self, medium_forward):
        _, _, sol = medium_forward
        assert np.allclose(sol.eta.values, sol.eta.values[:, ::-1], atol=1e-9)

    def test_free_boundary_trace_brackets_origin(self, medium_forward):
        _, grid, sol = medium_forward
        for bnd in sol.boundary[:-1]:
            assert len(bnd) == 2
            assert bnd[0] < 0 < bnd[1]
            assert max(abs(bnd[0]), abs(bnd[1])) <= grid.dx

    def test_far_field_drift(self, medium_forward):
        spec, grid, sol = medium_forward
        val = value_from_eta(sol, spec.hbar)
        k = int(np.argmin(np.abs(grid.ts)))
        j = int(np.argmin(np.abs(grid.xs + 3.0)))
        assert abs(val.drift.values[k, j] - 1.0) < 0.02


class TestBackwardExample:
    def test_initial_row_is_data(self, medium_backward):
        _, grid, sol = medium_backward
        assert np.allclose(sol.eta.values[0], (1 + np.abs(grid.xs)) ** -1.0)

    def test_point_value(self, medium_backward):
        _, grid, sol = medium_backward
        j = int(np.argmin(np.abs(grid.xs - 1.0)))
        assert sol.eta.values[0, j] == pytest.approx(0.5)

    def test_oracle_agreement_point(self, medium_backward):
        _, grid, sol = medium_backward
        k = int(np.argmin(np.abs(grid.ts - 0.25)))
        j = int(np.argmin(np.abs(grid.xs + 1.0)))
        u = -math.log(sol.eta.values[k, j])
        ref = -math.log(sec7_eta_backward(0.25, -1.0, 1.0, 1.0))
        assert abs(u - ref) / abs(ref) < 0.01

    def test_orientation_duality(self):
        # a backward solve with the forward data, on the time-symmetric
        # horizon, reproduces the forward solution time-mirrored
        spec = make_spec()
        mirrored = make_spec(initial_cost=spec.terminal_cost)
        grid = build_grid(spec, 101, 51)
        fwd = solve_forward_obstacle(spec, grid)
        bwd = solve_backward_obstacle(mirrored, grid)
        assert np.array_equal(bwd.eta.values, fwd.eta.values[::-1])


class TestBoundary:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_rowwise_cuts(self, seed):
        # random rows with several cuts, rows with no cut (all continuation
        # or all stopping) and rows with one cut, in a random order
        rng = np.random.default_rng(seed)
        grid = build_grid(make_spec(), 31, 40)
        flags = rng.integers(0, 2, size=(grid.nt, grid.nx), dtype=np.int8)
        flags[:10] = 0
        flags[10:20] = STOPPING
        for k in range(20, 30):
            flags[k] = np.arange(grid.nx) >= rng.integers(1, grid.nx)
        flags = flags[rng.permutation(grid.nt)]
        sol = hjb.EtaSolution(eta=ScalarField(grid, np.ones(flags.shape)),
                              mask=RegionMask(grid, flags),
                              step_solves=np.ones(grid.nt - 1, dtype=int))
        xs = grid.xs
        ref = [0.5 * (xs[c] + xs[c + 1])
               for c in (np.nonzero(np.diff(row))[0] for row in flags)]
        got = sol.boundary
        assert len(got) == grid.nt
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        assert sum(r.size == 0 for r in ref) >= 20
        assert sum(r.size == 1 for r in ref) >= 10


class TestDriftOracle:
    """The optimal drift of ``value_from_eta`` against the analytic drift
    oracles, at the band-error slices inside the horizon."""

    @pytest.mark.parametrize("orientation, x_max, tol", [
        ("forward", 2.5, 1e-3),  # 5.1e-4 here, 2.0e-3 at 151 x 126
        # the backward drift carries the far-field truncation error of
        # ROADMAP item 5 out to |x| = 2.5 (2.9e-2 on every grid); within
        # |x| <= 1.5 it converges: 3.5e-3 at 151 x 126, 1.2e-3 here
        ("backward", 1.5, 3e-3)])
    def test_matches_oracle(self, request, orientation, x_max, tol):
        spec, grid, sol = request.getfixturevalue(f"medium_{orientation}")
        drift = value_from_eta(sol, spec.hbar).drift.values
        oracle = sec7_drift_forward if orientation == "forward" else sec7_drift_backward
        cols = np.nonzero((np.abs(grid.xs) >= 0.1 - 1e-12)
                          & (np.abs(grid.xs) <= x_max + 1e-12))[0]
        worst = 0.0
        for t in (-0.34, -0.14, 0.06, 0.26):
            k = grid.exact_row(t)
            ref = np.array([oracle(grid.ts[k], x, spec.hbar, 2 * spec.half_horizon)
                            for x in grid.xs[cols].tolist()])
            worst = max(worst, float(np.max(np.abs(drift[k, cols] - ref) / np.abs(ref))))
        assert worst <= tol


class TestLcpResidual:
    def test_converged_run_small(self, medium_forward):
        spec, grid, sol = medium_forward
        res = lcp_residual(sol, spec)
        assert np.max(np.abs(res.values)) <= LCP_TOL

    def test_obstacle_everywhere_is_zero(self):
        spec = make_spec(terminal_cost=zero)
        grid = build_grid(spec, 31, 11)
        sol = solve_forward_obstacle(spec, grid)
        res = lcp_residual(sol, spec)
        assert np.max(np.abs(res.values)) <= 1e-12

    def test_perturbation_spikes_locally(self, medium_forward):
        spec, grid, sol = medium_forward
        bumped = sol.eta.values.copy()
        k, j = grid.nt // 2, int(np.argmin(np.abs(grid.xs - 1.5)))
        bumped[k, j] += 1.0
        fake = type(sol)(eta=ScalarField(grid, bumped), mask=sol.mask,
                         step_solves=sol.step_solves, orientation="forward",
                         stopping_cost=sol.stopping_cost)
        res = lcp_residual(fake, spec)
        # the obstacle row binds, over the node's own scale, the bumped eta
        psi = math.exp(-abs(grid.xs[j]) / spec.hbar)
        assert res.values[k, j] == pytest.approx(1 - psi / bumped[k, j], rel=1e-9)
        assert abs(res.values[k, j - 5]) < 1e-3

    @pytest.mark.parametrize("push", [1e-6, -1e-6])
    @pytest.mark.parametrize("j", [0, -1])
    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_far_field_rows_scored(self, request, orientation, j, push):
        # a solved edge node sits at max(psi, r e_next); pushed off it, the
        # far-field row (up) or the obstacle row (down) is violated
        spec, grid, sol = request.getfixturevalue(f"medium_{orientation}")
        k = grid.nt // 2
        assert abs(lcp_residual(sol, spec).values[k, j]) <= LCP_TOL
        pushed = sol.eta.values.copy()
        pushed[k, j] += push
        fake = type(sol)(eta=ScalarField(grid, pushed), mask=sol.mask,
                         step_solves=sol.step_solves, orientation=orientation,
                         stopping_cost=sol.stopping_cost)
        res = lcp_residual(fake, spec).values
        assert abs(res[k, j]) > LCP_TOL
        # over the node's own scale: the pushed eta, as b = 0 on the edge rows
        assert res[k, j] == pytest.approx(push / pushed[k, j], rel=1e-3)


class TestClassicalValue:
    def test_terminal_data(self):
        spec = make_spec()
        grid = build_grid(spec, 101, 51)
        val = classical_value(spec, grid, "forward")
        assert np.allclose(val.value.values[-1], np.abs(grid.xs), atol=1e-9)
        assert np.all(val.mask.flags == CONTINUATION)

    def test_dominance_and_strictness(self, medium_forward):
        spec, grid, sol = medium_forward
        stopped = value_from_eta(sol, spec.hbar)
        free = classical_value(spec, grid, "forward")
        gap = stopped.value.values - free.value.values
        assert np.max(gap) <= 1e-6
        k = int(np.argmin(np.abs(grid.ts)))
        j = int(np.argmin(np.abs(grid.xs - 1.0)))
        assert -gap[k, j] == pytest.approx(0.0891351458, abs=2e-3)

    @pytest.mark.parametrize("orientation,oracle", [
        ("forward", sec7_classical_eta),
        ("backward", sec7_classical_eta_star),
    ])
    def test_oracle_agreement(self, orientation, oracle):
        # the band schedule of the sec7 oracle check: the relative error of U
        # node by node over BAND on the rows nearest SLICE_TIMES, at its
        # gate; 5.4e-3 forward and 4.6e-3 backward at this resolution
        spec = make_spec()
        grid = build_grid(spec, 301, 501)
        band = ((np.abs(grid.xs) >= BAND[0] - 1e-12)
                & (np.abs(grid.xs) <= BAND[1] + 1e-12))
        rows = sorted(set(grid.nearest_row(SLICE_TIMES).tolist()))
        u = classical_value(spec, grid, orientation).value.values[rows][:, band]
        ref = np.array([[-math.log(oracle(grid.ts[k], x, 1.0, 1.0))
                         for x in grid.xs[band]] for k in rows])
        err = np.max(np.abs(u - ref) / np.abs(ref))
        assert err <= BAND_TOL, err


class TestErrors:
    # at 101 x 21 nodes 1 + dt V / hbar is -0.05 at V = -21 and 0.005 at
    # V = -19.9; the diagonal stays positive on both sides, but only the
    # second step matrix is an M-matrix
    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    @pytest.mark.parametrize("value, solves", [
        (-21.0, False), (-20.5, False), (-20.0, True), (-19.9, True)])
    def test_potential_near_the_m_matrix_limit(self, orientation, value, solves):
        spec = make_spec(potential=function_from_spec(
            {"name": "constant", "value": value}))
        grid = build_grid(spec, 101, 21)
        solve = (solve_forward_obstacle if orientation == "forward"
                 else solve_backward_obstacle)
        if not solves:
            with pytest.raises(ValueError, match="not an M-matrix"):
                solve(spec, grid)
            return
        sol = solve(spec, grid)
        assert np.max(np.abs(lcp_residual(sol, spec).values)) <= LCP_TOL

    def test_negative_potential_blowup_rejected(self):
        spec = make_spec(potential=lambda x: -1e6 * np.ones_like(np.asarray(x, float)))
        grid = build_grid(spec, 31, 11)
        with pytest.raises(ValueError, match="diag"):
            solve_forward_obstacle(spec, grid)

    def test_unbounded_cost_rejected(self):
        spec = make_spec(terminal_cost=lambda x: -1e4 * np.abs(x))
        grid = build_grid(spec, 31, 11)
        with pytest.raises(ValueError, match="positive"):
            solve_forward_obstacle(spec, grid)

    def test_step_cap_carries_every_solve_residual(self, monkeypatch):
        # the first step starts from the all-active data row and needs a
        # second solve, which a cap of one solve forbids
        monkeypatch.setattr(hjb, "_MAX_SOLVES", 1)
        spec = make_spec()
        grid = build_grid(spec, 101, 51)
        with pytest.raises(ConvergenceError) as exc:
            solve_forward_obstacle(spec, grid)
        trace = exc.value.residual_trace
        assert len(trace) == 1
        assert all(math.isfinite(r) and r > LCP_TOL for r in trace)
        assert f"last residual {trace[-1]:.3g}" in str(exc.value)


class TestActiveSet:
    @pytest.mark.parametrize("cost,mean_solves", [
        # every node degenerate: eta = obstacle with a zero multiplier
        ({"name": "constant", "value": 0.5}, 1.0),
        # psi_0 / psi_1 = exp(2 dx) > 1 at x_min
        ({"name": "linear", "slope": 2.0}, 1.002),
        # the obstacle rises to the x_max edge
        ({"name": "quadratic", "center": 2.9}, 1.042),
    ])
    @pytest.mark.parametrize("solve", [solve_forward_obstacle,
                                       solve_backward_obstacle])
    def test_registered_costs_reach_the_gate(self, cost, mean_solves, solve):
        f = function_from_spec(cost)
        spec = make_spec(terminal_cost=f, initial_cost=f)
        grid = build_grid(spec, 301, 501)
        sol = solve(spec, grid)
        assert np.max(np.abs(lcp_residual(sol, spec).values)) <= LCP_TOL
        assert sol.step_solves.size == grid.nt - 1
        assert sol.psor_sweeps == sol.step_solves.sum()
        assert sol.step_solves.mean() <= mean_solves + 1e-9
        psi = np.exp(-f(grid.xs))
        e = sol.eta.values
        assert np.all(e >= psi * (1 - 1e-12))
        # the far-field rows, which lcp_residual scores as well:
        # e_0 = max(psi_0, r e_1), mirrored at x_max
        _, _, ab = hjb._operator(spec, grid, sol.orientation)
        assert np.allclose(e[:, 0], np.maximum(psi[0], -ab[0, 1] * e[:, 1]),
                           rtol=1e-12, atol=0)
        assert np.allclose(e[:, -1], np.maximum(psi[-1], -ab[2, -2] * e[:, -2]),
                           rtol=1e-12, atol=0)

    def test_ratio_capped_where_m_matrix_fails(self):
        # psi_0 / psi_1 = exp(0.4) at dt = 0.5, dx = 0.2: the raw far-field
        # row leaves the step matrix without positive pivots
        spec = make_spec(terminal_cost=function_from_spec(
            {"name": "linear", "slope": 2.0}))
        grid = build_grid(spec, 31, 3)
        _, psi, ab = hjb._operator(spec, grid, "forward")
        assert ab[0, 1] == -1.0 and ab[2, -2] == -psi[-1] / psi[-2]
        assert min(lu_pivots(ab)) > 0
        ab[0, 1] = -psi[0] / psi[1]
        assert min(lu_pivots(ab)) <= 0
        sol = solve_forward_obstacle(spec, grid)
        assert np.max(np.abs(lcp_residual(sol, spec).values)) <= LCP_TOL
        e = sol.eta.values[0]
        assert e[0] == pytest.approx(max(psi[0], e[1]), rel=1e-12)

    @pytest.mark.parametrize("nx,nt", [(151, 251), (201, 401), (241, 801)])
    def test_backward_edges_not_floored_on_coarse_grids(self, nx, nt):
        # the far-field row keeps the x = +-3 edge nodes above the obstacle,
        # so only the x = 0 column is stopped
        spec = make_spec()
        sol = solve_backward_obstacle(spec, build_grid(spec, nx, nt))
        cols, full, exact = stopping_columns(sol)
        assert exact and full, cols


def nodewise_residual(sol, spec, grid):
    """Reference, one solved row at a time in marching order: at every
    solved node, min(A e - b, e - psi) over max(|b_i|, psi_i, |e_i|), with
    A e taken from the three bands of the step matrix."""
    _, psi, ab = hjb._operator(spec, grid, sol.orientation)
    eta = core._marching_rows(sol.orientation, sol.eta.values)
    out = np.zeros(eta.shape)
    for k in range(grid.nt - 1):
        e, b = eta[k], eta[k + 1].copy()
        b[[0, -1]] = 0.0
        r = ab[1] * e - b
        r[:-1] += ab[0, 1:] * e[1:]
        r[1:] += ab[2, :-1] * e[:-1]
        scale = np.maximum(np.maximum(np.abs(b), psi), np.abs(e))
        out[k] = np.minimum(r, e - psi) / scale
    return core._marching_rows(sol.orientation, out)


def base_doc(**kw):
    return dict({"half_horizon": 0.5, "x_min": -3.0, "x_max": 3.0}, **kw)


class TestNodewiseScale:
    """Each node of an obstacle step is judged on its own scale. On these
    two specs a step judged against its row's largest eta stopped while
    nodes where eta is many orders smaller were still wrong, and the
    stopped value then exceeded the fixed-horizon one (by 3.6e-2 and
    4.6e-3)."""

    SPECS = [
        (base_doc(hbar=0.076, potential={"name": "quadratic", "scale": 1.57},
                  terminal_cost={"name": "linear", "slope": 1.47},
                  initial_cost={"name": "constant", "value": 0.32}), 121, 41),
        (base_doc(hbar=0.121, potential={"name": "abs", "scale": 0.69},
                  terminal_cost={"name": "abs", "scale": 2.2},
                  initial_cost="log1p_abs"), 201, 101),
    ]

    @pytest.mark.parametrize("doc, nx, nt", SPECS)
    def test_dominance(self, doc, nx, nt):
        spec = ProblemSpec.from_json(doc)
        grid = build_grid(spec, nx, nt)
        stopped = value_from_eta(solve_forward_obstacle(spec, grid), spec.hbar)
        free = classical_value(spec, grid, "forward")
        assert np.max(stopped.value.values - free.value.values) <= DOMINANCE_TOL

    @pytest.mark.parametrize("doc, nx, nt", SPECS)
    def test_nodewise_residual(self, doc, nx, nt):
        spec = ProblemSpec.from_json(doc)
        grid = build_grid(spec, nx, nt)
        sol = solve_forward_obstacle(spec, grid)
        ref = nodewise_residual(sol, spec, grid)
        assert np.max(np.abs(ref)) <= LCP_TOL
        # the gate reads what the solver judges
        assert np.array_equal(lcp_residual(sol, spec).values, ref)

    @pytest.mark.parametrize("solve", [solve_forward_obstacle,
                                       solve_backward_obstacle])
    def test_blocks_of_rows_score_as_single_rows(self, solve):
        # 200 solved rows of 121 nodes in blocks of 67: the last block is
        # shorter, and every bit is the reference's
        spec = make_spec()
        grid = build_grid(spec, 121, 201)
        rows = hjb._RESIDUAL_CELLS // grid.nx
        assert (grid.nt - 1) // rows >= 2 and (grid.nt - 1) % rows
        sol = solve(spec, grid)
        assert np.array_equal(lcp_residual(sol, spec).values,
                              nodewise_residual(sol, spec, grid))


def rowwise_march(nt, data, psi, ab):
    """Reference for ``hjb._march``, one row at a time: each step starts
    from the set the step above ended with, solves a fresh right-hand side,
    and judges that one row before the next is solved."""
    eta = np.empty((nt, data.size))
    eta[-1] = data
    active, changed, solves = data <= psi, True, []
    for k in range(nt - 2, -1, -1):
        b = eta[k + 1].copy()
        b[[0, -1]] = 0.0
        n, trace = 0, []
        while True:
            if changed:
                lu = core._factor_step(core._pin_rows(ab.copy(), active))
            e = core._solve_step(lu, np.where(active, psi, b))
            mult = core._step_residual(ab, e, b)
            new, n = mult + (psi - e) > 0, n + 1
            changed = not np.array_equal(new, active)
            if not changed:
                break
            trace.append(float(np.max(np.abs(hjb._scaled_residual(mult, e, b, psi)))))
            if trace[-1] <= hjb._STOP_TOL:
                break
            if n == hjb._MAX_SOLVES:
                raise ConvergenceError(
                    f"active-set step did not settle in {hjb._MAX_SOLVES} solves "
                    f"(last residual {trace[-1]:.3g})", residual_trace=trace)
            active = new
        if not np.all(e > 0):
            raise ConvergenceError("nonpositive eta produced; check dt/dx "
                                   "ratio and that the potential is bounded below")
        eta[k], active = e, new
        solves.append(n)
    return eta, np.array(solves)


def assert_marches_agree(nt, data, psi, ab):
    """``hjb._march`` and ``rowwise_march`` give the same eta and solves
    bit for bit, or raise the same error with the same residual trace.
    Returns the error, if any."""
    outcomes = []
    for march in (hjb._march, rowwise_march):
        try:
            outcomes.append(march(nt, data, psi, ab))
        except ConvergenceError as exc:
            outcomes.append(exc)
    got, ref = outcomes
    if isinstance(ref, ConvergenceError):
        assert isinstance(got, ConvergenceError), "the block march did not raise"
        assert str(got) == str(ref)
        assert got.residual_trace == ref.residual_trace
        return ref
    assert not isinstance(got, ConvergenceError), got
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1]) and got[1].dtype == ref[1].dtype
    return None


def march_inputs(spec, grid, orientation):
    _, psi, ab = hjb._operator(spec, grid, orientation)
    return grid.nt, psi, psi, ab


class TestBlockMarch:
    """``hjb._march`` solves a block of rows with the set the row above
    ended with and judges them at once; every bit, solve count and error is
    that of the row-by-row march."""

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    @pytest.mark.parametrize("nx, nt", [(121, 201), (601, 2001)])
    def test_worked_example(self, orientation, nx, nt):
        spec = make_spec()
        assert assert_marches_agree(*march_inputs(
            spec, build_grid(spec, nx, nt), orientation)) is None

    @pytest.mark.parametrize("cost", [
        {"name": "constant", "value": 0.5},
        {"name": "linear", "slope": 2.0},
        # its set changes on rows 0, 1, 3, 7, 12, 19, ...: at every place
        # in a block, and on consecutive rows
        {"name": "quadratic", "center": 2.9},
    ])
    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_active_set_costs(self, cost, orientation):
        f = function_from_spec(cost)
        spec = make_spec(terminal_cost=f, initial_cost=f)
        assert assert_marches_agree(*march_inputs(
            spec, build_grid(spec, 301, 501), orientation)) is None

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_classical(self, orientation):
        # classical_value's march: an obstacle of 0 never binds
        spec = make_spec()
        nt, data, _, ab = march_inputs(spec, build_grid(spec, 301, 501), orientation)
        assert assert_marches_agree(nt, data, np.zeros(data.size), ab) is None

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_one_solved_row(self, orientation):
        spec = make_spec()
        assert assert_marches_agree(*march_inputs(
            spec, build_grid(spec, 121, 2), orientation)) is None

    @pytest.mark.parametrize("cap", [1, 2])
    def test_step_cap(self, monkeypatch, cap):
        # the quadratic cost's first step takes 3 solves, and 19 more take 2
        monkeypatch.setattr(hjb, "_MAX_SOLVES", cap)
        f = function_from_spec({"name": "quadratic", "center": 2.9})
        spec = make_spec(terminal_cost=f, initial_cost=f)
        exc = assert_marches_agree(*march_inputs(
            spec, build_grid(spec, 301, 501), "forward"))
        assert "did not settle" in str(exc) and len(exc.residual_trace) == cap

    # marching indices of the broken row: the first, inside the first
    # blocks, deep inside a full block of 67 rows, and the last. Its node
    # x = 0 is set to 0: on the obstacle, where it is pinned, that changes
    # the row's set; with no obstacle (as in classical_value), and
    # dt (hbar / 2) / dx^2 = 1/4, it leaves the set as it was
    @pytest.mark.parametrize("row", [0, 1, 2, 10, 100, -1])
    @pytest.mark.parametrize("obstacle, nt", [(True, 201), (False, 801)])
    def test_nonpositive_row(self, monkeypatch, row, obstacle, nt):
        # from the first solve of that row on (found by its right-hand side
        # in the reference march), every solve returns 0 at x = 0
        spec = make_spec()
        nt, data, psi, ab = march_inputs(spec, build_grid(spec, 121, nt), "forward")
        if not obstacle:
            psi = np.zeros(data.size)
        row %= nt - 1
        real, rhs = core._solve_step, []

        def recording(lu, b, **kw):
            rhs.append(b.copy())
            return real(lu, b, **kw)
        monkeypatch.setattr(core, "_solve_step", recording)
        _, solves = rowwise_march(nt, data, psi, ab)
        target = rhs[int(solves[:row].sum())]
        broken = [False]

        def breaking(lu, b, **kw):
            broken[0] = broken[0] or np.array_equal(b, target)
            x = real(lu, b, **kw)
            if broken[0]:
                x[60] = 0.0
            return x
        monkeypatch.setattr(core, "_solve_step", breaking)
        raised = []
        for march in (hjb._march, rowwise_march):
            broken[0] = False
            with pytest.raises(ConvergenceError) as exc:
                march(nt, data, psi, ab)
            tb = exc.value.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            assert tb.tb_frame.f_code is march.__code__
            raised.append((tb.tb_frame.f_locals["k"], str(exc.value),
                           exc.value.residual_trace))
        assert raised[0] == raised[1]
        assert raised[0][0] == nt - 2 - row  # the broken row, in time order
        assert raised[0][1].startswith("nonpositive eta")


#: parameter ranges of the registry's functions in drawn specs, chosen
#: before the property was first run
PARAM_RANGES = {"scale": (0.0, 3.0), "center": (-2.0, 2.0),
                "slope": (-2.0, 2.0), "intercept": (-1.0, 1.0),
                "value": (-1.0, 1.0)}


def function_docs(nonnegative):
    """Function documents drawn from ``core.FUNCTION_REGISTRY`` by its
    builders' signatures; with ``nonnegative``, only functions >= 0: no
    ``linear``, and a ``constant`` value >= 0."""
    ranges = dict(PARAM_RANGES, value=(0.0, 1.0)) if nonnegative else PARAM_RANGES
    names = sorted(set(FUNCTION_REGISTRY) - ({"linear"} if nonnegative else set()))

    def doc(name):
        params = inspect.signature(FUNCTION_REGISTRY[name]).parameters
        return st.fixed_dictionaries({p: st.floats(*ranges[p]) for p in params}
                                     ).map(lambda kw: {"name": name, **kw})
    return st.sampled_from(names).flatmap(doc)


def random_specs(test):
    """``test`` on 40 derandomized specs drawn from the function registry
    with potentials >= 0, with a grid of 61 or 121 by 21 or 41 nodes."""
    return settings(max_examples=40, deadline=None, derandomize=True)(given(
        hbar=st.floats(math.log(0.05), math.log(2.0)).map(math.exp),
        potential=function_docs(nonnegative=True),
        terminal_cost=function_docs(nonnegative=False),
        initial_cost=function_docs(nonnegative=False),
        nx=st.sampled_from([61, 121]), nt=st.sampled_from([21, 41]))(test))


class TestRandomSpecs:
    """Properties every spec satisfies, on ``random_specs``, in both
    orientations: the complementarity gate, scored bit for bit as
    ``nodewise_residual`` scores it, eta >= psi, dominance of the
    fixed-horizon value, the obstacle and fixed-horizon marches equal to
    ``rowwise_march`` bit for bit, and the duality of the survival march
    and the killed density."""

    @random_specs
    def test_obstacle_properties(self, hbar, potential, terminal_cost,
                                 initial_cost, nx, nt):
        doc = base_doc(hbar=hbar, potential=potential,
                       terminal_cost=terminal_cost, initial_cost=initial_cost)
        note(json.dumps({"experiment": "sec7-classical-compare", "spec": doc,
                         "nx": nx, "nt": nt}))
        spec = ProblemSpec.from_json(doc)
        grid = build_grid(spec, nx, nt)
        for orientation, solve in (("forward", solve_forward_obstacle),
                                   ("backward", solve_backward_obstacle)):
            sol = solve(spec, grid)
            res = lcp_residual(sol, spec).values
            assert np.array_equal(res, nodewise_residual(sol, spec, grid))
            assert np.max(np.abs(res)) <= LCP_TOL
            psi = np.exp(-sol.stopping_cost / spec.hbar)
            assert np.all(sol.eta.values >= psi * (1 - 1e-12))
            stopped = value_from_eta(sol, spec.hbar)
            free = classical_value(spec, grid, orientation)
            assert (np.max(stopped.value.values - free.value.values)
                    <= DOMINANCE_TOL)

    @random_specs
    def test_march_matches_rowwise(self, hbar, potential, terminal_cost,
                                   initial_cost, nx, nt):
        doc = base_doc(hbar=hbar, potential=potential,
                       terminal_cost=terminal_cost, initial_cost=initial_cost)
        note(json.dumps({"experiment": "sec7-classical-compare", "spec": doc,
                         "nx": nx, "nt": nt}))
        spec = ProblemSpec.from_json(doc)
        grid = build_grid(spec, nx, nt)
        for orientation in ("forward", "backward"):
            cost = (spec.terminal_cost if orientation == "forward"
                    else spec.initial_cost)
            if np.any(np.exp(-cost(grid.xs) / spec.hbar) == 0):
                continue  # the obstacle underflows: no march
            steps, data, psi, ab = march_inputs(spec, grid, orientation)
            assert_marches_agree(steps, data, psi, ab)
            assert_marches_agree(steps, data, np.zeros(nx), ab)

    @random_specs
    def test_survival_pairs_with_the_killed_density(
            self, hbar, potential, terminal_cost, initial_cost, nx, nt):
        # sum_j q[k, j] rho[k, j] is constant in marching order up to the
        # threshold's row, for q and rho on the same solve's drift and mask,
        # at any cell Peclet number
        doc = base_doc(hbar=hbar, potential=potential,
                       terminal_cost=terminal_cost, initial_cost=initial_cost)
        spec = ProblemSpec.from_json(doc)
        grid = build_grid(spec, nx, nt)
        row = nt // 2
        threshold = float(grid.ts[row])
        note(json.dumps({"experiment": "stopping-dist", "spec": doc, "nx": nx,
                         "nt": nt, "thresholds": [threshold]}))
        for orientation, solve in (("forward", solve_forward_obstacle),
                                   ("backward", solve_backward_obstacle)):
            cost = (spec.terminal_cost if orientation == "forward"
                    else spec.initial_cost)
            if np.any(np.exp(-cost(grid.xs) / spec.hbar) == 0):
                # the obstacle underflows on the grid, and the solve refuses
                # the spec: there is no q and no rho to pair
                with pytest.raises(ValueError, match="strictly positive"):
                    solve(spec, grid)
                continue
            val = value_from_eta(solve(spec, grid), spec.hbar)
            q = stopping.solve_q(stopping.SurvivalProblem(
                orientation=orientation, threshold=threshold, drift=val.drift,
                mask=val.mask, hbar=spec.hbar)).q.values
            rho = stopping.fokker_planck(orientation, val.drift, val.mask,
                                         np.full(nx, 1 / nx), spec.hbar).values
            at = row if orientation == "forward" else nt - 1 - row
            pairing = core._marching_rows(orientation,
                                          np.sum(q * rho, axis=1))[:at + 1]
            assert np.max(np.abs(pairing - pairing[0])) <= 1e-12
