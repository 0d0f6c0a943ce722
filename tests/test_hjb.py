import math

import numpy as np
import pytest

from bernstein.core import (
    CONTINUATION,
    STOPPING,
    ProblemSpec,
    ScalarField,
    build_grid,
)
from bernstein.hjb import (
    SolverConfig,
    classical_value,
    lcp_residual,
    solve_backward_obstacle,
    solve_forward_obstacle,
    value_from_eta,
)
from bernstein.analytic import (
    sec7_classical_eta,
    sec7_classical_eta_star,
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


class TestSolverConfig:
    def test_from_json(self):
        cfg = SolverConfig.from_json('{"psor_tol": 1e-9, "psor_omega": 1.2}')
        assert cfg.psor_tol == 1e-9 and cfg.psor_omega == 1.2

    def test_omega_range(self):
        with pytest.raises(ValueError):
            SolverConfig(psor_omega=2.5)

    def test_unknown_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            SolverConfig(boundary="periodic")


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
        fake = type(sol)(eta=eta, mask=sol.mask, boundary=sol.boundary,
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
        assert np.allclose(bwd.eta.values, fwd.eta.values[::-1], atol=1e-9)


class TestLcpResidual:
    def test_converged_run_small(self, medium_forward):
        spec, grid, sol = medium_forward
        res = lcp_residual(sol, spec, grid)
        assert np.max(np.abs(res.values)) <= 10 * SolverConfig().psor_tol

    def test_obstacle_everywhere_is_zero(self):
        spec = make_spec(terminal_cost=zero)
        grid = build_grid(spec, 31, 11)
        sol = solve_forward_obstacle(spec, grid)
        res = lcp_residual(sol, spec, grid)
        assert np.max(np.abs(res.values)) <= 1e-12

    def test_perturbation_spikes_locally(self, medium_forward):
        spec, grid, sol = medium_forward
        bumped = sol.eta.values.copy()
        k, j = grid.nt // 2, int(np.argmin(np.abs(grid.xs - 1.5)))
        bumped[k, j] += 1.0
        fake = type(sol)(eta=ScalarField(grid, bumped), mask=sol.mask,
                         boundary=sol.boundary, orientation="forward",
                         stopping_cost=sol.stopping_cost)
        res = lcp_residual(fake, spec, grid)
        assert abs(res.values[k, j]) > 1.0
        assert abs(res.values[k, j - 5]) < 1e-3


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
        # relative error of U in the infinity norm over the band
        # 0.1 <= |x| <= 2.5, every fifth row; 1.2e-3 forward and 8.7e-3
        # backward at this resolution
        spec = make_spec()
        grid = build_grid(spec, 151, 126)
        band = (np.abs(grid.xs) >= 0.1) & (np.abs(grid.xs) <= 2.5)
        val = classical_value(spec, grid, orientation)
        u = val.value.values[::5][:, band]
        ref = np.array([[-math.log(oracle(t, x, 1.0, 1.0)) for x in grid.xs[band]]
                        for t in grid.ts[::5]])
        assert np.max(np.abs(u - ref)) / np.max(np.abs(ref)) <= 1e-2


class TestErrors:
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

    def test_obstacle_boundary_mode_runs(self):
        spec = make_spec()
        grid = build_grid(spec, 101, 51)
        sol = solve_forward_obstacle(spec, grid, SolverConfig(boundary="obstacle"))
        psi = np.exp(-np.abs(grid.xs))
        assert np.allclose(sol.eta.values[:, 0], psi[0])
