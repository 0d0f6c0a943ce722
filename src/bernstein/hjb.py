"""Finite-difference solvers for the forward and backward free-boundary
value problems.

The nonlinear equations are linearized exactly by the exponential transform
eta = exp(-U/hbar), which turns each problem into a linear complementarity
(obstacle) problem for a heat operator with potential. Time stepping is
implicit Euler; the obstacle constraint is enforced by projected SOR with a
fixed red-black sweep order, so results are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Literal

import numpy as np

from .core import (
    BACKWARD,
    CONTINUATION,
    FORWARD,
    STOPPING,
    ConvergenceError,
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
    gradient_rows,
    region_from_eta,
)

#: Truncation boundary treatments at x_min / x_max.
#:   "extrapolate" -- log-linear extrapolation from the two interior neighbors
#:                    (exact for the far-field exp(a x + c) profile), floored
#:                    at the obstacle.
#:   "obstacle"    -- Dirichlet eta = obstacle (far field treated as stopped).
BoundaryMode = Literal["extrapolate", "obstacle"]


@dataclass(frozen=True)
class SolverConfig:
    psor_tol: float = 1e-10
    psor_omega: float = 1.5
    psor_max_iter: int = 2000
    region_abs_tol: float = 1e-9
    region_rel_tol: float = 1e-8
    boundary: str = "extrapolate"

    def __post_init__(self):
        if not 0 < self.psor_omega < 2:
            raise ValueError("psor_omega must lie in (0, 2)")
        if self.psor_tol <= 0:
            raise ValueError("psor_tol must be positive")
        if self.boundary not in ("extrapolate", "obstacle"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @classmethod
    def from_json(cls, doc) -> "SolverConfig":
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        return cls(**doc)

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class EtaSolution:
    """Solved transformed field with region mask and free-boundary trace."""

    eta: ScalarField
    mask: RegionMask
    boundary: list = field(compare=False)
    orientation: str = FORWARD
    stopping_cost: np.ndarray = None  # S (or S*) sampled on xs
    psor_sweeps: int = 0


@dataclass(frozen=True)
class ValueSolution:
    value: ScalarField
    drift: ScalarField
    mask: RegionMask
    orientation: str = FORWARD


def _extrapolate_boundary(e, psi):
    # log-linear continuation of the interior profile, floored at the obstacle
    r0 = min(max(e[1] / e[2], 1e-3), 1e3)
    r1 = min(max(e[-2] / e[-3], 1e-3), 1e3)
    e[0] = max(psi[0], e[1] * r0)
    e[-1] = max(psi[-1], e[-2] * r1)


def _psor_step(rhs, psi, diag, lam, cfg: SolverConfig, warm):
    """Solve one implicit step of the LCP: A e >= rhs, e >= psi, complementary.

    A is tridiagonal with ``diag`` on the diagonal and -lam off it. Red-black
    projected SOR; stops on the scaled complementarity residual.
    """
    nx = rhs.size
    e = warm.copy()
    even = np.arange(2, nx - 1, 2)
    odd = np.arange(1, nx - 1, 2)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    omega = cfg.psor_omega
    for sweep in range(1, cfg.psor_max_iter + 1):
        if cfg.boundary == "extrapolate":
            _extrapolate_boundary(e, psi)
        else:
            e[0], e[-1] = psi[0], psi[-1]
        for idx in (even, odd):
            gs = (rhs[idx] + lam * (e[idx - 1] + e[idx + 1])) / diag[idx]
            e[idx] = np.maximum(psi[idx], (1 - omega) * e[idx] + omega * gs)
        r = diag[1:-1] * e[1:-1] - lam * (e[:-2] + e[2:]) - rhs[1:-1]
        res = float(np.max(np.abs(np.minimum(r, e[1:-1] - psi[1:-1]))))
        if res <= cfg.psor_tol * scale:
            return e, sweep
    raise ConvergenceError(
        f"projected SOR did not reach tol {cfg.psor_tol:g} in "
        f"{cfg.psor_max_iter} sweeps (last residual {res:.3g})",
        residual_trace=[res],
    )


def _free_boundary_trace(flags, xs):
    trace = []
    for row in flags:
        changes = np.nonzero(np.diff(row))[0]
        trace.append(0.5 * (xs[changes] + xs[changes + 1]))
    return trace


def _operator(spec: ProblemSpec, grid: SpaceTimeGrid, orientation: str):
    """The orientation's stopping cost on the nodes, its obstacle
    exp(-cost/hbar), and the implicit step matrix: ``diag`` on the diagonal
    and -lam off it."""
    hbar = spec.hbar
    cost = spec.terminal_cost if orientation == FORWARD else spec.initial_cost
    svals = np.asarray(cost(grid.xs), dtype=float)
    with np.errstate(over="ignore"):
        psi = np.exp(-svals / hbar)
    if np.any(psi <= 0) or not np.all(np.isfinite(psi)):
        raise ValueError("obstacle exp(-cost/hbar) must be strictly positive")
    vvals = np.asarray(spec.potential(grid.xs), dtype=float)
    lam = hbar * grid.dt / (2 * grid.dx * grid.dx)
    diag = 1.0 + grid.dt * vvals / hbar + 2 * lam
    if np.any(diag <= 0):
        raise ValueError("potential too negative for this time step (diag <= 0)")
    return svals, psi, diag, lam


def _rows(grid: SpaceTimeGrid, orientation: str):
    """(row, previous row) pairs in marching order, away from the data row."""
    if orientation == FORWARD:
        return [(k, k + 1) for k in range(grid.nt - 2, -1, -1)]
    return [(k, k - 1) for k in range(1, grid.nt)]


def _march(grid, orientation, data, obstacle, diag, lam, cfg: SolverConfig):
    """Implicit Euler march of the LCP from the data row; returns eta and
    the total PSOR sweeps."""
    eta = np.empty((grid.nt, grid.nx))
    eta[-1 if orientation == FORWARD else 0] = data
    sweeps = 0
    for k, kp in _rows(grid, orientation):
        e, sw = _psor_step(eta[kp], obstacle, diag, lam, cfg, warm=eta[kp])
        if np.any(e <= 0):
            raise ConvergenceError(
                "nonpositive eta produced; check dt/dx ratio and that the "
                "potential is bounded below"
            )
        eta[k] = e
        sweeps += sw
    return eta, sweeps


def _solve_obstacle(spec: ProblemSpec, grid: SpaceTimeGrid, cfg: SolverConfig,
                    orientation: str) -> EtaSolution:
    svals, psi, diag, lam = _operator(spec, grid, orientation)
    eta, sweeps = _march(grid, orientation, psi, psi, diag, lam, cfg)
    field_ = ScalarField(grid, eta)
    obstacle = ScalarField(grid, np.broadcast_to(psi, eta.shape).copy())
    mask = region_from_eta(field_, obstacle,
                           tol=cfg.region_rel_tol, abs_tol=cfg.region_abs_tol)
    return EtaSolution(
        eta=field_,
        mask=mask,
        boundary=_free_boundary_trace(mask.flags, grid.xs),
        orientation=orientation,
        stopping_cost=svals,
        psor_sweeps=sweeps,
    )


def solve_forward_obstacle(spec, grid, cfg: SolverConfig = SolverConfig()):
    """March eta from t = T/2 down to -T/2 enforcing eta >= exp(-S/hbar)."""
    return _solve_obstacle(spec, grid, cfg, FORWARD)


def solve_backward_obstacle(spec, grid, cfg: SolverConfig = SolverConfig()):
    """March eta* from t = -T/2 up to T/2 enforcing eta* >= exp(-S*/hbar)."""
    return _solve_obstacle(spec, grid, cfg, BACKWARD)


def value_from_eta(sol: EtaSolution, hbar: float) -> ValueSolution:
    """Recover the value function U = -hbar log(eta) and the optimal drift.

    Forward drift is -dU/dx, backward drift is +dU/dx. On stopping nodes the
    drift is replaced by the gradient of the stopping cost with the matching
    sign, per the drift boundary problems.
    """
    eta = sol.eta.values
    if np.any(eta <= 0):
        raise ValueError("eta must be strictly positive to take logarithms")
    grid = sol.eta.grid
    value = -hbar * np.log(eta)
    sign = 1.0 if sol.orientation == FORWARD else -1.0
    drift = sign * hbar * gradient_rows(np.log(eta), grid.dx)
    if sol.stopping_cost is not None:
        ds = gradient_rows(sol.stopping_cost, grid.dx)
        stop = sol.mask.flags == STOPPING
        bc = -sign * ds  # forward: -dS/dx; backward: +dS*/dx
        drift[stop] = np.broadcast_to(bc, drift.shape)[stop]
    return ValueSolution(
        value=ScalarField(grid, value),
        drift=ScalarField(grid, drift),
        mask=sol.mask,
        orientation=sol.orientation,
    )


def lcp_residual(sol: EtaSolution, spec: ProblemSpec, grid: SpaceTimeGrid) -> ScalarField:
    """Nodewise scaled complementarity residual of a solved obstacle problem.

    At each solved node, min(discrete operator residual, eta - obstacle),
    scaled by the step right-hand side. Boundary-condition rows/columns are
    zero by construction.
    """
    _, psi, diag, lam = _operator(spec, grid, sol.orientation)
    eta = sol.eta.values
    out = np.zeros_like(eta)
    for k, kp in _rows(grid, sol.orientation):
        e, b = eta[k], eta[kp]
        r = diag[1:-1] * e[1:-1] - lam * (e[:-2] + e[2:]) - b[1:-1]
        scale = max(1.0, float(np.max(np.abs(b))))
        out[k, 1:-1] = np.minimum(r, e[1:-1] - psi[1:-1]) / scale
    return ScalarField(grid, out)


def classical_value(spec: ProblemSpec, grid: SpaceTimeGrid, orientation: str,
                    cfg: SolverConfig = SolverConfig()) -> ValueSolution:
    """Fixed-horizon value function: same stepping with the obstacle disabled.

    Solves the pure terminal-value (or initial-value) problem through the
    exponential transform; every node is CONTINUATION.
    """
    _, data, diag, lam = _operator(spec, grid, orientation)
    # obstacle far below the solution: projection never binds
    eta, _ = _march(grid, orientation, data, np.full(grid.nx, 1e-300),
                    diag, lam, cfg)
    mask = RegionMask(grid, np.full((grid.nt, grid.nx), CONTINUATION, dtype=np.int8))
    sol = EtaSolution(eta=ScalarField(grid, eta), mask=mask, boundary=[],
                      orientation=orientation)
    return value_from_eta(sol, spec.hbar)
