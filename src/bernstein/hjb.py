"""Finite-difference solvers for the forward and backward free-boundary
value problems.

The nonlinear equations are linearized exactly by the exponential transform
eta = exp(-U/hbar), which turns each problem into a linear complementarity
(obstacle) problem for a heat operator with potential. Time stepping is
implicit Euler, ``core._step_matrix`` with drift 0; each step is solved
directly by the primal-dual active-set method (Hintermueller, Ito & Kunisch,
SIAM J. Optim. 2003), almost always in one tridiagonal solve, so results are
deterministic. ``_march`` takes the steps a block of rows at a time, with
the result of the step taken row by row, bit for bit. The truncation edges
carry the data-ratio far-field row e_0 = max(psi_0, e_1 psi_0 / psi_1),
mirrored at x_max, and are rows of the LCP like any other: the solver and
``lcp_residual`` both score them. Nothing here is tunable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
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

#: An active-set step also stops once every node's scaled complementarity
#: residual (``_scaled_residual``) is at most this, as round-off alone flips
#: degenerate nodes (eta = psi, zero multiplier).
_STOP_TOL = 1e-12
_MAX_SOLVES = 50  # per time step, then ConvergenceError
#: nodes whose residual is taken at once, a few rows' worth (at least
#: one): ``lcp_residual``'s working arrays stay a small fraction of the
#: field it returns, and a block that ``_march`` judges spreads its numpy
#: calls over many short rows but wastes few long ones when a set changes
_RESIDUAL_CELLS = 8192


@dataclass(frozen=True)
class EtaSolution:
    """Solved transformed field with its region mask."""

    eta: ScalarField
    mask: RegionMask
    step_solves: np.ndarray  # banded solves per step, marching order
    orientation: str = FORWARD
    stopping_cost: np.ndarray = None  # S (or S*) sampled on xs

    @property
    def boundary(self) -> list:
        """The free boundary of each time row: the midpoints between
        neighbouring nodes that the mask classifies differently."""
        xs, flags = self.mask.grid.xs, self.mask.flags
        rows, cuts = np.nonzero(np.diff(flags))
        mids = 0.5 * (xs[cuts] + xs[cuts + 1])
        return np.split(mids, np.searchsorted(rows, np.arange(1, len(flags))))

    @property
    def psor_sweeps(self) -> int:
        """Total banded solves of the march, under the name ``bench/``
        reads."""
        return int(np.sum(self.step_solves))


@dataclass(frozen=True)
class ValueSolution:
    value: ScalarField
    drift: ScalarField
    mask: RegionMask
    orientation: str = FORWARD


def _operator(spec: ProblemSpec, grid: SpaceTimeGrid, orientation: str):
    """The orientation's stopping cost on the nodes, its obstacle
    psi = exp(-cost/hbar), and the implicit step matrix: ``core._step_matrix``
    with drift 0 and the potential, whose two edge rows are overwritten by
    the far-field rows e_0 - r e_1 (mirrored at x_max) with right-hand side
    0, where r = psi_0 / psi_1, capped at 1 where it would cost the step
    matrix its M-matrix property. A potential so negative that the step
    matrix is no M-matrix even so raises."""
    hbar = spec.hbar
    cost = spec.terminal_cost if orientation == FORWARD else spec.initial_cost
    svals = np.asarray(cost(grid.xs), dtype=float)
    with np.errstate(over="ignore"):
        psi = np.exp(-svals / hbar)
    if np.any(psi <= 0) or not np.all(np.isfinite(psi)):
        raise ValueError("obstacle exp(-cost/hbar) must be strictly positive")
    ab = core._step_matrix(np.zeros(grid.nx), hbar, grid.dt, grid.dx,
                           spec.potential(grid.xs))
    ab[1, [0, -1]] = 1.0
    ab[0, 1], ab[2, -2] = -psi[0] / psi[1], -psi[-1] / psi[-2]

    def bad_pivot():
        # an M-matrix iff every LU pivot is positive; the symmetric matrix
        # with the same off-diagonal products has the same pivots, and
        # dpttrf returns 1 + the row of the first one <= 0
        from scipy.linalg import lapack
        return lapack.dpttrf(ab[1], -np.sqrt(ab[0, 1:] * ab[2, :-1]))[2]
    if bad_pivot():
        ab[0, 1], ab[2, -2] = max(ab[0, 1], -1.0), max(ab[2, -2], -1.0)
        if bad_pivot():
            raise ValueError(
                "potential too negative for this time step: the LU pivot (the "
                f"diagonal after elimination) of row {bad_pivot() - 1} of the "
                "step matrix is <= 0, so it is not an M-matrix")
    return svals, psi, ab


def _scaled_residual(mult, e, b, psi):
    """min(A e - b, e - psi) at each node, given mult = A e - b, over that
    node's own scale max(|b_i|, psi_i, |e_i|), so a node where eta is many
    orders below its neighbours is judged as strictly as any other. The
    |e_i| keeps the scale positive where psi = 0 (``classical_value``) and
    where b = 0 (the far-field rows)."""
    return np.minimum(mult, e - psi) / np.maximum(np.maximum(np.abs(b), psi),
                                                  np.abs(e))


def _rows_lcp(ab, eta, lo, hi):
    """Rows lo to hi - 1 of ``eta`` (marching order) as rows of the LCP:
    their multipliers A e - b and their right-hand sides b, each the row
    after it with 0 on the far-field rows."""
    b = eta[lo + 1:hi + 1].copy()
    b[:, [0, -1]] = 0.0
    return core._step_residual(ab, eta[lo:hi], b), b


def _march(nt, data, psi, ab):
    """Implicit Euler march of nt rows down from the data row, the last one
    (``core._marching_rows``), of the LCP A e >= b, e >= psi, complementary,
    b being the previous row with 0 on the far-field rows (``_rows_lcp``).

    The step: from the previous step's active set (at first
    {data <= psi}), solve with the active rows pinned to psi, then set
    new = {A e - b + psi - e > 0}. The step ends when new repeats the set
    just solved with; else when every node's scaled complementarity
    residual (``_scaled_residual``, taken only then) is at most _STOP_TOL;
    else it solves again with new, refactoring the step matrix as the set
    changed.

    The march is one loop over blocks of rows, each solved in place, row by
    row, on one factorisation for the set the row above ended with, then
    judged at once. The rows above the first one whose set changed or whose
    eta is not positive have ended their steps; so has that row if its step
    ends, else it is solved again as a block of one row. Blocks start at one
    row below a changed set and double up to _RESIDUAL_CELLS nodes. So eta,
    the solves and any error are those of the step taken row by row, bit for
    bit (``tests/test_hjb.py::rowwise_march`` is that step). Returns eta and
    the banded solves of each step, in marching order."""
    eta = np.empty((nt, data.size))
    eta[-1] = data
    solves = np.ones(nt - 1, dtype=int)
    active = data <= psi
    lu = core._factor_step(core._pin_rows(ab.copy(), active))
    top, size, cap = nt - 2, 1, max(1, _RESIDUAL_CELLS // data.size)
    trace = []  # of row top, solved again as a block of one
    while top >= 0:
        lo = max(top + 1 - size, 0)
        pinned = np.flatnonzero(active)
        at = psi[pinned]
        for k in range(top, lo - 1, -1):
            row = eta[k]
            row[:] = eta[k + 1]
            row[0] = row[-1] = 0.0
            row[pinned] = at
            core._solve_step(lu, row, overwrite_b=True)
        mult, b = _rows_lcp(ab, eta, lo, top + 1)
        e = eta[lo:top + 1]
        new = mult + (psi - e) > 0
        held = np.all((new == active) & (e > 0), axis=1)
        if held.all():
            top, size, trace = lo - 1, min(2 * size, cap), []
            continue
        i = np.flatnonzero(~held)[-1]
        k, e = lo + i, e[i]
        if not np.array_equal(new[i], active):
            trace.append(float(np.max(np.abs(_scaled_residual(mult[i], e, b[i], psi)))))
            active = new[i]
            lu = core._factor_step(core._pin_rows(ab.copy(), active))
            if trace[-1] > _STOP_TOL:
                if solves[nt - 2 - k] == _MAX_SOLVES:
                    raise ConvergenceError(
                        f"active-set step did not settle in {_MAX_SOLVES} solves "
                        f"(last residual {trace[-1]:.3g})", residual_trace=trace)
                top, size = k, 1
                solves[nt - 2 - k] += 1
                continue
        if not np.all(e > 0):
            raise ConvergenceError("nonpositive eta produced; check dt/dx "
                                   "ratio and that the potential is bounded below")
        top, size, trace = k - 1, 1, []
    return eta, solves


def _solve_obstacle(spec: ProblemSpec, grid: SpaceTimeGrid,
                    orientation: str) -> EtaSolution:
    svals, psi, ab = _operator(spec, grid, orientation)
    eta, solves = _march(grid.nt, psi, psi, ab)
    field_ = ScalarField(grid, core._marching_rows(orientation, eta))
    return EtaSolution(eta=field_, mask=region_from_eta(field_, psi),
                       orientation=orientation, stopping_cost=svals,
                       step_solves=solves)


def solve_forward_obstacle(spec, grid):
    """March eta from t = T/2 down to -T/2 enforcing eta >= exp(-S/hbar)."""
    return _solve_obstacle(spec, grid, FORWARD)


def solve_backward_obstacle(spec, grid):
    """March eta* from t = -T/2 up to T/2 enforcing eta* >= exp(-S*/hbar)."""
    return _solve_obstacle(spec, grid, BACKWARD)


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
    value = np.log(eta)  # log(eta) until its drift is taken, then U
    sign = 1.0 if sol.orientation == FORWARD else -1.0
    drift = gradient_rows(value, grid.dx)
    drift *= sign * hbar
    value *= -hbar
    if sol.stopping_cost is not None:
        ds = gradient_rows(sol.stopping_cost, grid.dx)
        bc = -sign * ds  # forward: -dS/dx; backward: +dS*/dx
        np.copyto(drift, bc, where=sol.mask.flags == STOPPING)
    return ValueSolution(
        value=ScalarField(grid, value),
        drift=ScalarField(grid, drift),
        mask=sol.mask,
        orientation=sol.orientation,
    )


def lcp_residual(sol: EtaSolution, spec: ProblemSpec) -> ScalarField:
    """Nodewise scaled complementarity residual of a solved obstacle problem
    on its own grid.

    At every node of every solved row, min(row of A e - b, eta - psi)
    over the node's own scale, as the active-set step judges it
    (``_scaled_residual``): the heat-operator rows inside, and at the edges
    the far-field rows e_0 - r e_1 and their mirror at x_max, with
    right-hand side 0. The data row is not solved and reads 0. Rows are
    scored in blocks of about _RESIDUAL_CELLS nodes, each node by the same
    operations as one row at a time.
    """
    grid = sol.eta.grid
    _, psi, ab = _operator(spec, grid, sol.orientation)
    eta = core._marching_rows(sol.orientation, sol.eta.values)
    out = np.zeros_like(eta)
    step = max(1, _RESIDUAL_CELLS // grid.nx)
    for lo in range(0, grid.nt - 1, step):
        hi = min(lo + step, grid.nt - 1)
        mult, b = _rows_lcp(ab, eta, lo, hi)
        out[lo:hi] = _scaled_residual(mult, eta[lo:hi], b, psi)
    return ScalarField(grid, core._marching_rows(sol.orientation, out))


def classical_value(spec: ProblemSpec, grid: SpaceTimeGrid,
                    orientation: str) -> ValueSolution:
    """Fixed-horizon value function: same stepping with the obstacle disabled.

    Solves the pure terminal-value (or initial-value) problem through the
    exponential transform; every node is CONTINUATION.
    """
    _, data, ab = _operator(spec, grid, orientation)
    # an obstacle of 0 never binds
    eta, solves = _march(grid.nt, data, np.zeros(grid.nx), ab)
    mask = RegionMask(grid, np.full((grid.nt, grid.nx), CONTINUATION, dtype=np.int8))
    sol = EtaSolution(eta=ScalarField(grid, core._marching_rows(orientation, eta)),
                      mask=mask, step_solves=solves, orientation=orientation)
    return value_from_eta(sol, spec.hbar)
