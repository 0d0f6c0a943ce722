"""Stopping-time distribution functions and the densities dual to them.

For the optimally stopped process, q(t, x) = P(stop time > threshold | state
x at time t) solves an advection-diffusion problem on the continuation
region with unit data on the threshold slice and zero data on the stopping
set; the mirrored backward function q*(t, x) = P(backward stop time <
threshold) is the same problem in marching order (``core._marching_rows``),
marched against the drift. ``_closed_form`` labels every node of the grid
at once from the region mask, and ``solve_q`` returns the labels as
``closed_form_region``: forward, ONE (1) where stopped strictly after the
threshold or continuing at or past it; ZERO (0) where stopped at or before
it, or continuing before it while no node continues at or past it; PDE (2)
otherwise. The backward rules are the time mirror. ``solve_q`` takes the
threshold slice and those past it from the labels, then marches every
slice before it in full, with zero data on its stopping nodes. Each slice
is one implicit step ``_step``: ``core._step_matrix`` (exponentially
fitted drift, second order in x at any cell Peclet number; reflecting
edges; an M-matrix, so the discrete maximum principle holds) with the
stopping nodes pinned by ``core._pin_rows``. ``fokker_planck``
steps the density of the process killed on the same mask, in either
orientation, with the transpose of the same step: LAPACK's transposed solve
on the step's own factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    BACKWARD,
    FORWARD,
    STOPPING,
    RegionMask,
    ScalarField,
    interpolate,
    mean_stderr,
)

#: a march value outside [-tol, 1 + tol] raises; values within are clamped
_MAX_PRINCIPLE_TOL = 1e-9


@dataclass(frozen=True)
class SurvivalProblem:
    orientation: str
    threshold: float
    drift: ScalarField  # optimal drift on the grid; unused on stopping nodes
    mask: RegionMask
    hbar: float

    def __post_init__(self):
        if self.orientation not in (FORWARD, BACKWARD):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        check_threshold(self.mask.grid.ts, self.threshold)
        if self.drift.grid != self.mask.grid:
            raise ValueError("the mask and the drift must share a grid")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")


def check_threshold(ts, threshold) -> None:
    """A ValueError unless ts[0] < threshold < ts[-1], for grid times ts."""
    if not ts[0] < threshold < ts[-1]:
        raise ValueError(f"threshold {threshold} must be strictly inside "
                         f"({ts[0]}, {ts[-1]})")


@dataclass(frozen=True)
class SurvivalSolution:
    q: ScalarField
    closed_form_region: np.ndarray  # ``_closed_form``: 0=ZERO, 1=ONE, 2=PDE
    threshold: float
    orientation: str
    #: [min, max] of the marched values before the clamp to [0, 1]; None
    #: when no slice was marched (a threshold on the row the march ends on)
    unclamped_range: tuple | None


def _closed_form(mask: RegionMask, orientation: str, row: int):
    """The case analysis of every node at once, in marching order
    (``core._marching_rows``, data row last), for the threshold on grid row
    ``row``: the stopping nodes, the codes 0 = ZERO, 1 = ONE, 2 = PDE, and
    the threshold's row in marching order. The rules are the forward ones
    in marching time s = t (forward) or s = -t (backward). Built from bool
    and int8 arrays alone."""
    at = row if orientation == FORWARD else mask.grid.nt - 1 - row
    stop = core._marching_rows(orientation, mask.flags == STOPPING)
    codes = np.full(stop.shape, 2, dtype=np.int8)
    codes[at + 1:] = 1  # stopped after the threshold, or continuing past it
    codes[at] = ~stop[at]  # on it: 1 continuing, 0 stopped
    # before it: 0 when stopped, and everywhere when nothing continues at
    # or past the threshold
    codes[:at][stop[:at] | stop[at:].all()] = 0
    return stop, codes, at


def _step(orientation: str, drift: ScalarField, stop, hbar: float, k: int):
    """Row k's implicit step in marching order: ``core._step_matrix`` at the
    drift's row k (negated backward), the nodes where ``stop[k]`` holds
    pinned by ``core._pin_rows``."""
    row = core._marching_rows(orientation, drift.values)[k]
    return core._pin_rows(core._step_matrix(
        row if orientation == FORWARD else -row, hbar, drift.grid.dt,
        drift.grid.dx), stop[k])


def solve_q(problem: SurvivalProblem) -> SurvivalSolution:
    """Solve for the survival function on the full grid.

    In marching order, the threshold slice and those past it take their
    ``_closed_form`` values; every slice before it is marched down in full
    by ``_step``. Maximum principle violations beyond
    ``_MAX_PRINCIPLE_TOL`` raise, values within it are clamped to [0, 1].
    """
    grid, orientation = problem.mask.grid, problem.orientation
    stop, codes, kT = _closed_form(problem.mask, orientation,
                                   grid.exact_row(problem.threshold))
    ts = core._marching_rows(orientation, grid.ts)
    q = np.empty(stop.shape)
    q[kT:] = codes[kT:]
    low, high = math.inf, -math.inf
    for k in range(kT - 1, -1, -1):
        lu = core._factor_step(_step(orientation, problem.drift, stop,
                                     problem.hbar, k))
        sol = core._solve_step(lu, np.where(stop[k], 0.0, q[k + 1]))
        lo, hi = float(np.min(sol)), float(np.max(sol))
        if lo < -_MAX_PRINCIPLE_TOL or hi > 1 + _MAX_PRINCIPLE_TOL:
            raise ValueError(
                f"maximum principle violated at t={ts[k]:.6g}: "
                f"range [{lo:.3g}, {hi:.3g}]"
            )
        low, high = min(low, lo), max(high, hi)
        q[k] = np.clip(sol, 0.0, 1.0)
    return SurvivalSolution(
        q=ScalarField(grid, core._marching_rows(orientation, q)),
        closed_form_region=core._marching_rows(orientation, codes),
        threshold=problem.threshold,
        orientation=orientation,
        unclamped_range=(low, high) if kT else None,
    )


def fokker_planck(orientation: str, drift: ScalarField, mask: RegionMask | None,
                  rho0, hbar: float) -> ScalarField:
    """Evolve d(rho)/ds = -d(b rho)/dx + (hbar/2) d2(rho)/dx2 from rho0,
    killed on the mask's stopping nodes, on the drift's grid: forward in
    s = t from its first row, backward in s = -t from its last (b negated).

    Row k's step solves with the transpose of ``_step`` (LAPACK's transposed
    solve on the factors ``solve_q`` solves with) and zeroes the mass on
    row k's stopping nodes, so sum_j q[k, j] rho[k, j] is the same on
    every row up to the threshold of ``solve_q``'s q on the same drift and
    mask. Without a mask (None) the edges reflect and mass is conserved.

    Row k (in marching order) holds the density before row k's kill, which
    the march applies on row k + 1. So from a unit mass at one node of the
    first row, the probability of stopping after t_k (forward; before t_k
    backward) is the sum of row k off row k's stopping nodes, which is
    ``solve_q``'s q at that node for the threshold t_k. The whole row's sum
    overstates it wherever the stopping set grows.
    """
    if np.any(np.asarray(rho0) < 0):
        raise ValueError("rho0 must be nonnegative")
    grid = drift.grid
    if mask is not None and mask.grid != grid:
        raise ValueError("the mask and the drift must share a grid")
    stop = (np.zeros((grid.nt, grid.nx), dtype=bool) if mask is None
            else core._marching_rows(orientation, mask.flags == STOPPING))
    out = np.empty((grid.nt, grid.nx))
    out[0] = rho0
    for k in range(grid.nt - 1):
        sol = core._solve_step(core._factor_step(
            _step(orientation, drift, stop, hbar, k)), out[k], trans="T")
        sol[stop[k]] = 0.0
        if np.min(sol) < -1e-12:
            raise ValueError(f"density undershoot {np.min(sol):.3g} below "
                             "the -1e-12 floor")
        out[k + 1] = np.maximum(sol, 0.0)
    return ScalarField(grid, core._marching_rows(orientation, out))


def martingale_check(solution: SurvivalSolution, ensemble, checkpoints) -> dict:
    """Check that q evaluated along stopped paths has constant mean.

    For each checkpoint c, compares the sample mean of q(c ^ stop_time,
    state) against q at the ensemble start; the difference should be within
    a few standard errors under the simulated law. States outside the
    grid's x range take q at the nearest edge node.
    """
    t0, x0 = ensemble.start
    q0 = interpolate(solution.q, t0, x0)
    rows = []
    for c in checkpoints:
        if c not in ensemble.checkpoints:
            raise ValueError(
                f"checkpoint {c} was not recorded during simulation"
            )
        tt, xx = ensemble.checkpoints[c]
        mean, stderr = mean_stderr(interpolate(solution.q, tt, xx))
        rows.append({
            "checkpoint": float(c),
            "mean": mean,
            "stderr": stderr,
            "difference": mean - q0,
            "within_3_stderr": bool(abs(mean - q0) <= 3 * max(stderr, 1e-300)),
        })
    return {"q_at_start": q0, "checkpoints": rows,
            "all_within_3_stderr": all(r["within_3_stderr"] for r in rows)}


def empirical_survival(ensemble, threshold: float) -> dict:
    """Monte Carlo counterpart of the survival function at the ensemble start.

    Forward: fraction of paths stopping strictly after the threshold.
    Backward: fraction stopping strictly before it. Binomial standard error.
    """
    sign = 1.0 if ensemble.orientation == FORWARD else -1.0
    hits = sign * ensemble.stop_time > sign * threshold
    p = float(np.mean(hits))
    return {"estimate": p, "stderr": math.sqrt(max(p * (1 - p), 1e-300) / hits.size)}
