"""Stopping-time distribution functions.

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
threshold slice and those past it from the labels
(0 or 1 without any PDE solve), then marches every slice before it in
full, with zero data on its stopping nodes: the march still solves the
nodes the labels settle. Each slice is one implicit step with
``core._step_matrix`` (upwinded drift, reflecting edges, an M-matrix, so
the discrete maximum principle holds), its stopping nodes pinned by
``core._pin_rows``; ``simulate.fokker_planck`` steps a density with the
transpose of the same matrix.
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


def solve_q(problem: SurvivalProblem) -> SurvivalSolution:
    """Solve for the survival function on the full grid.

    In marching order, the threshold slice and those past it take their
    ``_closed_form`` values; every slice before it is marched down in full,
    the backward march against the drift. Each slice is factored and solved
    by ``core._factor_step`` and ``core._solve_step``. Maximum principle
    violations beyond ``_MAX_PRINCIPLE_TOL`` raise, values within it are
    clamped to [0, 1].
    """
    grid, orientation = problem.mask.grid, problem.orientation
    stop, codes, kT = _closed_form(problem.mask, orientation,
                                   grid.exact_row(problem.threshold))
    ts = core._marching_rows(orientation, grid.ts)
    q = np.empty(stop.shape)
    q[kT:] = codes[kT:]
    sign = 1.0 if orientation == FORWARD else -1.0
    drift = core._marching_rows(orientation, problem.drift.values)
    low, high = math.inf, -math.inf
    for k in range(kT - 1, -1, -1):
        lu = core._factor_step(core._pin_rows(core._step_matrix(
            sign * drift[k], problem.hbar, grid.dt, grid.dx), stop[k]))
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
