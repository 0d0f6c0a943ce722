"""Stopping-time distribution functions.

For the optimally stopped process, q(t, x) = P(stop time > threshold | state
x at time t) solves an advection-diffusion problem on the continuation
region with unit data on the threshold slice and zero data on the stopping
set; the mirrored backward function q*(t, x) = P(backward stop time <
threshold) marches in the opposite direction. ``solve_q`` fills the slices
past the threshold and the threshold slice itself from the closed-form case
analysis (value 0 or 1 without any PDE solve), then marches every slice
before the threshold in full, with zero data on its stopping nodes; a node
the case analysis (``classify_lemma3``) settles is not skipped there. Each
slice is one implicit step with ``core._step_matrix`` (upwinded drift,
reflecting edges, an M-matrix, so the discrete maximum principle holds),
its stopping nodes pinned by ``core._pin_rows``; ``simulate.fokker_planck``
steps a density with the transpose of the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    BACKWARD,
    CONTINUATION,
    FORWARD,
    STOPPING,
    RegionMask,
    ScalarField,
    interpolate_clipped,
    mean_stderr,
)

ZERO, ONE, PDE = "ZERO", "ONE", "PDE"
_CODE = {ZERO: 0, ONE: 1, PDE: 2}
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
        ts = self.mask.grid.ts
        if not ts[0] < self.threshold < ts[-1]:
            raise ValueError(
                f"threshold {self.threshold} must be strictly inside "
                f"({ts[0]}, {ts[-1]})"
            )
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class SurvivalSolution:
    q: ScalarField
    closed_form_region: np.ndarray  # codes 0=ZERO, 1=ONE, 2=PDE per node
    threshold: float
    orientation: str
    #: [min, max] of the marched values before the clamp to [0, 1]; None
    #: when no slice was marched (a threshold on the horizon's first row)
    unclamped_range: tuple | None


def continuation_time_bounds(mask: RegionMask):
    """Per spatial node, the sup (t_bar) and inf (t_low) of continuation
    times, scanned over the time slices; NaN where the node is never in the
    continuation region."""
    ts = mask.grid.ts
    cont = mask.flags == CONTINUATION
    any_c = np.any(cont, axis=0)
    t_bar = np.full(mask.grid.nx, np.nan)
    t_low = np.full(mask.grid.nx, np.nan)
    for j in np.nonzero(any_c)[0]:
        ks = np.nonzero(cont[:, j])[0]
        t_low[j] = ts[ks[0]]
        t_bar[j] = ts[ks[-1]]
    return t_bar, t_low


def classify_lemma3(t, x, threshold, mask: RegionMask,
                    orientation: str = FORWARD) -> str:
    """Closed-form case analysis of the survival function at a grid node.

    Forward: ONE when stopped strictly after the threshold or continuing at
    or past it; ZERO when stopped at or before it, or continuing with no
    continuation time left beyond the threshold; PDE otherwise. The backward
    rules are the time mirror.
    """
    k, j = mask.grid.nearest_row(t), mask.grid.nearest_column(x)
    for name, q, node in (("time", t, mask.grid.ts[k]),
                          ("position", x, mask.grid.xs[j])):
        if abs(node - q) > 1e-9 * max(1.0, abs(q)):
            raise ValueError(f"{name} {q} is not a grid node")
    in_stop = mask.flags[k, j] == STOPPING
    t_bar, t_low = continuation_time_bounds(mask)
    if orientation not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown orientation {orientation!r}")
    # the forward rules in time s = t (forward) or s = -t (backward)
    sign = 1.0 if orientation == FORWARD else -1.0
    s, s_thr = sign * t, sign * threshold
    s_last = t_bar[j] if orientation == FORWARD else -t_low[j]
    if in_stop:
        return ONE if s > s_thr else ZERO
    if s >= s_thr:
        return ONE
    if not np.isnan(s_last) and s_thr >= s_last:
        return ZERO
    return PDE


def solve_q(problem: SurvivalProblem) -> SurvivalSolution:
    """Solve for the survival function on the full grid.

    Forward orientation marches from the threshold slice down to the start
    of the horizon; backward marches up to its end. Each slice is factored
    and solved by ``core._factor_step`` and ``core._solve_step``. Slices on
    the other side of the threshold are filled from the closed-form case
    analysis. Maximum principle violations beyond ``_MAX_PRINCIPLE_TOL``
    raise, values within it are clamped to [0, 1].
    """
    grid = problem.mask.grid
    ts = grid.ts
    kT = grid.nearest_row(problem.threshold)
    if abs(ts[kT] - problem.threshold) > 1e-9 * max(1.0, abs(problem.threshold)):
        raise ValueError(f"threshold {problem.threshold} is not a grid time")
    flags = problem.mask.flags
    stop = flags == STOPPING
    q = np.empty((grid.nt, grid.nx))
    codes = np.full((grid.nt, grid.nx), _CODE[PDE], dtype=np.int8)
    fwd = problem.orientation == FORWARD

    # closed-form side of the threshold
    beyond = slice(kT + 1, None) if fwd else slice(None, kT)
    q[beyond] = 1.0
    codes[beyond] = _CODE[ONE]
    # threshold slice: 1 on continuation, 0 on the stopping set
    q[kT] = np.where(stop[kT], 0.0, 1.0)
    codes[kT] = np.where(stop[kT], _CODE[ZERO], _CODE[ONE])

    steps = range(kT - 1, -1, -1) if fwd else range(kT + 1, grid.nt)
    # the backward march runs up in time, against the drift
    drift = problem.drift.values if fwd else -problem.drift.values
    prev = (lambda k: k + 1) if fwd else (lambda k: k - 1)
    low, high = math.inf, -math.inf
    for k in steps:
        lu = core._factor_step(core._pin_rows(
            core._step_matrix(drift[k], problem.hbar, grid.dt, grid.dx), stop[k]))
        sol = core._solve_step(lu, np.where(stop[k], 0.0, q[prev(k)]))
        lo, hi = float(np.min(sol)), float(np.max(sol))
        if lo < -_MAX_PRINCIPLE_TOL or hi > 1 + _MAX_PRINCIPLE_TOL:
            raise ValueError(
                f"maximum principle violated at t={ts[k]:.6g}: "
                f"range [{lo:.3g}, {hi:.3g}]"
            )
        low, high = min(low, lo), max(high, hi)
        q[k] = np.clip(sol, 0.0, 1.0)
        codes[k, stop[k]] = _CODE[ZERO]
    return SurvivalSolution(
        q=ScalarField(grid, q),
        closed_form_region=codes,
        threshold=problem.threshold,
        orientation=problem.orientation,
        unclamped_range=(low, high) if steps else None,
    )


def martingale_check(solution: SurvivalSolution, ensemble, checkpoints) -> dict:
    """Check that q evaluated along stopped paths has constant mean.

    For each checkpoint c, compares the sample mean of q(c ^ stop_time,
    state) against q at the ensemble start; the difference should be within
    a few standard errors under the simulated law. States outside the
    grid's x range take q at the nearest edge node.
    """
    t0, x0 = ensemble.start
    q0 = interpolate_clipped(solution.q, t0, x0)
    rows = []
    for c in checkpoints:
        if c not in ensemble.checkpoints:
            raise ValueError(
                f"checkpoint {c} was not recorded during simulation"
            )
        tt, xx = ensemble.checkpoints[c]
        mean, stderr = mean_stderr(interpolate_clipped(solution.q, tt, xx))
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
    if ensemble.orientation == FORWARD:
        hits = ensemble.stop_time > threshold
    else:
        hits = ensemble.stop_time < threshold
    p = float(np.mean(hits))
    return {"estimate": p, "stderr": math.sqrt(max(p * (1 - p), 1e-300) / hits.size)}
