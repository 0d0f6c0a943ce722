"""Stopping-time distribution functions.

For the optimally stopped process, q(t, x) = P(stop time > threshold | state
x at time t) solves an advection-diffusion problem on the continuation
region with unit data on the threshold slice and zero data on the stopping
set; the mirrored backward function q*(t, x) = P(backward stop time <
threshold) marches in the opposite direction. Nodes covered by the
closed-form case analysis (value 0 or 1 without any PDE solve) are filled
directly and the PDE is solved only on the remainder.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .core import (
    BACKWARD,
    CONTINUATION,
    FORWARD,
    STOPPING,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
)

ZERO, ONE, PDE = "ZERO", "ONE", "PDE"
_CODE = {ZERO: 0, ONE: 1, PDE: 2}


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


def _node_index(grid: SpaceTimeGrid, t, x):
    k = int(np.argmin(np.abs(grid.ts - t)))
    j = int(np.argmin(np.abs(grid.xs - x)))
    if abs(grid.ts[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not a grid node")
    if abs(grid.xs[j] - x) > 1e-9 * max(1.0, abs(x)):
        raise ValueError(f"position {x} is not a grid node")
    return k, j


def classify_lemma3(t, x, threshold, mask: RegionMask,
                    orientation: str = FORWARD) -> str:
    """Closed-form case analysis of the survival function at a grid node.

    Forward: ONE when stopped strictly after the threshold or continuing at
    or past it; ZERO when stopped at or before it, or continuing with no
    continuation time left beyond the threshold; PDE otherwise. The backward
    rules are the time mirror.
    """
    k, j = _node_index(mask.grid, t, x)
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


def _implicit_slice(q_prev, b, diric, hbar, dt, dx, marching_up):
    """One implicit upwinded step of the survival PDE on a time slice.

    ``diric`` marks Dirichlet-zero nodes (the stopping set). Grid edges get
    reflecting (zero-gradient) closure. The assembled matrix is an M-matrix,
    so the discrete maximum principle holds exactly.
    """
    nx = q_prev.size
    D = hbar / 2
    mu = dt * D / (dx * dx)
    # advection upwinding chosen so off-diagonal entries stay nonpositive
    # in both marching directions; marching down reverses the drift
    sb = b if marching_up else -b
    up = dt * np.maximum(sb, 0.0) / dx
    dn = dt * np.maximum(-sb, 0.0) / dx
    ab = np.zeros((3, nx))
    ab[1] = 1.0 + 2 * mu + up + dn
    ab[0, 1:] = -(mu + dn[:-1])   # coefficient of q_{i+1} in row i
    ab[2, :-1] = -(mu + up[1:])   # coefficient of q_{i-1} in row i
    rhs = q_prev.copy()
    # reflecting edges: fold the outside neighbor back onto the edge node
    ab[1, 0] = 1.0 + mu + dn[0]
    ab[0, 1] = -(mu + dn[0])
    ab[1, -1] = 1.0 + mu + up[-1]
    ab[2, -2] = -(mu + up[-1])
    # Dirichlet zero on stopping nodes: unit row, no couplings
    idx = np.nonzero(diric)[0]
    ab[1, idx] = 1.0
    rhs[idx] = 0.0
    for i in idx:
        if i + 1 < nx:
            ab[0, i + 1] = 0.0
        if i - 1 >= 0:
            ab[2, i - 1] = 0.0
    return solve_banded((1, 1), ab, rhs)


def solve_q(problem: SurvivalProblem, max_principle_tol: float = 1e-9
            ) -> SurvivalSolution:
    """Solve for the survival function on the full grid.

    Forward orientation marches from the threshold slice down to the start
    of the horizon; backward marches up to its end. Slices on the other side
    of the threshold are filled from the closed-form case analysis. Maximum
    principle violations beyond ``max_principle_tol`` raise, values within
    it are clamped to [0, 1].
    """
    grid = problem.mask.grid
    ts, xs = grid.ts, grid.xs
    kT = int(np.argmin(np.abs(ts - problem.threshold)))
    if abs(ts[kT] - problem.threshold) > 1e-9 * max(1.0, abs(problem.threshold)):
        raise ValueError(
            f"threshold {problem.threshold} must coincide with a grid time"
        )
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
    prev = (lambda k: k + 1) if fwd else (lambda k: k - 1)
    for k in steps:
        b = problem.drift.values[k]
        sol = _implicit_slice(q[prev(k)], b, stop[k], problem.hbar,
                              grid.dt, grid.dx, marching_up=not fwd)
        lo, hi = float(np.min(sol)), float(np.max(sol))
        if lo < -max_principle_tol or hi > 1 + max_principle_tol:
            raise ValueError(
                f"maximum principle violated at t={ts[k]:.6g}: "
                f"range [{lo:.3g}, {hi:.3g}]"
            )
        q[k] = np.clip(sol, 0.0, 1.0)
        codes[k, stop[k]] = _CODE[ZERO]
    return SurvivalSolution(
        q=ScalarField(grid, q),
        closed_form_region=codes,
        threshold=problem.threshold,
        orientation=problem.orientation,
    )


def _interp_many(fld: ScalarField, ts_q, xs_q):
    """Bilinear interpolation at arrays of (t, x) query points."""
    ts, xs = fld.grid.ts, fld.grid.xs
    it = np.clip(np.searchsorted(ts, ts_q, side="right") - 1, 0, ts.size - 2)
    ix = np.clip(np.searchsorted(xs, xs_q, side="right") - 1, 0, xs.size - 2)
    wt = np.clip((ts_q - ts[it]) / (ts[it + 1] - ts[it]), 0.0, 1.0)
    wx = np.clip((xs_q - xs[ix]) / (xs[ix + 1] - xs[ix]), 0.0, 1.0)
    v = fld.values
    return ((1 - wt) * ((1 - wx) * v[it, ix] + wx * v[it, ix + 1])
            + wt * ((1 - wx) * v[it + 1, ix] + wx * v[it + 1, ix + 1]))


def martingale_check(solution: SurvivalSolution, ensemble, checkpoints) -> dict:
    """Check that q evaluated along stopped paths has constant mean.

    For each checkpoint c, compares the sample mean of q(c ^ stop_time,
    state) against q at the ensemble start; the difference should be within
    a few standard errors under the simulated law.
    """
    t0, x0 = ensemble.start
    q0 = float(_interp_many(solution.q, np.array([t0]), np.array([x0]))[0])
    rows = []
    for c in checkpoints:
        if c not in ensemble.checkpoints:
            raise ValueError(
                f"checkpoint {c} was not recorded during simulation"
            )
        tt, xx = ensemble.checkpoints[c]
        vals = _interp_many(solution.q, tt, xx)
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
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
    n = hits.size
    p = float(np.mean(hits))
    return {"estimate": p, "stderr": math.sqrt(max(p * (1 - p), 1e-300) / n)}


def threshold_sweep_csv(solutions, path) -> str:
    """Emit a long-format CSV (threshold, t, x, q) over several solutions."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["threshold", "t", "x", "q"])
        for sol in solutions:
            grid = sol.q.grid
            for k, t in enumerate(grid.ts):
                for j, x in enumerate(grid.xs):
                    w.writerow([repr(float(sol.threshold)), repr(float(t)),
                                repr(float(x)), repr(float(sol.q.values[k, j]))])
    return path


def martingale_report_json(report: dict, path) -> str:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    return path
