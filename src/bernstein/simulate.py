"""Monte Carlo engine: Euler--Maruyama simulation of the controlled forward
SDE and its time-reversed counterpart, stopping at the computed free
boundary, action-functional estimation, density evolution, drift reversal,
and the statistical two-sided Markov (bridge) test.

Reproducibility contract: every path owns a counter-based RNG stream keyed
by (seed, path index), so ensembles are bit-identical for a given config
regardless of chunking or parallel schedule.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.linalg import solve_banded

from .core import (
    BACKWARD,
    FORWARD,
    STOPPING,
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
    gradient_rows,
)
from .analytic import KernelParams, bernstein_transition


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_paths: int
    seed: int
    start: tuple  # (t0, x0)
    chunk_size: int = 20000
    bridge_correction: bool = True
    checkpoints: tuple = ()

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass(frozen=True)
class PathEnsemble:
    """Per-path stopping records and action samples with config echo.

    hit_flag is True when the path stopped at the free boundary, False when
    it ran to the horizon. checkpoints maps each requested checkpoint time c
    to per-path arrays (min(c, stop_time), state at that time).
    """

    orientation: str
    start: tuple
    dt: float
    seed: int
    stop_time: np.ndarray
    stopped_state: np.ndarray
    action_value: np.ndarray
    hit_flag: np.ndarray
    checkpoints: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.action_value)):
            raise ValueError("non-finite action values in ensemble")

    @property
    def n_paths(self) -> int:
        return self.stop_time.size

    def summary(self) -> dict:
        out = {}
        for name in ("stop_time", "stopped_state", "action_value"):
            v = getattr(self, name)
            out[name] = {
                "mean": float(np.mean(v)),
                "stderr": float(np.std(v, ddof=1) / math.sqrt(v.size)),
            }
        out["boundary_hit_fraction"] = float(np.mean(self.hit_flag))
        return out


def _interp_field_at(fld: ScalarField, t: float, xq: np.ndarray) -> np.ndarray:
    """Vectorized bilinear lookup of a field at one time, many positions."""
    ts, xs = fld.grid.ts, fld.grid.xs
    it = int(np.searchsorted(ts, t, side="right")) - 1
    it = min(max(it, 0), ts.size - 2)
    wt = (t - ts[it]) / (ts[it + 1] - ts[it])
    wt = min(max(wt, 0.0), 1.0)
    row = (1 - wt) * fld.values[it] + wt * fld.values[it + 1]
    return np.interp(xq, xs, row)


def _point_barriers(mask: RegionMask) -> np.ndarray:
    """Spatial positions whose node column is STOPPING at every solved time.

    Width-one stopping columns are measure-zero for the simulated paths, so
    they are handled by crossing detection rather than nearest-node lookup.
    """
    flags = mask.flags[:-1]  # the solved rows; the last holds the data
    full = np.all(flags == STOPPING, axis=0)
    bars = []
    for j in np.nonzero(full)[0]:
        left = full[j - 1] if j > 0 else False
        right = full[j + 1] if j + 1 < full.size else False
        if not left and not right:
            bars.append(mask.grid.xs[j])
    return np.asarray(bars)


def _thick_mask(mask: RegionMask, barriers):
    """Stopping-region lookup with point-barrier columns and the terminal
    row removed; None when nothing is left (pure barrier problem)."""
    flags = mask.flags.copy()
    flags[-1] = 0
    for b in barriers:
        j = int(np.argmin(np.abs(mask.grid.xs - b)))
        flags[:, j] = 0
    if not np.any(flags == STOPPING):
        return None
    return flags


def _path_streams(seed, lo, hi, n_steps, want_uniform):
    normals = np.empty((hi - lo, n_steps))
    uniforms = np.empty((hi - lo, n_steps)) if want_uniform else None
    for i in range(lo, hi):
        g = np.random.Generator(np.random.Philox(key=[seed, i]))
        normals[i - lo] = g.standard_normal(n_steps)
        if want_uniform:
            uniforms[i - lo] = g.random(n_steps)
    return normals, uniforms


def _simulate_core(potential, cost, t0, t_end, x0, drift, thick_flags,
                   thick_grid, barriers, hbar, cfg: SimConfig):
    """Forward-time Euler--Maruyama engine shared by both orientations."""
    n_steps = max(1, int(math.ceil((t_end - t0) / cfg.dt - 1e-12)))
    barriers = np.asarray(barriers, dtype=float)
    want_u = cfg.bridge_correction and barriers.size > 0

    stop_time = np.full(cfg.n_paths, t_end)
    stopped_state = np.empty(cfg.n_paths)
    action = np.zeros(cfg.n_paths)
    hit = np.zeros(cfg.n_paths, dtype=bool)
    cps = sorted(cfg.checkpoints)
    cp_time = {c: np.empty(cfg.n_paths) for c in cps}
    cp_state = {c: np.empty(cfg.n_paths) for c in cps}

    for lo in range(0, cfg.n_paths, cfg.chunk_size):
        hi = min(lo + cfg.chunk_size, cfg.n_paths)
        normals, uniforms = _path_streams(cfg.seed, lo, hi, n_steps, want_u)
        m = hi - lo
        x = np.full(m, float(x0))
        alive = np.ones(m, dtype=bool)
        tau = np.full(m, t_end)
        state = np.empty(m)
        act = np.zeros(m)
        hitf = np.zeros(m, dtype=bool)
        b = (_interp_field_at(drift, t0, x) if drift is not None
             else np.zeros(m))
        f_prev = 0.5 * b * b + np.asarray(potential(x), dtype=float)
        cp_done = {c: False for c in cps}

        t = t0
        for k in range(n_steps):
            h = min(cfg.dt, t_end - t)
            t_next = t + h
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            xo = x[idx]
            bo = (_interp_field_at(drift, t, xo) if drift is not None
                  else np.zeros(idx.size))
            xn = xo + bo * h + math.sqrt(hbar * h) * normals[idx, k]

            # point-barrier crossings: sign change, plus the conditional
            # bridge crossing probability exp(-2 d0 d1 / (hbar h)) for steps
            # that straddle the barrier without changing sign
            crossed = np.zeros(idx.size, dtype=bool)
            theta = np.ones(idx.size)
            bar_of = np.empty(idx.size)
            for bar in barriers:
                d0, d1 = xo - bar, xn - bar
                sc = d0 * d1 <= 0
                new = sc & ~crossed
                theta[new] = np.abs(d0[new]) / np.maximum(
                    np.abs(d0[new]) + np.abs(d1[new]), 1e-300
                )
                if want_u:
                    p = np.exp(-2 * np.maximum(d0 * d1, 0.0) / (hbar * h))
                    bc = (~sc) & (uniforms[idx, k] < p) & ~crossed
                    theta[bc] = 0.5
                    new = new | bc
                bar_of[new] = bar
                crossed |= new

            fi = f_prev[idx]
            if np.any(crossed):
                c = np.nonzero(crossed)[0]
                g = idx[c]
                tau[g] = t + theta[c] * h
                state[g] = bar_of[c]
                act[g] += fi[c] * theta[c] * h + np.asarray(
                    cost(bar_of[c]), dtype=float
                )
                hitf[g] = True
                alive[g] = False

            live = ~crossed
            gl = idx[live]
            x[gl] = xn[live]
            bn = (_interp_field_at(drift, t_next, xn[live])
                  if drift is not None else np.zeros(gl.size))
            fn = 0.5 * bn * bn + np.asarray(potential(xn[live]), dtype=float)
            act[gl] += 0.5 * (fi[live] + fn) * h
            f_prev[gl] = fn

            # thick stopping regions: nearest-node region lookup
            if thick_flags is not None and gl.size:
                ts_, xs_ = thick_grid.ts, thick_grid.xs
                it = min(max(int(np.searchsorted(ts_, t_next, side="right")) - 1,
                             0), ts_.size - 1)
                if it + 1 < ts_.size and abs(ts_[it + 1] - t_next) < abs(ts_[it] - t_next):
                    it += 1
                jx = np.clip(np.rint((x[gl] - xs_[0]) / thick_grid.dx).astype(int),
                             0, xs_.size - 1)
                inside = thick_flags[it, jx] == STOPPING
                if np.any(inside):
                    g = gl[inside]
                    tau[g] = t_next
                    state[g] = x[g]
                    act[g] += np.asarray(cost(x[g]), dtype=float)
                    hitf[g] = True
                    alive[g] = False

            for c in cps:
                if not cp_done[c] and t_next >= c - 1e-12:
                    cp_time[c][lo:hi] = np.minimum(tau, c)
                    snap = np.where(alive, x, state)
                    cp_state[c][lo:hi] = snap
                    cp_done[c] = True
            t = t_next

        g = np.nonzero(alive)[0]
        if g.size:
            state[g] = x[g]
            act[g] += np.asarray(cost(x[g]), dtype=float)
        for c in cps:
            if not cp_done[c]:
                cp_time[c][lo:hi] = np.minimum(tau, c)
                cp_state[c][lo:hi] = np.where(alive, x, state)
        stop_time[lo:hi] = tau
        stopped_state[lo:hi] = state
        action[lo:hi] = act
        hit[lo:hi] = hitf

    checkpoints = {c: (cp_time[c], cp_state[c]) for c in cps}
    return stop_time, stopped_state, action, hit, checkpoints


def simulate_forward(spec: ProblemSpec, drift: ScalarField,
                     mask: RegionMask, cfg: SimConfig,
                     barrier=None) -> PathEnsemble:
    """Simulate dZ = b dt + sqrt(hbar) dW from cfg.start, stopping at the
    first entry into the stopping region or at the horizon.

    ``drift`` may be None (driftless). The stopping region comes from
    ``mask``; width-one stopping columns are auto-detected and handled by
    per-step crossing tests. ``barrier`` adds an explicit point barrier when
    no mask is supplied.
    """
    return _simulate(spec, FORWARD, drift, mask, cfg, barrier)


def simulate_backward(spec: ProblemSpec, drift_star: ScalarField,
                      mask_star: RegionMask, cfg: SimConfig,
                      barrier=None) -> PathEnsemble:
    """Simulate the decreasing-filtration SDE dZ = b* dt + dW* downward from
    cfg.start, stopping at the last exit time.

    Implemented by the substitution s -> -s, which turns the backward SDE
    into a forward one with drift -b*(-s, x); times are mapped back
    afterwards, so stop_time is the actual tau* in original time.
    """
    return _simulate(spec, BACKWARD, drift_star, mask_star, cfg, barrier)


def _simulate(spec: ProblemSpec, orientation, drift, mask, cfg: SimConfig,
              barrier) -> PathEnsemble:
    """Both orientations: a backward run is flipped in time, s = -t, and
    then simulated forward from -t0 to T/2."""
    start = cfg.start
    t0, x0 = start
    fwd = orientation == FORWARD
    s0 = t0 if fwd else -t0
    if not -spec.half_horizon <= s0 < spec.half_horizon:
        raise ValueError(f"start time {t0} outside horizon")
    cost = spec.terminal_cost if fwd else spec.initial_cost
    if not fwd:
        if drift is not None:
            # the flipped drift is -b*(-s, x)
            drift = ScalarField(drift.grid, -drift.values[::-1].copy(),
                                allow_nan=drift.allow_nan)
        if mask is not None:
            mask = RegionMask(mask.grid, mask.flags[::-1].copy())
        cfg = dataclasses.replace(cfg, start=(s0, x0),
                                  checkpoints=tuple(-c for c in cfg.checkpoints))

    barriers = [] if barrier is None else [float(barrier)]
    thick = tgrid = None
    if mask is not None:
        bars = _point_barriers(mask)
        barriers = sorted(set(barriers) | set(bars.tolist()))
        thick = _thick_mask(mask, barriers)
        tgrid = mask.grid

    if any(abs(x0 - b) == 0 for b in barriers):
        # degenerate start on the boundary: stopped immediately
        z = np.full(cfg.n_paths, float(x0))
        st, ss, av, hf, cps = (np.full(cfg.n_paths, float(s0)), z,
                               np.asarray(cost(z), dtype=float),
                               np.ones(cfg.n_paths, dtype=bool), {})
    else:
        st, ss, av, hf, cps = _simulate_core(
            spec.potential, cost, s0, spec.half_horizon, x0, drift,
            thick, tgrid, barriers, spec.hbar, cfg,
        )
    if not fwd:
        st = -st
        cps = {-c: (-tt, xx) for c, (tt, xx) in cps.items()}
    return PathEnsemble(
        orientation=orientation, start=start, dt=cfg.dt, seed=cfg.seed,
        stop_time=st, stopped_state=ss, action_value=av, hit_flag=hf,
        checkpoints=cps,
    )


def action_estimate(ensemble: PathEnsemble) -> dict:
    """Sample mean and standard error of the per-path action values."""
    v = ensemble.action_value
    return {
        "mean": float(np.mean(v)),
        "stderr": float(np.std(v, ddof=1) / math.sqrt(v.size)),
    }


def reversed_drift(drift: ScalarField, rho: ScalarField, hbar: float,
                   floor: float = 1e-12) -> ScalarField:
    """Time-reversed drift B* = B - hbar * d/dx log(rho).

    Nodes where rho <= floor are flagged NaN rather than extrapolated.
    """
    if np.all(rho.values <= 0):
        raise ValueError("rho is nonpositive everywhere")
    grid = rho.grid
    safe = np.where(rho.values > floor, rho.values, np.nan)
    grad_log = gradient_rows(np.log(safe), grid.dx)
    return ScalarField(grid, drift.values - hbar * grad_log, allow_nan=True)


def fokker_planck(spec: ProblemSpec, drift: ScalarField, rho0: np.ndarray,
                  grid: SpaceTimeGrid, boundary: str = "no_flux") -> ScalarField:
    """Evolve d(rho)/dt = -d(b rho)/dx + (hbar/2) d2(rho)/dx2 from rho0.

    Conservative flux form, implicit in time, upwind advection; "no_flux"
    boundaries conserve mass, "absorbing" pins rho = 0 at both ends.
    """
    if boundary not in ("no_flux", "absorbing"):
        raise ValueError(f"unknown boundary {boundary!r}")
    rho0 = np.asarray(rho0, dtype=float)
    if np.any(rho0 < 0):
        raise ValueError("rho0 must be nonnegative")
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    D = spec.hbar / 2

    out = np.empty((nt, nx))
    out[0] = rho0
    for k in range(1, nt):
        b = (_interp_field_at(drift, grid.ts[k], grid.xs)
             if drift is not None else np.zeros(nx))
        peclet = np.max(np.abs(b)) * dx / max(D, 1e-300)
        if peclet > 2:
            warnings.warn(
                f"advection cell Peclet {peclet:.2f} > 2 at t={grid.ts[k]:.4g}; "
                "expect smearing from upwinding", stacklevel=2,
            )
        bf = 0.5 * (b[:-1] + b[1:])  # face velocities, nx-1 faces
        up = bf >= 0
        # implicit system (I + dt * A) rho_new = rho_old, A from flux divergence
        ab = np.zeros((3, nx))
        ab[1] += 1.0
        # face i+1/2 contributes to rows i and i+1
        adv_diag_lo = np.where(up, bf, 0.0)  # coefficient on rho_i at face
        adv_diag_hi = np.where(up, 0.0, bf)  # coefficient on rho_{i+1}
        r = dt / dx
        # row i: + (J_{i+1/2} - J_{i-1/2}) / dx
        ab[1, :-1] += r * (adv_diag_lo + D / dx)
        ab[0, 1:] += r * (adv_diag_hi - D / dx)  # super-diagonal, rho_{i+1}
        ab[1, 1:] += r * (-adv_diag_hi + D / dx)
        ab[2, :-1] += r * (-adv_diag_lo - D / dx)  # sub-diagonal, rho_i in row i+1
        if boundary == "absorbing":
            ab[1, 0] = ab[1, -1] = 1.0
            ab[0, 1] = 0.0
            ab[2, -2] = 0.0
            rhs = out[k - 1].copy()
            rhs[0] = rhs[-1] = 0.0
        else:
            rhs = out[k - 1]
        sol = solve_banded((1, 1), ab, rhs)
        if np.min(sol) < -1e-12:
            raise ValueError(
                f"density undershoot {np.min(sol):.3g} below the -1e-12 floor"
            )
        out[k] = np.maximum(sol, 0.0)
    return ScalarField(grid, out)


def bridge_markov_test(s, x, u, z, t, hbar, n_paths, n_bins,
                       seed=0, n_steps=8, significance=0.01) -> dict:
    """Chi-square test of the pinned midpoint law against h*h/h.

    Pinned paths are generated by exact sequential bridge sampling from s to
    t given the endpoint (u, z); the empirical histogram of Z_t over
    equal-probability bins is compared to bin masses of the two-sided
    transition density integrated by fixed-order Gauss quadrature.
    """
    if not s < t < u:
        raise ValueError(f"need s < t < u, got {s}, {t}, {u}")
    p = KernelParams(hbar=hbar)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))

    # sequential exact bridge: at each sub-step the conditional law given the
    # current state and the endpoint is Gaussian
    times = np.linspace(s, t, n_steps + 1)
    zt = np.full(n_paths, float(x))
    for k in range(n_steps):
        tk, tk1 = times[k], times[k + 1]
        w = (tk1 - tk) / (u - tk)
        mean = zt + w * (z - zt)
        var = hbar * (tk1 - tk) * (u - tk1) / (u - tk)
        zt = mean + math.sqrt(var) * rng.standard_normal(n_paths)

    mu = x + (t - s) / (u - s) * (z - x)
    sd = math.sqrt(hbar * (t - s) * (u - t) / (u - s))
    edges = mu + sd * stats.norm.ppf(np.linspace(0, 1, n_bins + 1))
    counts, _ = np.histogram(zt, bins=np.concatenate(([-np.inf], edges[1:-1], [np.inf])))

    # bin masses of the transition density by 20-point Gauss-Legendre per bin
    gl_x, gl_w = np.polynomial.legendre.leggauss(20)
    probs = np.empty(n_bins)
    fin = edges.copy()
    fin[0], fin[-1] = mu - 12 * sd, mu + 12 * sd
    for i in range(n_bins):
        a, b = fin[i], fin[i + 1]
        ys = 0.5 * (b - a) * gl_x + 0.5 * (a + b)
        vals = np.array([bernstein_transition(s, x, tt, y, u, z, p)
                         for tt, y in zip(np.full(ys.size, t), ys)])
        probs[i] = 0.5 * (b - a) * float(gl_w @ vals)
    probs /= probs.sum()

    expected = probs * n_paths
    if np.any(expected < 5):
        raise ValueError(
            f"minimum expected bin count {expected.min():.2f} < 5; "
            "reduce n_bins or raise n_paths"
        )
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    dof = n_bins - 1
    p_value = float(stats.chi2.sf(statistic, dof))
    return {
        "statistic": statistic,
        "dof": dof,
        "p_value": p_value,
        "passed": bool(p_value > significance),
        "significance": significance,
        "counts": counts.tolist(),
        "expected": expected.tolist(),
        "sample_mean": float(np.mean(zt)),
        "sample_var": float(np.var(zt, ddof=1)),
    }


def write_ensemble(ensemble: PathEnsemble, prefix: str, per_path: bool = False,
                   max_rows: int = 10000) -> list:
    """Emit a JSON summary and, optionally, capped per-path CSV records."""
    paths = []
    meta_path = f"{prefix}_ensemble.json"
    with open(meta_path, "w") as fh:
        json.dump(
            {
                "orientation": ensemble.orientation,
                "start": list(ensemble.start),
                "dt": ensemble.dt,
                "seed": ensemble.seed,
                "n_paths": ensemble.n_paths,
                "summary": ensemble.summary(),
            },
            fh,
            indent=2,
        )
    paths.append(meta_path)
    if per_path:
        csv_path = f"{prefix}_paths.csv"
        n = min(ensemble.n_paths, max_rows)
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path", "stop_time", "stopped_state", "action_value",
                        "hit_flag"])
            for i in range(n):
                w.writerow([i, repr(float(ensemble.stop_time[i])),
                            repr(float(ensemble.stopped_state[i])),
                            repr(float(ensemble.action_value[i])),
                            int(ensemble.hit_flag[i])])
        paths.append(csv_path)
    return paths
