"""Monte Carlo engine: Euler--Maruyama simulation of the controlled forward
SDE and its time-reversed counterpart, stopping at the computed free
boundary, action-functional estimation, drift reversal, and the
statistical two-sided Markov (bridge) test.

Reproducibility contract: the noise comes from counter-based streams keyed
by (seed, path group, step) (Philox, Salmon et al., SC'11). Path i's normal
at step k is entry i mod ``_GROUP`` of ``Generator(Philox(key=[seed,
i // _GROUP], counter=[0, k, 0, 0])).standard_normal(_GROUP)``, and, when a
point barrier needs the bridge test, its uniform is entry i mod ``_GROUP``
of the ``.random(_GROUP)`` drawn right after. Each step draws only the
groups its live paths fall in, so ensembles are bit-identical for a given
config on any number of CPUs: the paths run in contiguous blocks, one per
usable CPU, through ``core.fork_blocks``, and each block writes its paths'
records alone. Paths read the drift through ``core.interpolate``, which
reads a path off the grid at its edge node. A run's stopping set is point
barriers, crossed by a bridge test, and a thick region read at the nearest
node.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import (
    BACKWARD,
    FORWARD,
    STOPPING,
    ProblemSpec,
    RegionMask,
    ScalarField,
    gradient_rows,
    interpolate,
    mean_stderr,
)
from .analytic import bernstein_transition


def check_seed(seed) -> int:
    """seed if in [0, 2**63), the seeds the Philox key tells apart; else a ValueError."""
    if not 0 <= seed < 2**63:
        raise ValueError(f"expected an integer in [0, 2**63), got {seed}")
    return seed


@dataclass(frozen=True)
class SimConfig:
    """Step, ensemble size, seed, start (t0, x0) and checkpoints of a run."""
    dt: float
    n_paths: int
    seed: int
    start: tuple  # (t0, x0)
    checkpoints: tuple = ()
    #: read-only, under the name ``bench/`` reads
    bridge_correction: bool = field(default=True, init=False)

    def __post_init__(self):
        check_seed(self.seed)
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    @property
    def chunk_size(self) -> int:
        """``n_paths``, under the name ``bench/`` reads."""
        return self.n_paths


@dataclass(frozen=True)
class PathEnsemble:
    """Per-path stopping records and action samples with config echo.

    hit_flag is True when the path stopped at the free boundary, False when
    it ran to the horizon. checkpoints maps each requested checkpoint time c
    to per-path arrays (time, state at that time). The time is
    min(t_c, stop_time), where t_c is the end of the step that reaches c:
    c itself when c lies on the step lattice.
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
            mean, stderr = mean_stderr(getattr(self, name))
            out[name] = {"mean": mean, "stderr": stderr}
        out["boundary_hit_fraction"] = float(np.mean(self.hit_flag))
        return out


def _stopping_sets(mask: RegionMask, barrier):
    """The sorted point barriers of a run, ``barrier`` and the mask's
    width-one columns STOPPING at every solved time (measure-zero for the
    paths, so crossing tests stop them), and the thick region, the rest of
    the mask less its terminal row, or None when nothing is left."""
    barriers = set() if barrier is None else {float(barrier)}
    thick = None
    if mask is not None:
        # over the solved rows; the last holds the data
        full = np.pad(np.all(mask.flags[:-1] == STOPPING, axis=0), 1)
        barriers |= set(mask.grid.xs[full[1:-1] & ~full[:-2] & ~full[2:]].tolist())
        flags = mask.flags.copy()
        flags[-1] = 0
        flags[:, mask.grid.nearest_column(np.asarray(sorted(barriers)))] = 0
        if np.any(flags == STOPPING):
            thick = RegionMask(mask.grid, flags)
    return sorted(barriers), thick


#: paths per stream group: each (group, step) pair draws its normals, then
#: its bridge uniforms, from one Philox stream (see the module docstring)
_GROUP = 1024


def _step_draws(seed, kinds, n_groups):
    """``draw(k, g_lo, g_hi)`` fills and returns a (kinds, n_groups *
    _GROUP) buffer: from column (g - g_lo) * _GROUP, group g's step-k
    normals (kind 0) and uniforms (kind 1), for g_lo <= g < g_hi. One
    Philox serves all: its state is reset to key (seed, g), counter (0, k,
    0, 0) and an empty buffer, which is that stream bit for bit."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    bits, fresh = gen.bit_generator, gen.bit_generator.state
    key, counter = fresh["state"]["key"], fresh["state"]["counter"]
    buf = np.empty((kinds, n_groups * _GROUP))

    def draw(k, g_lo, g_hi):
        counter[1] = k
        for g in range(g_lo, g_hi):
            key[1] = g
            bits.state = fresh
            group = buf[:, (g - g_lo) * _GROUP:(g - g_lo + 1) * _GROUP]
            gen.standard_normal(out=group[0])
            if kinds == 2:
                gen.random(out=group[1])
        return buf

    return draw


def _crossings(xo, xn, u, barriers, hbar, h):
    """Steps xo -> xn that reach a point barrier, and where they first do.

    A sign change reaches a barrier at the fraction theta of the step linear
    in d0, d1. A step that stays on one side of it reaches it at theta = 1/2
    when its uniform ``u`` is below the conditional bridge crossing
    probability exp(-2 d0 d1 / (hbar h)) and no other barrier lies between
    it and xo. Of the barriers a step reaches, the one with the least theta
    stops it, the lower on a tie. Returns the indices of those steps, their
    barriers and their theta.
    """
    found = []
    # a bridge crossing of barrier j needs xo between its two neighbours
    edges = np.concatenate(([-math.inf], barriers, [math.inf]))
    for j, bar in enumerate(barriers):
        prod = xo - bar
        prod *= xn - bar
        reach = np.nonzero(prod <= 0)[0]
        d0, d1 = np.abs(xo[reach] - bar), np.abs(xn[reach] - bar)
        at = d0 / np.maximum(d0 + d1, 1e-300)
        # Past prod = 20 hbar h the probability is below exp(-40), under
        # 2**-53; a uniform from Generator.random is 0 or at least 2**-53,
        # so there only u == 0 can fall below it. exp runs on the rest.
        near = np.nonzero((prod > 0) & ((prod <= 20 * hbar * h) | (u == 0)))[0]
        near = near[(edges[j] < xo[near]) & (xo[near] < edges[j + 2])]
        bridge = near[u[near] < np.exp(-2 * prod[near] / (hbar * h))]
        reach = np.concatenate((reach, bridge))
        at = np.append(at, np.full(bridge.size, 0.5))
        found.append((reach, np.full(reach.size, bar), at))
    c, bars, theta = map(np.concatenate, zip(*found))
    if len(barriers) > 1:
        # each step's least theta, the lower barrier on a tie
        order = np.lexsort((bars, theta, c))
        keep = order[np.unique(c[order], return_index=True)[1]]
        c, bars, theta = c[keep], bars[keep], theta[keep]
    return c, bars, theta


#: a block of fewer path-steps (paths times steps) is not given a process
#: of its own. On 2 CPUs, two forked blocks were slower than one process up
#: to 6e5 path-steps in all and faster from 1e6 on
_MIN_BLOCK_PATH_STEPS = 1_000_000


def _simulate_core(potential, cost, t0, t_end, x0, drift, thick, barriers,
                   hbar, cfg: SimConfig):
    """Forward-time Euler--Maruyama engine shared by both orientations.

    The stream groups are cut by ``core.block_bounds`` into contiguous
    blocks of whole groups, at least ``_MIN_BLOCK_PATH_STEPS`` path-steps
    counted in whole groups, one per usable CPU, and run by
    ``core.fork_blocks``; no group is drawn by two blocks. Each block steps
    all its paths as one array and writes its slice of the records into one
    shared anonymous mapping. At each step a block draws the stream groups
    from its first to its last live path into one buffer. A forked block
    calls no BLAS: it runs Philox, ufuncs, the lookups of ``core`` and the
    problem's cost functions.

    A block keeps its live paths packed: ``live`` holds their indices in
    the block, and x, b, f and a their position, drift, running-cost
    integrand and action so far. ``stop`` writes the record of paths that
    cross a barrier or land in the thick region and drops them from the
    packed arrays; ``see(t)`` records the checkpoints t reaches, at the
    start, after each step and (t = inf) the rest at the stop. The drift at
    the start of a step is the one looked up at the end of the step before.
    """
    n_steps = max(1, int(math.ceil((t_end - t0) / cfg.dt - 1e-12)))
    barriers = np.asarray(barriers, dtype=float)

    n, cps = cfg.n_paths, sorted(cfg.checkpoints)
    # every record lives in one shared anonymous mapping, which the forked
    # path blocks write their slices of
    rows = 3 + 2 * len(cps)
    shared = mmap.mmap(-1, n * (8 * rows + 1))
    rec = np.frombuffer(shared, dtype=float, count=rows * n).reshape(rows, n)
    hit = np.frombuffer(shared, dtype=bool, count=n, offset=rec.nbytes)
    stop_time, stopped_state, action = rec[0], rec[1], rec[2]
    stop_time[:] = t_end
    cp_time = {c: rec[3 + 2 * i] for i, c in enumerate(cps)}
    cp_state = {c: rec[4 + 2 * i] for i, c in enumerate(cps)}

    def drift_at(t, xq):
        if drift is None:
            return np.zeros(xq.size)
        # a path off the grid reads the drift at its edge
        return interpolate(drift, t, xq)

    def running(bq, xq):
        return 0.5 * bq * bq + np.asarray(potential(xq), dtype=float)

    groups = core.block_bounds(-(-n // _GROUP), -(-_MIN_BLOCK_PATH_STEPS
                                                 // (n_steps * _GROUP)))
    bounds = [min(g * _GROUP, n) for g in groups]

    def run_block(lo, hi):
        # one buffer, as wide as the stream groups the block's paths span
        draw = _step_draws(cfg.seed, 2 if barriers.size else 1,
                           (hi - 1) // _GROUP - lo // _GROUP + 1)
        tau, state = stop_time[lo:hi], stopped_state[lo:hi]
        act, hitf = action[lo:hi], hit[lo:hi]
        live = np.arange(hi - lo)
        x = np.full(live.size, float(x0))
        b = drift_at(t0, x)
        f = running(b, x)
        a = np.zeros(live.size)
        pending = list(cps)

        def stop(i, when, where, value):
            # the paths at packed indices (or mask) i stop at the boundary
            nonlocal live, x, b, f, a
            g = live[i]
            tau[g], state[g], act[g], hitf[g] = when, where, value, True
            keep = np.ones(live.size, dtype=bool)
            keep[i] = False
            live, x, b, f, a = live[keep], x[keep], b[keep], f[keep], a[keep]

        def see(t):
            # a checkpoint sees the state at the end of the step that
            # reaches it, or at the stop for a path stopped before then
            while pending and t >= pending[0] - 1e-12:
                c = pending.pop(0)
                cp_time[c][lo:hi] = np.minimum(tau, c if abs(t - c) <= 1e-12 else t)
                cp_state[c][lo:hi] = state
                cp_state[c][lo + live] = x

        see(t0)
        t = t0
        for k in range(n_steps):
            if live.size == 0:
                break
            h = min(cfg.dt, t_end - t)
            t_next = t + h
            g_lo = (lo + live[0]) // _GROUP
            buf = draw(k, g_lo, (lo + live[-1]) // _GROUP + 1)
            cols = live + (lo - g_lo * _GROUP)  # the live paths' columns
            xo, x = x, x + b * h + math.sqrt(hbar * h) * buf[0][cols]

            if barriers.size:
                c, bars, theta = _crossings(xo, x, buf[1][cols], barriers,
                                            hbar, h)
                if c.size:
                    stop(c, t + theta * h, bars, a[c] + (
                        f[c] * theta * h + np.asarray(cost(bars), dtype=float)))

            b = drift_at(t_next, x)
            fn = running(b, x)
            a += 0.5 * (f + fn) * h
            f = fn

            # thick stopping regions: nearest-node region lookup
            if thick is not None and live.size:
                inside = thick.flags[thick.grid.nearest_row(t_next),
                                     thick.grid.nearest_column(x)] == STOPPING
                if inside.any():
                    stop(inside, t_next, x[inside],
                         a[inside] + np.asarray(cost(x[inside]), dtype=float))
            see(t_next)
            t = t_next

        # the paths still live ran to the horizon
        state[live] = x
        act[live] = a + np.asarray(cost(x), dtype=float)
        see(math.inf)

    core.fork_blocks(bounds, run_block)
    checkpoints = {c: (cp_time[c].copy(), cp_state[c].copy()) for c in cps}
    return (stop_time.copy(), stopped_state.copy(), action.copy(), hit.copy(),
            checkpoints)


def simulate_forward(spec: ProblemSpec, drift: ScalarField,
                     mask: RegionMask, cfg: SimConfig,
                     barrier=None) -> PathEnsemble:
    """Simulate dZ = b dt + sqrt(hbar) dW from cfg.start, stopping at the
    first entry into the stopping region or at the horizon.

    ``drift`` may be None (driftless). The stopping region comes from
    ``mask``; width-one stopping columns are auto-detected and handled by
    per-step crossing tests. ``barrier`` adds an explicit point barrier, to
    the mask's when one is supplied.
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


def check_start(spec: ProblemSpec, orientation, cfg: SimConfig) -> tuple:
    """The start (s0, x0) of a run in its marching time, s = t forward and
    s = -t backward; a ValueError if s0 lies outside the horizon, x0
    outside [x_min, x_max] or a checkpoint not finite or before s0."""
    (t0, x0), sign = cfg.start, 1 if orientation == FORWARD else -1
    if not -spec.half_horizon <= sign * t0 < spec.half_horizon:
        raise ValueError(f"start time {t0} outside horizon")
    if not spec.x_min <= x0 <= spec.x_max:
        raise ValueError(f"start x {x0} outside [{spec.x_min}, {spec.x_max}]")
    for c in cfg.checkpoints:
        if not math.isfinite(c):
            raise ValueError(f"checkpoint {c} is not a finite time")
        if sign * c < sign * t0:
            raise ValueError(f"checkpoint {c} lies before the start time {t0} "
                             f"of the {orientation} run")
    return sign * t0, x0


def _simulate(spec: ProblemSpec, orientation, drift, mask, cfg: SimConfig,
              barrier) -> PathEnsemble:
    """Both orientations: a backward run is flipped in time, s = -t, and
    then simulated forward from -t0 to T/2."""
    s0, x0 = check_start(spec, orientation, cfg)
    fwd = orientation == FORWARD
    cost = spec.terminal_cost if fwd else spec.initial_cost
    if not fwd:
        if drift is not None:
            # the flipped drift is -b*(-s, x)
            drift = ScalarField(drift.grid, -core._marching_rows(orientation, drift.values),
                                allow_nan=drift.allow_nan)
        if mask is not None:
            mask = RegionMask(mask.grid, core._marching_rows(orientation, mask.flags))
        cfg = dataclasses.replace(cfg, checkpoints=tuple(-c for c in cfg.checkpoints))

    barriers, thick = _stopping_sets(mask, barrier)
    st, ss, av, hf, cps = _simulate_core(
        spec.potential, cost, s0, spec.half_horizon, x0, drift,
        thick, barriers, spec.hbar, cfg,
    )
    if not fwd:
        st = -st
        cps = {-c: (-tt, xx) for c, (tt, xx) in cps.items()}
    return PathEnsemble(
        orientation=orientation, start=cfg.start, dt=cfg.dt, seed=cfg.seed,
        stop_time=st, stopped_state=ss, action_value=av, hit_flag=hf,
        checkpoints=cps,
    )


#: density at or below which ``reversed_drift`` flags a node NaN
_RHO_FLOOR = 1e-12


def reversed_drift(drift: ScalarField, rho: ScalarField,
                   hbar: float) -> ScalarField:
    """Time-reversed drift B* = B - hbar * d/dx log(rho).

    Nodes where rho <= _RHO_FLOOR are flagged NaN rather than extrapolated.
    """
    if np.all(rho.values <= 0):
        raise ValueError("rho is nonpositive everywhere")
    grid = rho.grid
    safe = np.where(rho.values > _RHO_FLOOR, rho.values, np.nan)
    grad_log = gradient_rows(np.log(safe), grid.dx)
    return ScalarField(grid, drift.values - hbar * grad_log, allow_nan=True)


#: sub-steps of the bridge sampler from s to t, and the test's level
_BRIDGE_STEPS = 8
_SIGNIFICANCE = 0.01


def bridge_markov_test(s, x, u, z, t, hbar, n_paths, n_bins, seed=0) -> dict:
    """Chi-square test of the pinned midpoint law against h*h/h.

    Pinned paths are generated by exact sequential bridge sampling from s to
    t given the endpoint (u, z) in _BRIDGE_STEPS sub-steps; the empirical
    histogram of Z_t over equal-probability bins is compared to bin masses
    of the two-sided transition density integrated by fixed-order Gauss
    quadrature. It passes at p > _SIGNIFICANCE.
    """
    if not s < t < u:
        raise ValueError(f"need s < t < u, got {s}, {t}, {u}")
    check_seed(seed)
    from scipy.special import chdtrc, ndtri
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))

    # sequential exact bridge: at each sub-step the conditional law given the
    # current state and the endpoint is Gaussian
    times = np.linspace(s, t, _BRIDGE_STEPS + 1)
    zt = np.full(n_paths, float(x))
    for k in range(_BRIDGE_STEPS):
        tk, tk1 = times[k], times[k + 1]
        w = (tk1 - tk) / (u - tk)
        mean = zt + w * (z - zt)
        var = hbar * (tk1 - tk) * (u - tk1) / (u - tk)
        zt = mean + math.sqrt(var) * rng.standard_normal(n_paths)

    mu = x + (t - s) / (u - s) * (z - x)
    sd = math.sqrt(hbar * (t - s) * (u - t) / (u - s))
    edges = mu + sd * ndtri(np.linspace(0, 1, n_bins + 1))
    counts, _ = np.histogram(zt, bins=edges)  # the outer edges are -inf, inf

    # bin masses of the transition density by 20-point Gauss-Legendre per bin
    gl_x, gl_w = np.polynomial.legendre.leggauss(20)
    probs = np.empty(n_bins)
    fin = np.concatenate(([mu - 12 * sd], edges[1:-1], [mu + 12 * sd]))
    for i in range(n_bins):
        a, b = fin[i], fin[i + 1]
        ys = 0.5 * (b - a) * gl_x + 0.5 * (a + b)
        vals = np.array([bernstein_transition(s, x, t, y, u, z, hbar) for y in ys])
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
    p_value = float(chdtrc(dof, statistic))
    return {
        "statistic": statistic,
        "dof": dof,
        "p_value": p_value,
        "passed": bool(p_value > _SIGNIFICANCE),
        "significance": _SIGNIFICANCE,
        "counts": counts.tolist(),
        "expected": expected.tolist(),
        "sample_mean": float(np.mean(zt)),
        "sample_var": float(np.var(zt, ddof=1)),
    }
