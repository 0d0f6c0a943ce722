"""The experiment layer shared by ``bernstein run`` and ``bernstein check``.

Each experiment is one function ``(seed=0, *, key=default, ...) -> Result``
whose keyword parameters are its config keys: it builds its inputs from
them (a ``ConfigError`` before anything is computed if it cannot), runs its
pipeline and judges what it produced with the checks and gates defined here
once: the oracle band error, the x = 0 stopping-column test, value
dominance, the drift-reversal error, slice mass, gauge invariance, the
complementarity residual, the Monte Carlo action against the oracle value
and the erf survival law. It returns every artifact it emits, keyed by file
name, and writes nothing;
``cli`` writes a result's files. The acceptance criteria (``acceptance``)
read the checks and reports of the same results, each at a seed and config
they name, so every figure a criterion judges is in an artifact of
``bernstein run``.

The oracle band error has one schedule: the slices ``SLICE_TIMES``, each
snapped to its nearest grid row and scored against the worked example's
quadrature oracle at that row's time, over the band ``BAND`` of |x|, in one
oracle call per row. ``sec7-forward``, ``sec7-backward``,
``convergence-study`` and criteria 1 and 10 all score this schedule.

An experiment holds at once the fields it returns and one solve's working
arrays, no more (``tests/test_cli.py::TestPeakMemory``): at most four
grid-sized float arrays in ``sec7``, five and a half in
``classical_compare``, which frees each solve's eta, mask and drift before
the next, and four and a half in ``stopping_dist`` with one threshold (U,
the drift, the mask and q; the solve's eta is freed once the drift is
built). ``erf_survival_pde`` holds one 5002 x 1601 field, q, and peaks
under 120 MB.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytic, core, hjb, schrodinger, simulate, stopping
from .core import (
    BACKWARD,
    FORWARD,
    STOPPING,
    ProblemSpec,
    ScalarField,
    _number,
    build_grid,
)

HBAR = analytic.WORKED_EXAMPLE["hbar"]
T = 2 * analytic.WORKED_EXAMPLE["half_horizon"]
#: band-error slices, snapped to the nearest grid row (multiples of 0.008,
#: so grid rows on every refinement level of the convergence study)
SLICE_TIMES = (-0.5, -0.34, -0.14, 0.06, 0.26, 0.46)
BAND = (0.1, 2.5)

#: Gates of the checks, shared by ``bernstein run`` and the criteria.
BAND_TOL = 1e-2  # relative error of U against the oracle on the band
DOMINANCE_TOL = 1e-6  # max(U - H~): stopping never costs more
STRICT_GAP = 1e-3  # H~ - U at (0, 1); both carry O(dx^2 + dt) error
REVERSAL_TOL = 1e-3  # scaled drift-reversal error
MASS_TOL = 1e-6  # slice-mass deviation of the pinned density from 1
LCP_TOL = 1e-9  # scaled complementarity residual of an obstacle solve
ERF_TOL = 1e-3  # the survival PDE's erf(1/sqrt 2) against the exact value
GAUGE_TOL = 1e-12  # change of the pinned density under a gauge rescaling

#: The pinning experiment's problem document but for its hbar, a free
#: diffusion on [-4, 4], and the (mean, sd) of its two Gaussian marginals
PIN_PROBLEM = {"half_horizon": 0.5, "x_min": -4.0, "x_max": 4.0,
               "potential": "zero", "terminal_cost": "zero", "initial_cost": "zero"}
PIN_MARGINALS = ((-1.0, 0.35), (1.0, 0.35))
#: The bridge test's pinned path: from x at s to z at u, read at t
BRIDGE = {"s": 0.0, "x": 0.0, "u": 1.0, "z": 0.0, "t": 0.5, "hbar": 1.0}


class ConfigError(ValueError):
    """A config that names no experiment, holds a key the experiment does
    not read, gives a key a value of the wrong type, or asks an experiment
    for what it cannot do; raised before anything is computed."""


def _read(key, convert, value):
    """``convert(value)``, or a ConfigError naming the config ``key`` if the
    value has the wrong type or form."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _integer(value) -> int:
    """A JSON integer, or a float of integral value such as 1e5, as an int;
    a TypeError for anything else, a bool or a numeric string included."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _seed(value) -> int:
    """``simulate.check_seed(_integer(value))``: a seed in [0, 2**63)."""
    return simulate.check_seed(_integer(value))


# ---------------------------------------------------------------------------
# Checks


def in_band(xs) -> np.ndarray:
    """Whether each node of xs lies in BAND[0] <= |x| <= BAND[1], to 1e-12,
    so that a node such as x = -0.1 at nx = 61, which ``linspace`` puts at
    -0.09999999999999964, is in it."""
    return (np.abs(xs) >= BAND[0] - 1e-12) & (np.abs(xs) <= BAND[1] + 1e-12)


def band_errors(sol: hjb.EtaSolution) -> list:
    """The oracle band error of a worked-example solve, slice by slice:
    (row time, relative infinity-norm error of U = -hbar log(eta) over
    ``in_band``) for each slice of SLICE_TIMES, snapped to its nearest row."""
    grid = sol.eta.grid
    sel = in_band(grid.xs)
    rows = sorted(set(grid.nearest_row(SLICE_TIMES).tolist()))
    oracle = (analytic.sec7_eta_forward if sol.orientation == FORWARD
              else analytic.sec7_eta_backward)
    out = []
    for k in rows:
        t = float(grid.ts[k])
        u = -HBAR * np.log(sol.eta.values[k, sel])
        ref = -HBAR * np.log(oracle(t, grid.xs[sel], HBAR, T))
        out.append((t, float(np.max(np.abs(u - ref)
                                    / np.maximum(np.abs(ref), 1e-12)))))
    return out


def stopping_columns(sol: hjb.EtaSolution):
    """Distinct stopped x positions over the solved rows, whether the data
    row is fully stopped, and whether the solved rows stop exactly on the
    x = 0 column."""
    flags = core._marching_rows(sol.orientation, sol.mask.flags)
    grid = sol.eta.grid
    solved = flags[:-1]
    cols = sorted(set(grid.xs[np.any(solved == STOPPING, axis=0)].tolist()))
    full = bool(np.all(flags[-1] == STOPPING))
    origin = np.arange(grid.nx) == grid.nearest_column(0.0)
    exact = bool(np.all((solved == STOPPING) == origin[None, :]))
    return cols, full, exact


def value_dominance(stopped: ScalarField, classical: ScalarField):
    """max(U - H~) over the grid for the stopped value U and the
    fixed-horizon value H~, and the gain H~ - U at the node nearest
    (t, x) = (0, 1)."""
    grid = stopped.grid
    worst = float(np.max(stopped.values - classical.values))
    k, j = grid.nearest_row(0.0), grid.nearest_column(1.0)
    return worst, float(classical.values[k, j] - stopped.values[k, j])


def drift_reversal_error(eta: ScalarField, eta_star: ScalarField,
                         rho: ScalarField, hbar: float):
    """Scaled infinity error of B - hbar d/dx log(rho), with
    B = hbar d/dx log(eta), against -hbar d/dx log(eta*), over the nodes
    where rho is resolved; returns (error or None, nodes checked)."""
    grid = rho.grid
    drift = ScalarField(grid, hbar * core.gradient_rows(np.log(eta.values), grid.dx))
    rev = simulate.reversed_drift(drift, rho, hbar)
    target = -hbar * core.gradient_rows(np.log(eta_star.values), grid.dx)
    fin = np.isfinite(rev.values)
    if not fin.any():
        return None, 0
    dev = float(np.max(np.abs(rev.values[fin] - target[fin])))
    scale = max(1.0, float(np.max(np.abs(target[fin]))))
    return dev / scale, int(np.sum(fin))


def gauge_deviation(factors: schrodinger.SchrodingerFactors, rho: ScalarField,
                    hbar: float) -> float:
    """Infinity norm of the change of the density ``rho`` pinned by
    ``factors`` when they are rescaled to (c eta*, eta / c), c = 1.7, a gauge
    that leaves the density as it is. Both rescaled factors are propagated
    on rho's grid, as ``schrodinger.pin_endpoints`` propagates them, so
    the two propagations differ only in the factors' scale and at c = 1
    the deviation would read exactly 0."""
    c, grid = 1.7, rho.grid
    scaled = schrodinger.SchrodingerFactors(
        eta_star_init=factors.eta_star_init * c, eta_final=factors.eta_final / c,
        residual_trace=factors.residual_trace)
    moved = schrodinger.bernstein_density(schrodinger.propagate_eta(scaled, grid, hbar),
                                          schrodinger.propagate_eta_star(scaled, grid, hbar))
    return float(np.max(np.abs(moved.values - rho.values)))


@functools.lru_cache(maxsize=None)
def erf_survival_pde() -> float:
    """The survival past a threshold of driftless unit-diffusion paths above
    an absorbing level at 0, started one unit away one time unit before the
    threshold: erf(1/sqrt 2) in exact arithmetic. ``stopping.solve_q`` on a
    grid of its own, memoised: no config reaches it."""
    # the time grid ends one step past the threshold, which solve_q needs
    # strictly inside it; the zero drift is a read-only view of one number
    grid = core.SpaceTimeGrid(xs=np.linspace(0.0, 8.0, 1601),
                              ts=np.arange(-0.5, 0.5 + 1.5 * 2e-4, 2e-4))
    flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
    flags[:, 0] = STOPPING
    sol = stopping.solve_q(stopping.SurvivalProblem(
        orientation=FORWARD, threshold=0.5,
        drift=ScalarField(grid, np.broadcast_to(0.0, (grid.nt, grid.nx))),
        mask=core.RegionMask(grid, flags), hbar=1.0))
    return float(sol.q.values[0, grid.nearest_column(1.0)])


def compare_report(a: ScalarField, b: ScalarField) -> dict:
    """Difference norms between two fields on a common grid.

    Reports the infinity norm and the grid-scaled 2-norm, and the same two
    restricted to the band ``in_band``, None where no node lies in the band.
    """
    if a.grid != b.grid:
        raise ValueError("fields must share a grid")
    d = a.values - b.values
    sel = in_band(a.grid.xs)
    dr = d[:, sel]
    return {
        "inf_norm": float(np.max(np.abs(d))),
        "scaled_2_norm": float(np.sqrt(np.mean(d * d))),
        "restricted_inf_norm": float(np.max(np.abs(dr))) if sel.any() else None,
        "restricted_scaled_2_norm": (float(np.sqrt(np.mean(dr * dr)))
                                     if sel.any() else None),
        "restriction": list(BAND),
    }


# ---------------------------------------------------------------------------
# Experiments


@dataclass(frozen=True)
class Result:
    """What one experiment produced. Its artifacts, each keyed by file name:
    its t x x ``fields`` (matrix CSVs) and its one JSON report in
    ``reports``, which holds every other number it emits. Its named checks.
    In ``data``, what a criterion reads that must not be an artifact: a
    solve time, since no timing goes into an artifact."""

    reports: dict
    checks: dict
    fields: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


def _problem(spec, nx, nt, orientation=None):
    """The spec document's problem (the worked example's when None), whether
    it is that one, and its nx x nt grid; either rejected is a ConfigError.
    So, for a run that solves in ``orientation``, is a problem whose
    obstacle underflows on that grid, or whose potential is so negative
    that the step is no M-matrix: ``hjb._operator`` judges both."""
    nx, nt = _read("nx", _integer, nx), _read("nt", _integer, nt)
    try:
        problem = ProblemSpec.from_json(analytic.WORKED_EXAMPLE if spec is None else spec)
        grid = build_grid(problem, nx, nt)
        if orientation is not None:
            hjb._operator(problem, grid, orientation)
        return problem, spec is None, grid
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _check_oracle_nodes(grid):
    """A ConfigError unless the grid has a node at x = 0, the worked
    example's stopping column, and one in the band ``in_band``: its oracle
    checks read both."""
    if abs(grid.xs[grid.nearest_column(0.0)]) > 1e-9 * grid.dx:
        raise ConfigError(
            f"nx = {grid.nx} puts no node at x = 0, the worked example's "
            f"stopping column; take an odd nx")
    if not in_band(grid.xs).any():
        # the smallest odd nx whose node spacing is at most BAND[1]
        nx = 2 * math.ceil((grid.xs[-1] - grid.xs[0]) / (2 * BAND[1])) + 1
        raise ConfigError(
            f"nx = {grid.nx} puts no node in the oracle band {BAND[0]} <= |x| "
            f"<= {BAND[1]}; take nx >= {nx}")


def sec7(orientation, seed=0, *, spec=None, nx=601, nt=2001) -> Result:
    """One obstacle solve, its value and drift, judged by its complementarity
    residual and, on the worked example, by the oracle band error and the
    x = 0 stopping column."""
    spec, is_default, grid = _problem(spec, nx, nt, orientation)
    if is_default:
        _check_oracle_nodes(grid)
    solve = (hjb.solve_forward_obstacle if orientation == FORWARD
             else hjb.solve_backward_obstacle)
    t0 = time.perf_counter()
    sol = solve(spec, grid)
    solve_s = time.perf_counter() - t0
    # the residual grid and the oracle's arrays are freed before U and the
    # drift are built
    res_norm = float(np.max(np.abs(hjb.lcp_residual(sol, spec).values)))
    checks = {"lcp_residual": res_norm <= LCP_TOL}
    report = {"lcp_residual": res_norm,
              "solves_per_step_mean": float(np.mean(sol.step_solves)),
              "solves_per_step_max": int(np.max(sol.step_solves)),
              # the x positions of each time row, in eta.csv's row order
              "free_boundary": [b.tolist() for b in sol.boundary]}
    if is_default:
        cols, full, exact = stopping_columns(sol)
        slices = band_errors(sol)
        err = max(e for _, e in slices)
        report.update(oracle_band_rel_err=err, stop_columns=cols,
                      band_slice_times=[t for t, _ in slices],
                      band_slice_rel_err=[e for _, e in slices],
                      data_row_stopped=full, origin_column_exact=exact)
        checks["oracle_agreement"] = err <= BAND_TOL
        checks["stopping_set_is_origin_column"] = full and exact
    val = hjb.value_from_eta(sol, spec.hbar)
    return Result(
        fields={"eta.csv": sol.eta, "value.csv": val.value, "drift.csv": val.drift},
        reports={"oracle_compare.json": report}, checks=checks,
        data={"solve_s": solve_s})


def classical_compare(seed=0, *, spec=None, nx=601, nt=2001) -> Result:
    """The stopped value against the fixed-horizon one: dominance on every
    spec and, on the worked example, a strict gain at (0, 1). Another spec
    may stop nowhere near (0, 1), or have zero costs, so its gain there is
    reported, not judged: 31 of 150 random specs had none."""
    spec, is_default, grid = _problem(spec, nx, nt, FORWARD)
    # only the two values are kept: each solve's eta, mask and drift are
    # freed before the next solve
    stopped = hjb.value_from_eta(hjb.solve_forward_obstacle(spec, grid),
                                 spec.hbar).value
    classical = hjb.classical_value(spec, grid, FORWARD).value
    report = compare_report(stopped, classical)
    worst, gap = value_dominance(stopped, classical)
    report.update(max_U_minus_Htilde=worst, gap_at_t0_x1=gap)
    checks = {"dominance": worst <= DOMINANCE_TOL}
    if is_default:
        checks["strict_improvement"] = gap > STRICT_GAP
    return Result(
        fields={"value_stopped.csv": stopped, "value_classical.csv": classical},
        reports={"compare.json": report}, checks=checks)


def pinning(seed=0, *, hbar=0.5, nx=201, nt=51, marginals_csv=None) -> Result:
    """Endpoint pinning of two marginals: Sinkhorn factors, propagated
    factors and density, judged by convergence, slice mass, the
    drift-reversal identity and the density's invariance under a gauge
    rescaling of the factors.

    The marginals are the Gaussians PIN_MARGINALS on the grid of
    PIN_PROBLEM, or a ``marginals_csv`` pair of x,density files on the
    grid's nodes. Where no node resolves the density the drift reversal
    checks nothing: its check fails and its error is None."""
    spec, _, grid = _problem(dict(PIN_PROBLEM, hbar=_read("hbar", _number, hbar)),
                             nx, nt)
    hbar = spec.hbar
    # Sinkhorn needs every entry of the horizon kernel positive; its
    # farthest entries, one domain width apart, underflow to 0 at a small
    # hbar on any grid, however fine
    if not np.all(np.exp(schrodinger.log_kernel(grid, hbar, grid.ts[-1] - grid.ts[0])) > 0):
        raise ConfigError(
            f"the pinning kernel over the horizon underflows to 0 at hbar = "
            f"{hbar:g} between nodes the domain width {spec.x_max - spec.x_min:g} "
            f"apart, on any grid; take a larger hbar")
    # below 1 the kernel next to the endpoint slices is narrower than a
    # node spacing, and the slice masses drift
    resolution = math.sqrt(hbar * grid.dt) / grid.dx
    if resolution < 1:
        raise ConfigError(
            f"the pinning kernel over one time step is {resolution:.3g} node "
            f"spacings wide (sqrt(hbar dt) / dx), under 1; take nx >= "
            f"{math.ceil((grid.nx - 1) / resolution) + 1}")
    if marginals_csv is not None:
        if not (isinstance(marginals_csv, (list, tuple)) and len(marginals_csv) == 2
                and all(isinstance(p, str) for p in marginals_csv)):
            raise ConfigError(f"marginals_csv must be a pair of paths [init, "
                              f"final], got {marginals_csv!r}")
        try:
            marg = schrodinger.MarginalPair.from_csv(*marginals_csv)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"marginals_csv: {exc}") from None
        if marg.xs.shape != grid.xs.shape or not np.allclose(marg.xs, grid.xs):
            raise ConfigError(
                f"the {marg.xs.size} marginal CSV nodes on [{marg.xs[0]}, "
                f"{marg.xs[-1]}] are not the grid's {grid.nx} on "
                f"[{spec.x_min}, {spec.x_max}]")
    else:
        p_init, p_final = (np.exp(-((grid.xs - mean) ** 2) / (2 * sd**2))
                           for mean, sd in PIN_MARGINALS)
        marg = schrodinger.MarginalPair(xs=grid.xs, p_init=p_init,
                                        p_final=p_final)
    factors, eta, eta_star, rho = schrodinger.pin_endpoints(marg, grid, hbar)
    masses = schrodinger.slice_mass(rho)
    mass_dev = float(np.max(np.abs(masses - 1.0)))
    rev_err, nodes = drift_reversal_error(eta, eta_star, rho, hbar)
    gauge_dev = gauge_deviation(factors, rho, hbar)
    report = {
        "iterations": factors.iterations,
        "marginal_residual": factors.final_marginal_error,
        # one marginal residual per Sinkhorn iteration
        "residual_trace": factors.residual_trace.tolist(),
        "slice_masses": masses.tolist(),
        "max_mass_deviation": mass_dev,
        "drift_reversal_scaled_err": rev_err,
        "reversal_nodes": nodes,
        "gauge_deviation": gauge_dev,
        "kernel_sd_over_dx": resolution,
        "tolerance": schrodinger.SINKHORN_TOL,
        "gauge": "eta_star_init equals 1 at the middle node",
        "monotone_residuals": bool(factors.monotone),
        # the factors on rho.csv's x nodes
        "eta_star_init": factors.eta_star_init.tolist(),
        "eta_final": factors.eta_final.tolist(),
    }
    return Result(
        fields={"rho.csv": rho},
        reports={"schrodinger_report.json": report},
        checks={"sinkhorn_converged":
                factors.final_marginal_error <= schrodinger.SINKHORN_TOL,
                "mass_conservation": mass_dev <= MASS_TOL,
                "drift_reversal": nodes > 0 and rev_err <= REVERSAL_TOL,
                "gauge_invariance": gauge_dev <= GAUGE_TOL})


def stopping_dist(seed=0, *, spec=None, nx=601, nt=2001, thresholds=(0.25,),
                  checkpoints=(-0.3, -0.1, 0.1, 0.2), start=None, dt=1e-3,
                  n_paths=20000) -> Result:
    """Survival functions of the optimally stopped forward process against
    a Monte Carlo ensemble: the survival probability at the start and the
    martingale property of q along the paths. On the worked example, the
    ensemble's mean action is also judged against the oracle value U at the
    start, as ``sec7`` judges its oracle checks there.

    Both checks read the first threshold's q. Its q_pde is q at the exact
    start, read by the interpolator that reads q along the paths."""
    spec, is_default, grid = _problem(spec, nx, nt, FORWARD)
    start = _read("start", lambda v: tuple(map(_number, v)),
                  (-spec.half_horizon, 1.0) if start is None else start)
    if len(start) != 2:
        raise ConfigError(f"start: expected a pair [t, x], got {list(start)}")
    dt, n_paths = _read("dt", _number, dt), _read("n_paths", _integer, n_paths)
    checkpoints = _read("checkpoints", lambda v: tuple(map(_number, v)),
                        checkpoints)
    thresholds = _read("thresholds", lambda v: list(map(_number, v)),
                       thresholds)
    try:
        sim = simulate.SimConfig(dt=dt, n_paths=n_paths, seed=seed,
                                 start=start, checkpoints=checkpoints)
        simulate.check_start(spec, FORWARD, sim)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if sim.n_paths < 2:
        raise ConfigError(f"stopping-dist needs n_paths >= 2 for a standard "
                          f"error, got {sim.n_paths}")
    if not sim.checkpoints:
        raise ConfigError("stopping-dist needs at least one checkpoint")
    if not thresholds:
        raise ConfigError("stopping-dist needs at least one threshold")
    try:
        rows = {}
        for thr in thresholds:
            k = grid.exact_row(thr)
            if k in rows:
                raise ValueError(f"{rows[k]!r} and {thr!r} are both the grid "
                                 f"time {float(grid.ts[k])!r}")
            rows[k] = thr
            stopping.check_threshold(grid.ts, thr)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"thresholds: {exc}") from None
    # the solve's eta is freed once its drift is built
    val = hjb.value_from_eta(hjb.solve_forward_obstacle(spec, grid), spec.hbar)
    sols = [stopping.solve_q(stopping.SurvivalProblem(
                orientation=FORWARD, threshold=thr, drift=val.drift,
                mask=val.mask, hbar=spec.hbar))
            for thr in thresholds]

    ens = simulate.simulate_forward(spec, val.drift, val.mask, sim)
    qsol = sols[0]
    emp = stopping.empirical_survival(ens, qsol.threshold)
    mart = stopping.martingale_check(qsol, ens, sim.checkpoints)
    # q at the exact start, read as the martingale check reads it, and
    # reported once, as q_pde
    q0 = mart.pop("q_at_start")
    survival = {"q_pde": q0, "q_mc": emp, "threshold": qsol.threshold,
                "ensemble": ens.summary(), "martingale": mart,
                "q_unclamped_range": (list(qsol.unclamped_range)
                                      if qsol.unclamped_range else None)}
    checks = {"pde_vs_mc": abs(emp["estimate"] - q0) <= 3 * emp["stderr"],
              "martingale": mart["all_within_3_stderr"]}
    if is_default:
        u = survival["oracle_U"] = -HBAR * math.log(
            analytic.sec7_eta_forward(*sim.start, HBAR, T))
        action = survival["ensemble"]["action_value"]
        checks["action_matches_value"] = abs(action["mean"] - u) <= 3 * action["stderr"]
    return Result(
        fields={f"q_{s.threshold!r}.csv": s.q for s in sols},
        reports={"survival_compare.json": survival},
        checks=checks)


def barrier(seed=0, *, n_paths=100000) -> Result:
    """Driftless worked-example paths from (-T/2, 1), absorbed at x = 0 and
    stopped nowhere else, at dt = 1e-3. They survive to the horizon with
    probability erf(1/sqrt 2), which the survival PDE (``erf_survival_pde``)
    and the ensemble must each reproduce. Their stopping rule is not the
    optimal one, so their mean action must not fall below the oracle value
    U(-T/2, 1)."""
    n_paths = _read("n_paths", _integer, n_paths)
    if n_paths < 2:
        raise ConfigError(f"barrier needs n_paths >= 2 for a standard error, "
                          f"got {n_paths}")
    spec = ProblemSpec.from_json(analytic.WORKED_EXAMPLE)
    start = (-T / 2, 1.0)
    ens = simulate.simulate_forward(
        spec, None, None,
        simulate.SimConfig(dt=1e-3, n_paths=n_paths, seed=seed, start=start),
        barrier=0.0)
    ref = math.erf(1.0 / math.sqrt(2.0))
    q_pde = erf_survival_pde()
    q_mc = stopping.empirical_survival(ens, T / 2 - 1e-9)
    u = -HBAR * math.log(analytic.sec7_eta_forward(*start, HBAR, T))
    summary = ens.summary()
    action = summary["action_value"]
    return Result(
        reports={"barrier.json": {"erf_ref": ref, "erf_pde": q_pde, "erf_mc": q_mc,
                                  "oracle_U": u, "ensemble": summary}},
        checks={"erf_pde": abs(q_pde - ref) <= ERF_TOL,
                "erf_mc": abs(q_mc["estimate"] - ref) <= 3 * q_mc["stderr"],
                "action_not_below_value": action["mean"] >= u - 3 * action["stderr"]})


def bridge_test(seed=0, *, n_seeds=20, n_paths=100000, n_bins=30) -> Result:
    """The two-sided Markov bridge chi-square test over consecutive seeds;
    all but one must pass, and at least one."""
    n_seeds, n_paths, n_bins = (_read("n_seeds", _integer, n_seeds),
                                _read("n_paths", _integer, n_paths),
                                _read("n_bins", _integer, n_bins))
    if n_seeds < 1:
        raise ConfigError(f"bridge-test needs n_seeds >= 1, got {n_seeds}")
    _read("the last seed, seed + n_seeds - 1", _seed, seed + n_seeds - 1)
    # the bins are equal-probability: n_paths / n_bins paths expected in each
    if n_bins < 2 or n_paths < 5 * n_bins:
        raise ConfigError(f"bridge-test needs n_bins >= 2 and n_paths >= 5 "
                          f"n_bins, got n_bins = {n_bins}, n_paths = {n_paths}")
    runs = [simulate.bridge_markov_test(**BRIDGE, n_paths=n_paths,
                                        n_bins=n_bins, seed=seed + i)
            for i in range(n_seeds)]
    reports = [{"seed": seed + i, "p_value": r["p_value"], "passed": r["passed"]}
               for i, r in enumerate(runs)]
    passes = sum(r["passed"] for r in runs)
    return Result(reports={"bridge_test.json": {"runs": reports, "passes": passes}},
                  checks={"bridge_pass_rate": passes >= max(1, n_seeds - 1)})


def convergence_study(seed=0, *,
                      levels=((151, 126), (301, 501), (601, 2001))) -> Result:
    """The forward band error of the worked example on refined grids; each
    refinement must gain at least first order."""
    levels = _read("levels", lambda v: [(_integer(nx), _integer(nt))
                                        for nx, nt in v], levels)
    if len(levels) < 2:
        raise ConfigError(f"convergence-study needs at least two levels to "
                          f"measure an order, got {len(levels)}")
    problems = [_problem(None, nx, nt) for nx, nt in levels]
    for _, _, grid in problems:
        _check_oracle_nodes(grid)
    errs = [max(e for _, e in band_errors(hjb.solve_forward_obstacle(spec, grid)))
            for spec, _, grid in problems]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    rows = [{"nx": nx, "nt": nt, "band_rel_err": e}
            for (nx, nt), e in zip(levels, errs)]
    return Result(reports={"convergence.json": {"levels": rows, "orders": orders}},
                  checks={"order_at_least_1": all(o >= 1.0 for o in orders)})


#: experiment name -> experiment(seed=0, *, config keys) -> Result
RUNNERS = {
    "sec7-forward": functools.partial(sec7, FORWARD),
    "sec7-backward": functools.partial(sec7, BACKWARD),
    "sec7-classical-compare": classical_compare,
    "schrodinger": pinning,
    "stopping-dist": stopping_dist,
    "barrier": barrier,
    "bridge-test": bridge_test,
    "convergence-study": convergence_study,
}
