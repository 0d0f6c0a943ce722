"""Acceptance checks, each defined once with its gate, and the ten
end-to-end criteria built from them.

The checks (the oracle band error, the x = 0 stopping-column test, value
dominance and the drift-reversal error) and their gates live here. ``cli``
builds, runs and persists an experiment, then calls these checks on its
results; the criteria call them on the worked example (V = 0, S = |x|,
S* = log(1+|x|), hbar = 1, T = 1; see ``analytic.WORKED_EXAMPLE``) and on
the endpoint-pinning pipeline.

Each criterion is a function returning a CriterionResult; ``run_all`` runs
them in order. Expensive artifacts (the fine-grid solves, ensembles, oracle
tables) are computed once and shared.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import analytic, core, hjb, schrodinger, simulate, stopping
from .core import (
    BACKWARD,
    FORWARD,
    STOPPING,
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
)

HBAR = analytic.WORKED_EXAMPLE["hbar"]
T = 2 * analytic.WORKED_EXAMPLE["half_horizon"]
BIG_NX, BIG_NT = 601, 2001
#: evaluation slices common to all refinement levels (multiples of 0.008)
SLICE_TIMES = (-0.5, -0.34, -0.14, 0.06, 0.26, 0.46)
BAND = (0.1, 2.5)

#: Gates shared by the criteria and the checks ``bernstein run`` embeds.
BAND_TOL = 1e-2  # relative error of U against the oracle on the band
DOMINANCE_TOL = 1e-6  # max(U - H~): stopping never costs more
STRICT_GAP = 1e-3  # H~ - U at (0, 1); both carry O(dx^2 + dt) error
REVERSAL_TOL = 1e-3  # scaled drift-reversal error
MASS_TOL = 1e-6  # slice-mass deviation of the pinned density from 1
LCP_TOL = 1e-9  # scaled complementarity residual of an obstacle solve


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ", ".join(
            f"{k}=[{', '.join(map(str, v))}]" if isinstance(v, list) else f"{k}={v}"
            for k, v in self.details.items())
        return f"{status} criterion {self.number}: {self.name} ({extra})"


# ---------------------------------------------------------------------------
# Checks


def sec7_oracle(orientation: str, hbar: float, T: float):
    """The worked example's quadrature oracle for eta (forward) or eta*
    (backward), as a function of (t, x)."""
    f = (analytic.sec7_eta_forward if orientation == FORWARD
         else analytic.sec7_eta_backward)
    return lambda t, x: f(t, x, hbar, T)


def band_error(sol: hjb.EtaSolution, hbar: float, rows, oracle,
               lo=BAND[0], hi=BAND[1]) -> float:
    """Relative infinity-norm error of U = -hbar log(eta) against an oracle
    over the band lo <= |x| <= hi.

    ``rows`` holds (k, t) pairs: the grid row to sample and the time passed
    to ``oracle(t, x)``, which returns the reference eta.
    """
    grid = sol.eta.grid
    sel = (np.abs(grid.xs) >= lo - 1e-12) & (np.abs(grid.xs) <= hi + 1e-12)
    xs = grid.xs[sel]
    worst = 0.0
    for k, t in rows:
        u = -hbar * np.log(sol.eta.values[k, sel])
        for j, x in enumerate(xs):
            ref = -hbar * math.log(oracle(t, x))
            worst = max(worst, abs(u[j] - ref) / max(abs(ref), 1e-12))
    return worst


def stopping_columns(sol: hjb.EtaSolution):
    """Distinct stopped x positions over the solved rows, whether the data
    row is fully stopped, and whether the solved rows stop exactly on the
    x = 0 column."""
    flags = sol.mask.flags
    grid = sol.eta.grid
    data_row = -1 if sol.orientation == FORWARD else 0
    solved = np.delete(flags, data_row, axis=0)
    cols = sorted(set(grid.xs[np.nonzero(np.any(solved == STOPPING, axis=0))[0]]))
    full = bool(np.all(flags[data_row] == STOPPING))
    exact = bool(np.all(
        (solved == STOPPING) == (np.abs(grid.xs) < grid.dx / 2)[None, :]
    ))
    return cols, full, exact


def value_dominance(stopped: ScalarField, classical: ScalarField):
    """max(U - H~) over the grid for the stopped value U and the
    fixed-horizon value H~, and the gain H~ - U at the node nearest
    (t, x) = (0, 1)."""
    grid = stopped.grid
    worst = float(np.max(stopped.values - classical.values))
    j = int(np.argmin(np.abs(grid.xs - 1.0)))
    k = int(np.argmin(np.abs(grid.ts - 0.0)))
    return worst, float(classical.values[k, j] - stopped.values[k, j])


def drift_reversal_error(eta: ScalarField, eta_star: ScalarField,
                         rho: ScalarField, hbar: float):
    """Scaled infinity error of B - hbar d/dx log(rho), with
    B = hbar d/dx log(eta), against -hbar d/dx log(eta*), over the nodes
    where rho is resolved; returns (error, nodes checked)."""
    grid = rho.grid
    drift = ScalarField(grid, hbar * core.gradient_rows(np.log(eta.values), grid.dx))
    rev = simulate.reversed_drift(drift, rho, hbar)
    target = -hbar * core.gradient_rows(np.log(eta_star.values), grid.dx)
    fin = np.isfinite(rev.values)
    dev = float(np.max(np.abs(rev.values[fin] - target[fin])))
    scale = max(1.0, float(np.max(np.abs(target[fin]))))
    return dev / scale, int(np.sum(fin))


# ---------------------------------------------------------------------------
# Criteria


@lru_cache(maxsize=None)
def example_spec() -> ProblemSpec:
    return ProblemSpec.from_json(analytic.WORKED_EXAMPLE)


@lru_cache(maxsize=None)
def _solve(orientation: str, nx: int, nt: int):
    spec = example_spec()
    grid = core.build_grid(spec, nx, nt)
    solve = (hjb.solve_forward_obstacle if orientation == FORWARD
             else hjb.solve_backward_obstacle)
    t0 = time.perf_counter()
    sol = solve(spec, grid, hjb.SolverConfig())
    return sol, time.perf_counter() - t0


_ORACLE = {}


def _oracle_eta(orientation: str, t: float, x: float) -> float:
    key = (orientation, round(t, 12), round(x, 12))
    if key not in _ORACLE:
        _ORACLE[key] = sec7_oracle(orientation, HBAR, T)(t, x)
    return _ORACLE[key]


def _slice_index(grid: SpaceTimeGrid, t: float) -> int:
    k = int(round((t - grid.ts[0]) / grid.dt))
    if abs(grid.ts[k] - t) > 1e-9:
        raise ValueError(f"slice time {t} not on grid")
    return k


def _band_error(sol: hjb.EtaSolution) -> float:
    """The band error on the common evaluation slices, memoised oracle."""
    rows = [(_slice_index(sol.eta.grid, t), t) for t in SLICE_TIMES]
    return band_error(sol, HBAR, rows,
                      lambda t, x: _oracle_eta(sol.orientation, t, x))


def criterion_1() -> CriterionResult:
    fwd, t_fwd = _solve(FORWARD, BIG_NX, BIG_NT)
    bwd, t_bwd = _solve(BACKWARD, BIG_NX, BIG_NT)
    err_f = _band_error(fwd)
    err_b = _band_error(bwd)
    ok = (err_f <= BAND_TOL and err_b <= BAND_TOL
          and t_fwd <= 60 and t_bwd <= 60)
    return CriterionResult(1, "fine-grid oracle agreement", ok, {
        "forward_rel_err": f"{err_f:.3e}",
        "backward_rel_err": f"{err_b:.3e}",
        "forward_runtime_s": f"{t_fwd:.1f}",
        "backward_runtime_s": f"{t_bwd:.1f}",
    })


def criterion_2() -> CriterionResult:
    cols_f, full_f, exact_f = stopping_columns(_solve(FORWARD, BIG_NX, BIG_NT)[0])
    cols_b, full_b, exact_b = stopping_columns(_solve(BACKWARD, BIG_NX, BIG_NT)[0])
    ok = exact_f and full_f and exact_b and full_b
    return CriterionResult(2, "free boundary is exactly the x=0 column", ok, {
        "forward_stop_columns": cols_f,
        "backward_stop_columns": cols_b,
        "forward_data_row_stopped": full_f,
        "backward_data_row_stopped": full_b,
    })


def criterion_3() -> CriterionResult:
    spec = example_spec()
    out = {}
    ok = True
    for orientation in (FORWARD, BACKWARD):
        sol, _ = _solve(orientation, BIG_NX, BIG_NT)
        res = hjb.lcp_residual(sol, spec, sol.eta.grid)
        norm = float(np.max(np.abs(res.values)))
        out[f"{orientation}_residual"] = f"{norm:.3e}"
        ok = ok and norm <= LCP_TOL
    out["threshold"] = f"{LCP_TOL:.1e}"
    return CriterionResult(3, "complementarity residual", ok, out)


@lru_cache(maxsize=None)
def _big_value() -> hjb.ValueSolution:
    sol, _ = _solve(FORWARD, BIG_NX, BIG_NT)
    return hjb.value_from_eta(sol, HBAR)


CHECKPOINTS = (-0.3, -0.1, 0.1, 0.2)


@lru_cache(maxsize=None)
def _optimal_ensemble(x0: float = 1.0, n_paths: int = 20000,
                      seed: int = 20260823) -> simulate.PathEnsemble:
    spec = example_spec()
    val = _big_value()
    cfg = simulate.SimConfig(
        dt=1e-3, n_paths=n_paths, seed=seed, start=(-T / 2, x0),
        checkpoints=CHECKPOINTS,
    )
    return simulate.simulate_forward(spec, val.drift, val.mask, cfg)


def criterion_4() -> CriterionResult:
    spec = example_spec()
    oracle_u = -HBAR * math.log(analytic.sec7_eta_forward(-T / 2, 1.0, HBAR, T))
    opt = simulate.action_estimate(_optimal_ensemble())
    dev = abs(opt["mean"] - oracle_u)
    ok_opt = dev <= 3 * opt["stderr"]

    cfg = simulate.SimConfig(dt=1e-3, n_paths=20000, seed=7, start=(-T / 2, 1.0))
    sub_ens = simulate.simulate_forward(spec, None, None, cfg, barrier=0.0)
    sub = simulate.action_estimate(sub_ens)
    ok_sub = sub["mean"] >= oracle_u - 3 * sub["stderr"]
    return CriterionResult(4, "Monte Carlo action matches the value function",
                           ok_opt and ok_sub, {
        "oracle_U": f"{oracle_u:.6f}",
        "optimal_mean": f"{opt['mean']:.6f}",
        "optimal_stderr": f"{opt['stderr']:.2e}",
        "suboptimal_mean": f"{sub['mean']:.6f}",
        "suboptimal_stderr": f"{sub['stderr']:.2e}",
    })


def _erf_survival_pde() -> float:
    # driftless unit-diffusion survival above an absorbing level at 0,
    # started one unit away one time unit before the threshold
    xs = np.linspace(0.0, 8.0, 1601)
    ts = np.arange(-0.5, 0.6 + 1e-12, 2e-4)
    grid = SpaceTimeGrid(xs=xs, ts=ts)
    flags = np.zeros((grid.nt, grid.nx), dtype=np.int8)
    flags[:, 0] = STOPPING
    mask = RegionMask(grid, flags)
    drift = ScalarField(grid, np.zeros((grid.nt, grid.nx)))
    prob = stopping.SurvivalProblem(
        orientation=FORWARD, threshold=0.5, drift=drift, mask=mask, hbar=1.0,
    )
    sol = stopping.solve_q(prob)
    j = int(round((1.0 - xs[0]) / grid.dx))
    return float(sol.q.values[0, j])


@lru_cache(maxsize=None)
def _q_solution() -> stopping.SurvivalSolution:
    val = _big_value()
    prob = stopping.SurvivalProblem(
        orientation=FORWARD, threshold=0.25, drift=val.drift,
        mask=val.mask, hbar=HBAR,
    )
    return stopping.solve_q(prob)


def criterion_5() -> CriterionResult:
    spec = example_spec()
    erf_ref = math.erf(1.0 / math.sqrt(2.0))
    details = {}
    q_pde = _erf_survival_pde()
    ok = abs(q_pde - erf_ref) <= 1e-3
    details["erf_pde"] = f"{q_pde:.6f} (ref {erf_ref:.6f})"

    cfg = simulate.SimConfig(dt=1e-3, n_paths=100000, seed=11,
                             start=(-T / 2, 1.0))
    ens = simulate.simulate_forward(spec, None, None, cfg, barrier=0.0)
    surv = stopping.empirical_survival(ens, T / 2 - 1e-9)
    ok_mc = abs(surv["estimate"] - erf_ref) <= 3 * surv["stderr"]
    ok = ok and ok_mc
    details["erf_mc"] = f"{surv['estimate']:.5f} +/- {surv['stderr']:.5f}"

    qsol = _q_solution()
    val = _big_value()
    grid = val.value.grid
    agree = []
    for i, x0 in enumerate((0.4, 0.8, 1.2, 1.6, 2.0)):
        cfg = simulate.SimConfig(dt=1e-3, n_paths=20000, seed=100 + i,
                                 start=(-T / 2, x0))
        e = simulate.simulate_forward(spec, val.drift, val.mask, cfg)
        emp = stopping.empirical_survival(e, 0.25)
        j = int(round((x0 - grid.xs[0]) / grid.dx))
        q0 = float(qsol.q.values[0, j])
        agree.append(abs(emp["estimate"] - q0) <= 3 * emp["stderr"])
        details[f"survival_x{x0}"] = (
            f"pde {q0:.4f} vs mc {emp['estimate']:.4f} "
            f"+/- {emp['stderr']:.4f}"
        )
    ok = ok and all(agree)

    mart = stopping.martingale_check(qsol, _optimal_ensemble(), CHECKPOINTS)
    ok = ok and mart["all_within_3_stderr"]
    details["martingale_ok"] = mart["all_within_3_stderr"]
    return CriterionResult(5, "stopping-time distribution", ok, details)


@lru_cache(maxsize=None)
def _schrodinger_pipeline():
    xs = np.linspace(-4.0, 4.0, 201)
    ts = np.linspace(-0.5, 0.5, 51)
    grid = SpaceTimeGrid(xs=xs, ts=ts)
    hbar = 0.5

    def gauss(x, mu, sd):
        return np.exp(-((x - mu) ** 2) / (2 * sd * sd)) / (sd * math.sqrt(2 * math.pi))

    marg = schrodinger.MarginalPair(
        xs=xs, p_init=gauss(xs, -1.0, 0.35), p_final=gauss(xs, 1.0, 0.35),
    )
    return (grid, hbar,
            *schrodinger.pin_endpoints(marg, grid, hbar, tol=1e-8, max_iter=500))


def criterion_6() -> CriterionResult:
    grid, hbar, factors, eta, eta_star, rho = _schrodinger_pipeline()
    masses = schrodinger.slice_mass(rho)
    mass_dev = float(np.max(np.abs(masses - 1.0)))

    # gauge rescaling (c eta*, eta / c) must leave rho untouched
    c = 1.7
    scaled = schrodinger.SchrodingerFactors(
        eta_star_init=factors.eta_star_init * c,
        eta_final=factors.eta_final / c,
        iterations=factors.iterations,
        final_marginal_error=factors.final_marginal_error,
    )
    rho2 = schrodinger.bernstein_density(
        schrodinger.propagate_eta(scaled, grid, hbar),
        schrodinger.propagate_eta_star(scaled, grid, hbar),
    )
    gauge_dev = float(np.max(np.abs(rho2.values - rho.values)))
    ok = (factors.final_marginal_error <= 1e-8 and factors.iterations <= 500
          and mass_dev <= MASS_TOL and gauge_dev <= 1e-12)
    return CriterionResult(6, "endpoint-pinning integral system", ok, {
        "iterations": factors.iterations,
        "marginal_residual": f"{factors.final_marginal_error:.2e}",
        "max_mass_deviation": f"{mass_dev:.2e}",
        "gauge_deviation": f"{gauge_dev:.2e}",
    })


def criterion_7() -> CriterionResult:
    _, hbar, _, eta, eta_star, rho = _schrodinger_pipeline()
    err, nodes = drift_reversal_error(eta, eta_star, rho, hbar)
    return CriterionResult(7, "drift reversal identity", err <= REVERSAL_TOL, {
        "scaled_inf_error": f"{err:.2e}",
        "nodes_checked": nodes,
    })


def criterion_8() -> CriterionResult:
    passes = 0
    pvals = []
    for seed in range(20):
        rep = simulate.bridge_markov_test(
            s=0.0, x=0.0, u=1.0, z=0.0, t=0.5, hbar=1.0,
            n_paths=100000, n_bins=30, seed=seed,
        )
        passes += rep["passed"]
        pvals.append(round(rep["p_value"], 4))
    ok = passes >= 19
    return CriterionResult(8, "two-sided Markov bridge test", ok, {
        "passes": f"{passes}/20",
        "p_values": pvals,
    })


def criterion_9() -> CriterionResult:
    fwd, _ = _solve(FORWARD, BIG_NX, BIG_NT)
    classical = hjb.classical_value(example_spec(), fwd.eta.grid, FORWARD)
    worst, strict_gap = value_dominance(_big_value().value, classical.value)
    ok = worst <= DOMINANCE_TOL and strict_gap > STRICT_GAP
    return CriterionResult(9, "stopping strictly improves the fixed-horizon value",
                           ok, {
        "max_U_minus_Htilde": f"{worst:.2e}",
        "gap_at_(0,1)": f"{strict_gap:.4f}",
    })


def criterion_10() -> CriterionResult:
    levels = [(151, 126), (301, 501), (601, 2001)]
    errs = [_band_error(_solve(FORWARD, nx, nt)[0]) for nx, nt in levels]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = all(o >= 1.0 for o in orders)
    return CriterionResult(10, "grid convergence order", ok, {
        "errors": [f"{e:.2e}" for e in errs],
        "orders": [f"{o:.2f}" for o in orders],
    })


ALL_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_all(numbers=None) -> list:
    numbers = sorted(numbers) if numbers else sorted(ALL_CRITERIA)
    return [ALL_CRITERIA[n]() for n in numbers]
