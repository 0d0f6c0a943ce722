"""The ten end-to-end acceptance criteria.

Each criterion runs the experiments of ``bernstein run`` (``experiments``)
at their default configs and passes on those experiments' checks; the
checks and their gates are defined there, once. On top, a criterion adds
only what ``bernstein run`` has no counterpart for: criterion 1's runtime,
criterion 4, criterion 5's erf and multi-start parts, and criterion 6's
gauge test. The worked example is V = 0, S = |x|, S* = log(1+|x|),
hbar = 1, T = 1 (see ``analytic.WORKED_EXAMPLE``).

Each criterion is a function returning a CriterionResult; ``run_all`` runs
and times them in order. Each experiment runs once per process and is
shared by the criteria that read it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import analytic, experiments, schrodinger, simulate, stopping
from .core import (
    BACKWARD,
    FORWARD,
    STOPPING,
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
)
from .experiments import HBAR, LCP_TOL, T

#: seed of the optimally stopped ensemble of criteria 4 and 5
MC_SEED = 20260823


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


@lru_cache(maxsize=None)
def _run(name: str, seed: int = 0) -> experiments.Result:
    """An experiment at its default config, run once per process."""
    return experiments.RUNNERS[name](seed)


def criterion_1() -> CriterionResult:
    fwd, bwd = _run("sec7-forward"), _run("sec7-backward")
    t_fwd, t_bwd = fwd.data["solve_s"], bwd.data["solve_s"]
    ok = (fwd.checks["oracle_agreement"] and bwd.checks["oracle_agreement"]
          and t_fwd <= 60 and t_bwd <= 60)
    return CriterionResult(1, "fine-grid oracle agreement", ok, {
        "forward_rel_err":
            f"{fwd.reports['oracle_compare.json']['oracle_band_rel_err']:.3e}",
        "backward_rel_err":
            f"{bwd.reports['oracle_compare.json']['oracle_band_rel_err']:.3e}",
        "forward_runtime_s": f"{t_fwd:.1f}",
        "backward_runtime_s": f"{t_bwd:.1f}",
    })


def criterion_2() -> CriterionResult:
    fwd, bwd = _run("sec7-forward"), _run("sec7-backward")
    ok = (fwd.checks["stopping_set_is_origin_column"]
          and bwd.checks["stopping_set_is_origin_column"])
    return CriterionResult(2, "free boundary is exactly the x=0 column", ok, {
        "forward_stop_columns": fwd.data["stop_columns"],
        "backward_stop_columns": bwd.data["stop_columns"],
        "forward_data_row_stopped":
            fwd.reports["oracle_compare.json"]["data_row_stopped"],
        "backward_data_row_stopped":
            bwd.reports["oracle_compare.json"]["data_row_stopped"],
    })


def criterion_3() -> CriterionResult:
    out = {}
    ok = True
    for orientation in (FORWARD, BACKWARD):
        res = _run(f"sec7-{orientation}")
        norm = res.reports["oracle_compare.json"]["lcp_residual"]
        out[f"{orientation}_residual"] = f"{norm:.3e}"
        ok = ok and res.checks["lcp_residual"]
    out["threshold"] = f"{LCP_TOL:.1e}"
    return CriterionResult(3, "complementarity residual", ok, out)


def criterion_4() -> CriterionResult:
    spec = ProblemSpec.from_json(analytic.WORKED_EXAMPLE)
    oracle_u = -HBAR * math.log(analytic.sec7_eta_forward(-T / 2, 1.0, HBAR, T))
    opt = _run("stopping-dist", MC_SEED).data["ensemble"].summary()["action_value"]
    dev = abs(opt["mean"] - oracle_u)
    ok_opt = dev <= 3 * opt["stderr"]

    cfg = simulate.SimConfig(dt=1e-3, n_paths=20000, seed=7, start=(-T / 2, 1.0))
    sub_ens = simulate.simulate_forward(spec, None, None, cfg, barrier=0.0)
    sub = sub_ens.summary()["action_value"]
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
    return float(sol.q.values[0, grid.nearest_column(1.0)])


def criterion_5() -> CriterionResult:
    spec = ProblemSpec.from_json(analytic.WORKED_EXAMPLE)
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

    run = _run("stopping-dist", MC_SEED)
    qsol = run.data["q_solutions"][0]
    val = run.data["value"]
    grid = val.value.grid
    agree = []
    for i, x0 in enumerate((0.4, 0.8, 1.2, 1.6, 2.0)):
        cfg = simulate.SimConfig(dt=1e-3, n_paths=20000, seed=100 + i,
                                 start=(-T / 2, x0))
        e = simulate.simulate_forward(spec, val.drift, val.mask, cfg)
        emp = stopping.empirical_survival(e, qsol.threshold)
        q0 = float(qsol.q.values[0, grid.nearest_column(x0)])
        agree.append(abs(emp["estimate"] - q0) <= 3 * emp["stderr"])
        details[f"survival_x{x0}"] = (
            f"pde {q0:.4f} vs mc {emp['estimate']:.4f} "
            f"+/- {emp['stderr']:.4f}"
        )
    ok = ok and all(agree) and run.checks["martingale"]
    details["martingale_ok"] = run.checks["martingale"]
    return CriterionResult(5, "stopping-time distribution", ok, details)


def criterion_6() -> CriterionResult:
    run = _run("schrodinger")
    factors, hbar = run.data["factors"], run.data["hbar"]
    rho = run.fields["rho.csv"]

    # gauge rescaling (c eta*, eta / c) must leave rho untouched
    c = 1.7
    scaled = schrodinger.SchrodingerFactors(
        eta_star_init=factors.eta_star_init * c,
        eta_final=factors.eta_final / c,
        residual_trace=factors.residual_trace,
    )
    rho2 = schrodinger.bernstein_density(
        schrodinger.propagate_eta(scaled, rho.grid, hbar),
        schrodinger.propagate_eta_star(scaled, rho.grid, hbar),
    )
    gauge_dev = float(np.max(np.abs(rho2.values - rho.values)))
    ok = (run.checks["sinkhorn_converged"] and run.checks["mass_conservation"]
          and gauge_dev <= 1e-12)
    return CriterionResult(6, "endpoint-pinning integral system", ok, {
        "iterations": factors.iterations,
        "marginal_residual": f"{factors.final_marginal_error:.2e}",
        "max_mass_deviation": f"{run.data['mass_deviation']:.2e}",
        "gauge_deviation": f"{gauge_dev:.2e}",
    })


def criterion_7() -> CriterionResult:
    run = _run("schrodinger")
    err = run.reports["schrodinger_report.json"]["drift_reversal_scaled_err"]
    return CriterionResult(7, "drift reversal identity",
                           run.checks["drift_reversal"], {
        "scaled_inf_error": f"{err:.2e}",
        "nodes_checked": run.data["reversal_nodes"],
    })


def criterion_8() -> CriterionResult:
    run = _run("bridge-test")
    rep = run.reports["bridge_test.json"]
    return CriterionResult(8, "two-sided Markov bridge test",
                           run.checks["bridge_pass_rate"], {
        "passes": f"{rep['passes']}/{len(rep['runs'])}",
        "p_values": [round(r["p_value"], 4) for r in rep["runs"]],
    })


def criterion_9() -> CriterionResult:
    run = _run("sec7-classical-compare")
    rep = run.reports["compare.json"]
    return CriterionResult(9, "stopping strictly improves the fixed-horizon value",
                           run.checks["dominance"] and run.checks["strict_improvement"], {
        "max_U_minus_Htilde": f"{rep['max_U_minus_Htilde']:.2e}",
        "gap_at_(0,1)": f"{rep['gap_at_t0_x1']:.4f}",
    })


def criterion_10() -> CriterionResult:
    run = _run("convergence-study")
    rep = run.reports["convergence.json"]
    return CriterionResult(10, "grid convergence order",
                           run.checks["order_at_least_1"], {
        "errors": [f"{lv['band_rel_err']:.2e}" for lv in rep["levels"]],
        "orders": [f"{o:.2f}" for o in rep["orders"]],
    })


ALL_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_all(numbers=None) -> list:
    """Run the criteria in order, each timed into its detail ``wall_s``.
    The criteria share the cached experiment runs (``_run``), so a shared
    run's cost falls on the first criterion that needs it."""
    results = []
    for n in sorted(numbers or ALL_CRITERIA):
        start = time.perf_counter()
        r = ALL_CRITERIA[n]()
        wall_s = f"{time.perf_counter() - start:.2f}"
        results.append(replace(r, details={**r.details, "wall_s": wall_s}))
    return results
