"""The ten end-to-end acceptance criteria, as one table.

A criterion is a name and rows (runs, report, checks, figures). A row reads
runs of the experiments of ``bernstein run`` and one report file of each
(None for ``Result.data``). Each check, a check name or a gate on the
report, must pass on each run, and each figure {detail: format or function
of the report} is printed for each run, the run's label filling the
detail's {}. So ``bernstein run`` writes every figure a criterion judges;
the one gate judged here is criterion 1's runtime, as no timing goes into
an artifact.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

from . import experiments

#: runs, each (experiment, seed, config items), by label; a lone run's is ""
SOLVES = {"forward": ("sec7-forward", 0, ()), "backward": ("sec7-backward", 0, ())}
PIN = {"": ("schrodinger", 0, ())}
#: the optimally stopped ensemble of criteria 4 and 5, and criterion 5's starts
STOPPED = {"": ("stopping-dist", 20260823, ())}
STARTS = {x0: ("stopping-dist", 100 + i, (("start", (-0.5, x0)),))
          for i, x0 in enumerate((0.4, 0.8, 1.2, 1.6, 2.0))}
RUNTIME_S = 60  # criterion 1's bound on each fine-grid solve, in seconds
ORACLE, SURVIVAL = "oracle_compare.json", "survival_compare.json"
MEAN, STDERR = "{ensemble[action_value][mean]:.6f}", "{ensemble[action_value][stderr]:.2e}"

CRITERIA = {
    1: ("fine-grid oracle agreement", [
        (SOLVES, ORACLE, ["oracle_agreement"], {"{}_rel_err": "{oracle_band_rel_err:.3e}"}),
        (SOLVES, None, [lambda data: data["solve_s"] <= RUNTIME_S],
         {"{}_runtime_s": "{solve_s:.1f}"})]),
    2: ("free boundary is exactly the x=0 column", [
        (SOLVES, ORACLE, ["stopping_set_is_origin_column"],
         {"{}_stop_columns": "{stop_columns}",
          "{}_data_row_stopped": "{data_row_stopped}"})]),
    3: ("complementarity residual", [
        (SOLVES, ORACLE, ["lcp_residual"],
         {"{}_residual": "{lcp_residual:.3e}",
          "threshold": f"{experiments.LCP_TOL:.1e}"})]),  # the gate itself
    4: ("Monte Carlo action matches the value function", [
        (STOPPED, SURVIVAL, ["action_matches_value"],
         {"oracle_U": "{oracle_U:.6f}", "optimal_mean": MEAN, "optimal_stderr": STDERR}),
        ({"": ("barrier", 7, (("n_paths", 20000),))}, "barrier.json",
         ["action_not_below_value"],
         {"suboptimal_mean": MEAN, "suboptimal_stderr": STDERR})]),
    5: ("stopping-time distribution", [
        ({"": ("barrier", 11, ())}, "barrier.json", ["erf_pde", "erf_mc"],
         {"erf_pde": "{erf_pde:.6f} (ref {erf_ref:.6f})",
          "erf_mc": "{erf_mc[estimate]:.5f} +/- {erf_mc[stderr]:.5f}"}),
        (STARTS, SURVIVAL, ["pde_vs_mc"], {"survival_x{}": "pde {q_pde:.4f} vs mc "
                                           "{q_mc[estimate]:.4f} +/- {q_mc[stderr]:.4f}"}),
        (STOPPED, SURVIVAL, ["martingale"],
         {"martingale_ok": "{martingale[all_within_3_stderr]}"})]),
    6: ("endpoint-pinning integral system", [
        (PIN, "schrodinger_report.json",
         ["sinkhorn_converged", "mass_conservation", "gauge_invariance"],
         {"iterations": "{iterations}", "marginal_residual": "{marginal_residual:.2e}",
          "max_mass_deviation": "{max_mass_deviation:.2e}",
          "gauge_deviation": "{gauge_deviation:.2e}"})]),
    7: ("drift reversal identity", [
        (PIN, "schrodinger_report.json", ["drift_reversal"],
         {"scaled_inf_error": "{drift_reversal_scaled_err:.2e}",
          "nodes_checked": "{reversal_nodes}"})]),
    8: ("two-sided Markov bridge test", [
        ({"": ("bridge-test", 0, ())}, "bridge_test.json", ["bridge_pass_rate"],
         {"passes": lambda rep: f"{rep['passes']}/{len(rep['runs'])}",
          "p_values": lambda rep: [round(r["p_value"], 4) for r in rep["runs"]]})]),
    9: ("stopping strictly improves the fixed-horizon value", [
        ({"": ("sec7-classical-compare", 0, ())}, "compare.json",
         ["dominance", "strict_improvement"],
         {"max_U_minus_Htilde": "{max_U_minus_Htilde:.2e}",
          "gap_at_(0,1)": "{gap_at_t0_x1:.4f}"})]),
    10: ("grid convergence order", [
        ({"": ("convergence-study", 0, ())}, "convergence.json", ["order_at_least_1"],
         {"errors": lambda rep: [f"{lv['band_rel_err']:.2e}" for lv in rep["levels"]],
          "orders": lambda rep: [f"{o:.2f}" for o in rep["orders"]]})]),
}


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


@functools.lru_cache(maxsize=None)
def _run(name: str, seed: int, config: tuple) -> experiments.Result:
    """An experiment at a seed and config, run once per process and kept
    without its fields, which no criterion reads."""
    return replace(experiments.RUNNERS[name](seed, **dict(config)), fields={})


def evaluate(number: int) -> CriterionResult:
    """Criterion ``number`` of ``CRITERIA``, read from its runs."""
    name, rows = CRITERIA[number]
    passed, details = True, {}
    for runs, report, checks, figures in rows:
        res = {lb: _run(*run) for lb, run in runs.items()}
        doc = {lb: r.data if report is None else r.reports[report] for lb, r in res.items()}
        passed &= all(c(doc[lb]) if callable(c) else res[lb].checks[c]
                      for c in checks for lb in res)
        for detail, fmt in figures.items():
            for lb in res:
                details[detail.format(lb)] = (fmt(doc[lb]) if callable(fmt)
                                              else fmt.format_map(doc[lb]))
    return CriterionResult(number, name, passed, details)


ALL_CRITERIA = {n: functools.partial(evaluate, n) for n in CRITERIA}


def run_all(numbers=None) -> list:
    """Run the criteria in order, each once however often it is named, each
    timed into its detail ``wall_s``."""
    results = []
    for n in sorted(set(numbers or ALL_CRITERIA)):
        start = time.perf_counter()
        r = ALL_CRITERIA[n]()
        wall_s = f"{time.perf_counter() - start:.2f}"
        results.append(replace(r, details={**r.details, "wall_s": wall_s}))
    return results
