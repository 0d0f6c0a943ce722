"""Experiment runner: config ingestion, pipeline orchestration and artifact
persistence.

Usage:
    bernstein run <config.json> [--out DIR] [--seed N]
    bernstein check [--criteria N [N ...]]

``run`` builds an experiment's inputs, runs its pipeline, persists the
artifacts, and then judges them with the checks and gates that
``acceptance`` defines; ``check`` runs the acceptance criteria. Every run
writes a manifest listing each emitted file with its sha256 hash, the
effective config, and the pass/fail status of the embedded checks; the exit
status is nonzero iff any embedded check fails. The output directory
resolves as --out, then $BERNSTEIN_OUT, then the config's "out" field, then
./out.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__, acceptance, analytic, hjb, schrodinger, simulate, stopping
from .core import (
    BACKWARD,
    FORWARD,
    ProblemSpec,
    ScalarField,
    SpaceTimeGrid,
    build_grid,
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(doc, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def field_to_csv(fld: ScalarField, path: str) -> str:
    """Matrix CSV: first row is x nodes, first column is t nodes."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t\\x"] + [repr(float(x)) for x in fld.grid.xs])
        for k, t in enumerate(fld.grid.ts):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in fld.values[k]])
    return path


def compare_report(a: ScalarField, b: ScalarField, x_abs_min=None,
                   x_abs_max=None) -> dict:
    """Difference norms between two fields on a common grid.

    Reports the infinity norm, the grid-scaled 2-norm, and the same two
    restricted to the band x_abs_min <= |x| <= x_abs_max when given.
    """
    if not (np.array_equal(a.grid.xs, b.grid.xs)
            and np.array_equal(a.grid.ts, b.grid.ts)):
        raise ValueError("fields must share a grid")
    d = a.values - b.values
    out = {
        "inf_norm": float(np.max(np.abs(d))),
        "scaled_2_norm": float(np.sqrt(np.mean(d * d))),
    }
    if x_abs_min is not None or x_abs_max is not None:
        lo = 0.0 if x_abs_min is None else x_abs_min
        hi = np.inf if x_abs_max is None else x_abs_max
        sel = (np.abs(a.grid.xs) >= lo) & (np.abs(a.grid.xs) <= hi)
        dr = d[:, sel]
        out["restricted_inf_norm"] = float(np.max(np.abs(dr)))
        out["restricted_scaled_2_norm"] = float(np.sqrt(np.mean(dr * dr)))
        out["restriction"] = [lo, None if hi == np.inf else hi]
    return out


def _problem(cfg):
    """Spec, whether it is the worked example, grid and solver config."""
    doc = cfg.get("spec")
    spec = ProblemSpec.from_json(doc or analytic.WORKED_EXAMPLE)
    grid = build_grid(spec, int(cfg.get("nx", 601)), int(cfg.get("nt", 2001)))
    return spec, doc is None, grid, hjb.SolverConfig.from_json(cfg.get("solver", {}))


def _oracle_band_error(sol, spec, n_slices=5) -> float:
    """The oracle band error on evenly spaced grid rows, oracle unmemoised."""
    grid = sol.eta.grid
    ks = np.unique(np.linspace(0, grid.nt - 1, n_slices).astype(int))
    oracle = acceptance.sec7_oracle(sol.orientation, spec.hbar,
                                    2 * spec.half_horizon)
    return acceptance.band_error(sol, spec.hbar,
                                 [(k, float(grid.ts[k])) for k in ks], oracle)


def _boundary_csv(sol, path: str) -> str:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "free_boundary_positions"])
        for t, bnd in zip(sol.eta.grid.ts, sol.boundary):
            w.writerow([repr(float(t))] + [repr(float(b)) for b in bnd])
    return path


def _run_sec7(orientation, cfg, out, seed):
    spec, is_default, grid, scfg = _problem(cfg)
    solve = (hjb.solve_forward_obstacle if orientation == FORWARD
             else hjb.solve_backward_obstacle)
    sol = solve(spec, grid, scfg)
    val = hjb.value_from_eta(sol, spec.hbar)
    res = hjb.lcp_residual(sol, spec, grid)
    res_norm = float(np.max(np.abs(res.values)))

    files = [
        field_to_csv(sol.eta, os.path.join(out, "eta.csv")),
        field_to_csv(val.value, os.path.join(out, "value.csv")),
        field_to_csv(val.drift, os.path.join(out, "drift.csv")),
        _boundary_csv(sol, os.path.join(out, "free_boundary.csv")),
    ]
    checks = {"lcp_residual": res_norm <= 10 * scfg.psor_tol}
    report = {"lcp_residual": res_norm}
    if is_default:
        err = _oracle_band_error(sol, spec)
        report["oracle_band_rel_err"] = err
        checks["oracle_agreement"] = err <= acceptance.BAND_TOL
        checks["stopping_set_is_origin_column"] = acceptance.stopping_columns(sol)[2]
    files.append(_write_json(report, os.path.join(out, "oracle_compare.json")))
    return files, checks


def _run_classical_compare(cfg, out, seed):
    spec, _, grid, scfg = _problem(cfg)
    sol = hjb.solve_forward_obstacle(spec, grid, scfg)
    stopped = hjb.value_from_eta(sol, spec.hbar)
    classical = hjb.classical_value(spec, grid, FORWARD, scfg)
    report = compare_report(stopped.value, classical.value, 0.1, 2.5)
    worst, gap = acceptance.value_dominance(stopped.value, classical.value)
    report.update(max_U_minus_Htilde=worst, gap_at_t0_x1=gap)
    files = [
        field_to_csv(stopped.value, os.path.join(out, "value_stopped.csv")),
        field_to_csv(classical.value, os.path.join(out, "value_classical.csv")),
        _write_json(report, os.path.join(out, "compare.json")),
    ]
    checks = {"dominance": worst <= acceptance.DOMINANCE_TOL,
              "strict_improvement": gap > acceptance.STRICT_GAP}
    return files, checks


def _run_schrodinger(cfg, out, seed):
    hbar = float(cfg.get("hbar", 0.5))
    nx = int(cfg.get("nx", 201))
    nt = int(cfg.get("nt", 51))
    x_min = float(cfg.get("x_min", -4.0))
    x_max = float(cfg.get("x_max", 4.0))
    T2 = float(cfg.get("half_horizon", 0.5))
    tol = float(cfg.get("tol", 1e-8))
    grid = SpaceTimeGrid(xs=np.linspace(x_min, x_max, nx),
                         ts=np.linspace(-T2, T2, nt))
    if "marginals_csv" in cfg:
        marg = schrodinger.MarginalPair.from_csv(*cfg["marginals_csv"])
        if not np.allclose(marg.xs, grid.xs):
            raise ValueError("marginal CSV nodes do not match the grid")
    else:
        mi = cfg.get("init_marginal", {"mean": -1.0, "sd": 0.35})
        mf = cfg.get("final_marginal", {"mean": 1.0, "sd": 0.35})

        def gauss(m):
            return np.exp(-((grid.xs - m["mean"]) ** 2) / (2 * m["sd"] ** 2))

        marg = schrodinger.MarginalPair(xs=grid.xs, p_init=gauss(mi),
                                        p_final=gauss(mf))
    factors, eta, eta_star, rho = schrodinger.pin_endpoints(
        marg, grid, hbar, tol=tol, max_iter=int(cfg.get("max_iter", 500)))
    masses = schrodinger.slice_mass(rho)
    rev_err, _ = acceptance.drift_reversal_error(eta, eta_star, rho, hbar)

    files = schrodinger.write_factors(factors, grid.xs,
                                      os.path.join(out, "schrodinger"), tol)
    files += [
        field_to_csv(rho, os.path.join(out, "rho.csv")),
        _write_json(
            {
                "iterations": factors.iterations,
                "marginal_residual": factors.final_marginal_error,
                "slice_masses": masses.tolist(),
                "drift_reversal_scaled_err": rev_err,
                # below 1 the kernel next to the endpoint slices is
                # narrower than a node spacing, and slice masses drift
                "kernel_sd_over_dx": math.sqrt(hbar * grid.dt) / grid.dx,
            },
            os.path.join(out, "schrodinger_report.json"),
        ),
    ]
    checks = {
        "sinkhorn_converged": factors.final_marginal_error <= tol,
        "mass_conservation": bool(np.max(np.abs(masses - 1.0))
                                  <= acceptance.MASS_TOL),
        "drift_reversal": rev_err <= acceptance.REVERSAL_TOL,
    }
    return files, checks


def _run_stopping(cfg, out, seed):
    spec, _, grid, scfg = _problem(cfg)
    sol = hjb.solve_forward_obstacle(spec, grid, scfg)
    val = hjb.value_from_eta(sol, spec.hbar)
    thresholds = cfg.get("thresholds", [0.25])
    sols = []
    for thr in thresholds:
        prob = stopping.SurvivalProblem(
            orientation=FORWARD, threshold=float(thr), drift=val.drift,
            mask=val.mask, hbar=spec.hbar,
        )
        sols.append(stopping.solve_q(prob))
    files = [stopping.threshold_sweep_csv(sols, os.path.join(out, "q_sweep.csv"))]

    checkpoints = tuple(cfg.get("checkpoints", (-0.3, -0.1, 0.1, 0.2)))
    start = tuple(cfg.get("start", (-spec.half_horizon, 1.0)))
    sim = simulate.SimConfig(
        dt=float(cfg.get("dt", 1e-3)), n_paths=int(cfg.get("n_paths", 20000)),
        seed=seed, start=start, checkpoints=checkpoints,
    )
    ens = simulate.simulate_forward(spec, val.drift, val.mask, sim)
    qsol = sols[0]
    emp = stopping.empirical_survival(ens, qsol.threshold)
    j = int(np.argmin(np.abs(grid.xs - start[1])))
    k = int(np.argmin(np.abs(grid.ts - start[0])))
    q0 = float(qsol.q.values[k, j])
    mart = stopping.martingale_check(qsol, ens, checkpoints)
    files.append(stopping.martingale_report_json(
        mart, os.path.join(out, "martingale.json")))
    files.append(_write_json(
        {"q_pde": q0, "q_mc": emp, "threshold": qsol.threshold},
        os.path.join(out, "survival_compare.json"),
    ))
    checks = {
        "pde_vs_mc": abs(emp["estimate"] - q0) <= 3 * emp["stderr"],
        "martingale": mart["all_within_3_stderr"],
    }
    return files, checks


def _run_bridge(cfg, out, seed):
    n_seeds = int(cfg.get("n_seeds", 20))
    reports = []
    passes = 0
    for i in range(n_seeds):
        rep = simulate.bridge_markov_test(
            s=float(cfg.get("s", 0.0)), x=float(cfg.get("x", 0.0)),
            u=float(cfg.get("u", 1.0)), z=float(cfg.get("z", 0.0)),
            t=float(cfg.get("t", 0.5)), hbar=float(cfg.get("hbar", 1.0)),
            n_paths=int(cfg.get("n_paths", 100000)),
            n_bins=int(cfg.get("n_bins", 30)), seed=seed + i,
        )
        passes += rep["passed"]
        reports.append({"seed": seed + i, "p_value": rep["p_value"],
                        "passed": rep["passed"]})
    files = [_write_json({"runs": reports, "passes": passes},
                         os.path.join(out, "bridge_test.json"))]
    return files, {"bridge_pass_rate": passes >= n_seeds - 1}


def _run_convergence(cfg, out, seed):
    spec, _, _, scfg = _problem(cfg)
    levels = [tuple(lv) for lv in cfg.get("levels",
                                          [(151, 126), (301, 501), (601, 2001)])]
    rows = []
    errs = []
    for nx, nt in levels:
        grid = build_grid(spec, int(nx), int(nt))
        sol = hjb.solve_forward_obstacle(spec, grid, scfg)
        err = _oracle_band_error(sol, spec)
        errs.append(err)
        rows.append({"nx": nx, "nt": nt, "band_rel_err": err})
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    files = [_write_json({"levels": rows, "orders": orders},
                         os.path.join(out, "convergence.json"))]
    return files, {"order_at_least_1": all(o >= 1.0 for o in orders)}


#: experiment name -> runner(cfg, out_dir, seed) -> (files, checks)
_RUNNERS = {
    "sec7-forward": functools.partial(_run_sec7, FORWARD),
    "sec7-backward": functools.partial(_run_sec7, BACKWARD),
    "sec7-classical-compare": _run_classical_compare,
    "schrodinger": _run_schrodinger,
    "stopping-dist": _run_stopping,
    "bridge-test": _run_bridge,
    "convergence-study": _run_convergence,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: dict, out_dir: str, seed: int) -> dict:
    """Run one named experiment; returns the manifest document."""
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; valid choices: {', '.join(EXPERIMENTS)}"
        )
    os.makedirs(out_dir, exist_ok=True)
    files, checks = _RUNNERS[name](cfg, out_dir, seed)

    manifest = {
        "experiment": name,
        "config": cfg,
        "seed": seed,
        "versions": {
            "bernstein": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "files": {os.path.basename(p): _sha256(p) for p in files},
        "checks": {k: bool(v) for k, v in checks.items()},
        "all_checks_passed": all(checks.values()),
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bernstein",
        description="Free-boundary diffusion solvers, endpoint pinning, "
                    "stopping-time distributions, and Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a named experiment from a JSON config")
    runp.add_argument("config", help="path to the experiment config JSON")
    runp.add_argument("--out", help="output directory (overrides $BERNSTEIN_OUT "
                                    "and the config)")
    runp.add_argument("--seed", type=int, help="override the simulation seed")
    chk = sub.add_parser("check", help="run the acceptance suite")
    chk.add_argument("--criteria", type=int, nargs="+",
                     help="subset of criterion numbers to run")
    args = parser.parse_args(argv)

    if args.command == "check":
        results = acceptance.run_all(args.criteria)
        for r in results:
            print(r.line())
        failed = [r.number for r in results if not r.passed]
        if failed:
            print(f"FAILED criteria: {failed}")
            return 1
        print("all criteria passed")
        return 0

    with open(args.config) as fh:
        cfg = json.load(fh)
    out_dir = (args.out or os.environ.get("BERNSTEIN_OUT")
               or cfg.get("out") or "out")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    manifest = run_experiment(cfg, out_dir, seed)
    for name, ok in manifest["checks"].items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"manifest: {os.path.join(out_dir, 'manifest.json')}")
    return 0 if manifest["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
