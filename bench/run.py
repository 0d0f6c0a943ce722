"""Benchmark of the bernstein package: three workloads, checked outputs,
whole-run metrics, and a traced run for per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {obstacle,monte_carlo,pinning,all}
                         [--seed N] [--seconds S] [--trace 0|1]

A run builds the workload's inputs (``setup_s``), then repeats whole rounds
of the workload's calls into the package until at least ``--seconds`` of
round time has been measured, checking each round's outputs after its timer
stops. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics, writing the spans to
``.bench_out/trace-<workload>-seed<N>.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs each workload in its own process, one
after the other. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NAMES = ("obstacle", "monte_carlo", "pinning")
SETUP_REPEATS = 5
LAYERS = ("core", "analytic", "hjb", "simulate", "stopping", "schrodinger", "cli")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "hjb.obstacle_s": "s", "hjb.classical_s": "s", "hjb.sweeps_per_step": "1",
    "hjb.lcp_residual": "1", "hjb.band_err_fwd": "1", "hjb.band_err_bwd": "1",
    "analytic.oracle_s": "s", "analytic.oracle_calls": "count",
    "cli.csv_s": "s", "cli.artifact_mb": "MB", "cli.self_s": "s",
    "simulate.optimal_fwd_s": "s", "simulate.optimal_bwd_s": "s",
    "simulate.barrier_s": "s", "simulate.path_steps": "count",
    "simulate.path_steps_per_s": "1/s", "simulate.chunk_mb": "MB",
    "simulate.action_stderr_fwd": "1", "simulate.action_stderr_bwd": "1",
    "simulate.hit_fraction": "1",
    "stopping.solve_q_s": "s", "stopping.martingale_s": "s",
    "schrodinger.kernel_s": "s", "schrodinger.sinkhorn_s": "s",
    "schrodinger.sinkhorn_iters": "count", "schrodinger.propagate_s": "s",
    "schrodinger.kernel_evals_per_s": "1/s",
    "schrodinger.marginal_residual": "1", "schrodinger.moment_err": "1",
    "simulate.reversed_drift_s": "s",
    "trace.overhead_s": "s",
}
OBSTACLE_SOLVES = ("hjb.solve_forward_obstacle", "hjb.solve_backward_obstacle")
TRACE_ATTRS = {
    **{name: lambda a, k, r: {"sweeps": r.psor_sweeps, "steps": r.eta.grid.nt - 1}
       for name in OBSTACLE_SOLVES},
    "simulate.simulate_forward": lambda a, k, r: {"driftless": a[1] is None},
}


def import_package():
    """Import bernstein from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "bernstein", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: no bernstein sources at {init}")
    sys.path.insert(0, SRC)
    import importlib

    bn = importlib.import_module("bernstein")
    if os.path.abspath(bn.__file__) != init:
        raise SystemExit(f"bench: imported bernstein from {bn.__file__}, "
                         f"not from {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"bernstein.{layer}")
    return bn


@dataclass
class Round:
    wall: float
    traced: bool
    attempted: int
    failures: dict  # op name -> error message
    problems: list  # failed checks
    facts: dict  # figures the checks read from the round's outputs


def measure(wl, run_ops, seconds, tracer=None, extra=()):
    """Whole rounds until ``seconds`` of untraced round time is measured.
    With a tracer, a traced round follows each untraced one, so that slow
    drifts in machine speed reach both alike."""
    rounds = []
    while sum(r.wall for r in rounds if not r.traced) < seconds:
        for traced in (False, True) if tracer is not None else (False,):
            ops = wl.operations()
            if traced:
                tracer.install(extra)
            t0 = time.perf_counter()
            try:
                results, failures = run_ops(ops)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            problems, facts = wl.check(results)
            rounds.append(Round(wall, traced, len(ops), failures, problems, facts))
    return rounds


def layer_metrics(tr, facts, n_rounds, overhead_s):
    """Per-layer metrics of one traced round (spans summed over the traced
    rounds, divided by their number). A layer the workload does not reach
    reads 0."""
    spans = tr.spans
    summary = tr.summary()

    def dur(s):
        return s["end"] - s["start"]

    def per(x):
        return x / n_rounds

    def total(*names):
        return per(tr.total(*names))

    solved = [s["attrs"] for s in spans if s["name"] in OBSTACLE_SOLVES
              and "attrs" in s]
    steps = sum(a["steps"] for a in solved)
    oracle = [s for s in spans if s["name"].startswith("analytic.")
              and (s["parent"] is None
                   or not spans[s["parent"]]["name"].startswith("analytic."))]
    fwd_spans = tr.named("simulate.simulate_forward")
    barrier_s = per(sum(dur(s) for s in fwd_spans
                        if s.get("attrs", {}).get("driftless")))
    optimal_fwd_s = total("simulate.simulate_forward") - barrier_s
    optimal_bwd_s = total("simulate.simulate_backward")
    sim_s = optimal_fwd_s + barrier_s + optimal_bwd_s
    propagate_s = total("schrodinger.propagate_eta", "schrodinger.propagate_eta_star")
    f = facts
    return {
        "hjb.obstacle_s": total(*OBSTACLE_SOLVES),
        "hjb.classical_s": total("hjb.classical_value"),
        "hjb.sweeps_per_step": (sum(a["sweeps"] for a in solved) / steps
                                if steps else 0.0),
        "hjb.lcp_residual": f.get("lcp_residual", 0.0),
        "hjb.band_err_fwd": f.get("band_err_fwd", 0.0),
        "hjb.band_err_bwd": f.get("band_err_bwd", 0.0),
        "analytic.oracle_s": per(sum(dur(s) for s in oracle)),
        "analytic.oracle_calls": per(len(oracle)),
        "cli.csv_s": total("cli.field_to_csv"),
        "cli.artifact_mb": f.get("artifact_bytes", 0) / 1e6,
        "cli.self_s": per(summary.get("cli.run_experiment", {}).get("self_s", 0.0)),
        "simulate.optimal_fwd_s": optimal_fwd_s,
        "simulate.optimal_bwd_s": optimal_bwd_s,
        "simulate.barrier_s": barrier_s,
        "simulate.path_steps": f.get("path_steps", 0),
        "simulate.path_steps_per_s": (f.get("path_steps", 0) / sim_s
                                      if sim_s else 0.0),
        "simulate.chunk_mb": f.get("chunk_bytes", 0) / 1e6,
        "simulate.action_stderr_fwd": f.get("action_stderr_fwd", 0.0),
        "simulate.action_stderr_bwd": f.get("action_stderr_bwd", 0.0),
        "simulate.hit_fraction": f.get("hit_fraction", 0.0),
        "stopping.solve_q_s": total("stopping.solve_q"),
        "stopping.martingale_s": total("stopping.martingale_check"),
        "schrodinger.kernel_s": total("schrodinger.kernel_matrix"),
        "schrodinger.sinkhorn_s": total("schrodinger.sinkhorn_solve"),
        "schrodinger.sinkhorn_iters": f.get("sinkhorn_iters", 0),
        "schrodinger.propagate_s": propagate_s,
        "schrodinger.kernel_evals_per_s": (f.get("kernel_evals", 0) / propagate_s
                                           if propagate_s else 0.0),
        "schrodinger.marginal_residual": f.get("marginal_residual", 0.0),
        "schrodinger.moment_err": f.get("moment_err", 0.0),
        "simulate.reversed_drift_s": total("simulate.reversed_drift"),
        "trace.overhead_s": overhead_s,
    }


def run_workload(args):
    t0 = time.perf_counter()
    bn = import_package()
    import_s = time.perf_counter() - t0
    import tracer as tracing
    import workloads

    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](bn, work, args.seed)
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)

        tr = (tracing.Tracer([getattr(bn, layer) for layer in LAYERS], TRACE_ATTRS)
              if args.trace else None)
        rounds = measure(wl, workloads.run_ops, args.seconds, tr, extra=[bn])
        walls = [r.wall for r in rounds if not r.traced]
        if args.trace:
            traced = [r for r in rounds if r.traced]
            overhead = (statistics.median(r.wall for r in traced)
                        - statistics.median(walls))
            metrics = {k: (v, PER_LAYER[k]) for k, v in layer_metrics(
                tr, traced[-1].facts, len(traced), overhead).items()}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                      "peak_rss_mb": rss_mb}
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        path = tr.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                       {"workload": args.workload, "seed": args.seed,
                        "untraced_walls_s": walls,
                        "traced_walls_s": [r.wall for r in traced],
                        "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"trace: {os.path.relpath(path, ROOT)}")

    problems = [p for r in rounds for p in r.problems]
    for r in rounds:
        for op, msg in r.failures.items():
            print(f"FAILED {args.workload} {op}: {msg}")
    for p in problems:
        print(f"CHECK FAILED {args.workload}: {p}")
    print(f"{args.workload}: import {import_s:.3f} s, setup builds "
          f"{', '.join(f'{b:.3f}' for b in builds)} s")
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"round walls {', '.join(f'{r.wall:.3f}' for r in rounds)} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": not problems,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(len(r.failures) for r in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process, so peak_rss_mb stays its own."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise SystemExit(f"bench: workload {name} printed no result "
                             f"(exit {proc.returncode})")
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        out["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
