"""Fast self-test of the benchmark: each workload's round and checks at tiny
sizes, a corrupted output of each that its checks must catch, the tracer's
spans and self times, and the metric names against BENCHMARK.json.

Run from the repository root (about half a minute):

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

import numpy as np

import run
import tracer as tracing
import workloads as wls


def _round(wl):
    results, failures = wls.run_ops(wl.operations())
    problems, facts = wl.check(results)
    return results, failures, problems, facts


def test_obstacle(bn, work):
    wl = wls.Obstacle(bn, work, seed=3, nx=301, nt=501)
    wl.setup()
    _, failures, problems, facts = _round(wl)
    assert not failures and not problems, (failures, problems)
    assert facts["artifact_bytes"] > 0 and facts["band_err_fwd"] > 0

    # a file changed after the manifest was written fails its sha256
    results, _ = wls.run_ops(wl.operations())
    path = os.path.join(results["sec7-forward"]["out"], "eta.csv")
    with open(path, "r+b") as fh:
        fh.seek(-2, os.SEEK_END)
        fh.write(b"7\n")
    problems, _ = wl.check(results)
    assert any("sha256 of eta.csv" in p for p in problems), problems


def test_monte_carlo(bn, work):
    wl = wls.MonteCarlo(bn, work, seed=3, nx=151, nt=201, n_paths=4000, dt=2e-3)
    wl.setup()
    results, failures, problems, facts = _round(wl)
    assert not failures and not problems, (failures, problems)
    assert facts["path_steps"] > 0 and 0 < facts["hit_fraction"] < 1

    # an action biased by 10 standard errors fails the oracle check
    fwd = results["ensemble_fwd"]
    se = float(np.std(fwd.action_value, ddof=1) / np.sqrt(fwd.n_paths))
    results["ensemble_fwd"] = dataclasses.replace(
        fwd, action_value=fwd.action_value + 10 * se)
    problems, _ = wl.check(results)
    assert any("forward action mean" in p for p in problems), problems


def test_pinning(bn, work):
    wl = wls.Pinning(bn, work, seed=3, cases=((0.5, 161, 41), (0.01, 201, 11)))
    wl.setup()
    results, failures, problems, facts = _round(wl)
    assert list(failures) == ["hbar=0.01 nx=201 nt=11"], failures
    assert "kernel matrix must be strictly positive" in failures[
        "hbar=0.01 nx=201 nt=11"]
    assert not problems, problems
    assert facts["moment_err"] < wl.MOMENT_TOL and facts["sinkhorn_iters"] > 0

    # a density spread wider than the Gaussian bridge fails the moment check
    res = results["hbar=0.5 nx=161 nt=41"]
    rho = res["rho"]
    xs = rho.grid.xs
    wide = rho.values * np.exp(0.01 * xs ** 2)[None, :]
    wide /= np.trapezoid(wide, xs, axis=1)[:, None]
    res["rho"] = type(rho)(rho.grid, wide)
    problems, _ = wl.check(results)
    assert any("slice moments" in p for p in problems), problems


def test_tracer(bn):
    layers = [getattr(bn, name) for name in run.LAYERS]
    original = bn.hjb.value_from_eta
    spec = bn.core.ProblemSpec.from_json(wls.MonteCarlo.SPEC)
    tr = tracing.Tracer(layers, run.TRACE_ATTRS)
    tr.install([bn])
    try:
        assert bn.hjb.value_from_eta is not original
        assert bn.value_from_eta is bn.hjb.value_from_eta
        grid = bn.core.build_grid(spec, 41, 21)
        sol = bn.hjb.solve_forward_obstacle(spec, grid)
        bn.hjb.value_from_eta(sol, spec.hbar)
    finally:
        tr.uninstall()
    assert bn.hjb.value_from_eta is original and bn.value_from_eta is original
    names = [s["name"] for s in tr.spans]
    assert names[:2] == ["core.build_grid", "hjb.solve_forward_obstacle"], names
    # hjb calls core.region_from_eta through its own imported name
    solve = tr.spans[1]
    kids = [s for s in tr.spans if s["parent"] == solve["id"]]
    assert [s["name"] for s in kids] == ["core.region_from_eta"], kids
    assert solve["attrs"] == {"sweeps": sol.psor_sweeps, "steps": 20}
    summary = tr.summary()["hjb.solve_forward_obstacle"]
    assert abs(summary["self_s"] - (summary["total_s"] - (kids[0]["end"]
               - kids[0]["start"]))) < 1e-12
    metrics = run.layer_metrics(tr, {}, 1, 0.0)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["hjb.sweeps_per_step"] == sol.psor_sweeps / 20


def test_benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} == set(run.NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def main():
    bn = run.import_package()
    os.makedirs(run.OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        test_obstacle(bn, os.path.join(work, "obstacle"))
        test_monte_carlo(bn, os.path.join(work, "monte_carlo"))
        test_pinning(bn, os.path.join(work, "pinning"))
        test_tracer(bn)
        test_benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("bench selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
