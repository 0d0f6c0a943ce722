"""
Simulating the optimally stopped diffusion and its stopping-time law
====================================================================

Simulates the controlled SDE under the optimal drift from the worked
example, stopping at the computed free boundary, then cross-checks three
things against PDE solutions: the expected action, the survival probability
P(stop time > threshold), and the martingale property of the survival
function along paths.
"""

import numpy as np

from bernstein.core import ProblemSpec, build_grid
from bernstein.hjb import solve_forward_obstacle, value_from_eta
from bernstein.simulate import SimConfig, simulate_forward
from bernstein.stopping import (
    SurvivalProblem,
    empirical_survival,
    martingale_check,
    solve_q,
)

spec = ProblemSpec(
    hbar=1.0,
    half_horizon=0.5,
    potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    terminal_cost=lambda x: np.abs(x),
    initial_cost=lambda x: np.log1p(np.abs(x)),
    x_min=-3.0,
    x_max=3.0,
)
grid = build_grid(spec, nx=301, nt=501)
sol = solve_forward_obstacle(spec, grid)
val = value_from_eta(sol, spec.hbar)

# 20k paths from (t, x) = (-1/2, 1) under the optimal drift; the noise comes
# from counter-based RNG streams keyed by (seed, path group, step), so the
# run is reproducible and CPU-count-invariant
cfg = SimConfig(dt=1e-3, n_paths=20000, seed=1, start=(-0.5, 1.0),
                checkpoints=(-0.2, 0.0, 0.2))
ens = simulate_forward(spec, val.drift, val.mask, cfg)
est = ens.summary()["action_value"]
k, j = grid.nearest_row(-0.5), grid.nearest_column(1.0)
print(f"value function U(-1/2, 1): {val.value.values[k, j]:.4f}")
print(f"Monte Carlo action:        {est['mean']:.4f} +/- {est['stderr']:.4f}")
print(f"boundary hit fraction:     {ens.hit_flag.mean():.3f}")

# survival function q(t, x) = P(stop time > 1/4) from the advection-diffusion
# solve, against the empirical fraction
threshold = 0.25
prob = SurvivalProblem(orientation="forward", threshold=threshold,
                       drift=val.drift, mask=val.mask, hbar=spec.hbar)
q = solve_q(prob)
emp = empirical_survival(ens, threshold)
print(f"\nq(-1/2, 1) from the PDE:   {q.q.values[k, j]:.4f}")
print(f"empirical survival:        {emp['estimate']:.4f} +/- {emp['stderr']:.4f}")

# q evaluated along stopped paths is a martingale: its mean at every
# checkpoint equals its value at the start
report = martingale_check(q, ens, (-0.2, 0.0, 0.2))
print(f"\nq at start: {report['q_at_start']:.4f}")
for row in report["checkpoints"]:
    print(f"checkpoint {row['checkpoint']:+.1f}: mean {row['mean']:.4f} "
          f"+/- {row['stderr']:.4f} (within 3 se: {row['within_3_stderr']})")
