"""
Free-boundary value problem on the worked example
=================================================

Solves the forward obstacle problem for V = 0, terminal cost S(x) = |x|,
hbar = 1 on t in [-1/2, 1/2], recovers the value function and optimal
drift, and compares against the closed-form quadrature oracle.
"""

import math

import numpy as np

from bernstein.analytic import WORKED_EXAMPLE, sec7_eta_forward
from bernstein.core import ProblemSpec, build_grid
from bernstein.hjb import lcp_residual, solve_forward_obstacle, value_from_eta

spec = ProblemSpec.from_json(WORKED_EXAMPLE)
grid = build_grid(spec, nx=301, nt=501)

# solve the linear complementarity problem for eta = exp(-U / hbar)
sol = solve_forward_obstacle(spec, grid)
val = value_from_eta(sol, spec.hbar)
res = lcp_residual(sol, spec)
print(f"banded solves per time step: mean {sol.step_solves.mean():.4f}, "
      f"max {sol.step_solves.max()}")
print(f"complementarity residual: {np.max(np.abs(res.values)):.3e}")

# the stopping set for this example is exactly the x = 0 column
print(f"free boundary brackets the origin at every solved slice: "
      f"{all(b[0] < 0 < b[1] for b in sol.boundary[:-1])}")

# pointwise agreement with the quadrature oracle
print("\n   t      x     U (grid)   U (oracle)   rel err")
for t, x in [(-0.5, 1.0), (0.0, 0.5), (0.0, 1.0), (0.25, 2.0)]:
    u = val.value.values[grid.nearest_row(t), grid.nearest_column(x)]
    ref = -math.log(sec7_eta_forward(t, x, spec.hbar, 2 * spec.half_horizon))
    print(f"{t:6.2f} {x:6.2f} {u:11.6f} {ref:11.6f} {abs(u - ref) / ref:10.2e}")

# the optimal drift pushes mass away from the stopping set and saturates
# at +-1 in the far field
k = grid.nearest_row(0.0)
for x in (0.25, 1.0, 2.5):
    print(f"drift at (0, {x}): "
          f"{val.drift.values[k, grid.nearest_column(x)]:+.4f}")
