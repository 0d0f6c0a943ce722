"""
Pinning both endpoint marginals with the iterative proportional fitting loop
=============================================================================

Given densities for the initial and final states, solves the boundary
integral system for the factor pair (eta*, eta), propagates both factors
through their dual heat flows, and recomposes the space-time density
rho = eta * eta*. Also checks the drift-reversal identity
B* = B - hbar * d/dx log(rho).
"""

import math

import numpy as np

from bernstein.core import ScalarField, SpaceTimeGrid, gradient_rows
from bernstein.schrodinger import SINKHORN_TOL, MarginalPair, pin_endpoints, slice_mass
from bernstein.simulate import reversed_drift

hbar = 0.5
grid = SpaceTimeGrid(xs=np.linspace(-4, 4, 201), ts=np.linspace(-0.5, 0.5, 51))


def gauss(mu, sd):
    return np.exp(-((grid.xs - mu) ** 2) / (2 * sd**2)) / (sd * math.sqrt(2 * math.pi))


# pin a left-leaning Gaussian at t = -1/2 and a right-leaning one at t = 1/2
marginals = MarginalPair(xs=grid.xs, p_init=gauss(-1.0, 0.35),
                         p_final=gauss(1.0, 0.35))
# the horizon kernel, the Sinkhorn factors and both propagated factors
factors, eta, eta_star, rho = pin_endpoints(marginals, grid, hbar)
print(f"converged in {factors.iterations} iterations, marginal residual "
      f"{factors.final_marginal_error:.2e} (tolerance {SINKHORN_TOL:g})")

# rho = eta * eta* is the density of the pinned process
masses = slice_mass(rho)
print(f"slice mass deviation: {np.max(np.abs(masses - 1)):.2e}")

# the mean of the pinned process sweeps from -1 to +1
for k in (0, grid.nt // 2, grid.nt - 1):
    mean = np.trapezoid(grid.xs * rho.values[k], grid.xs)
    print(f"mean at t = {grid.ts[k]:+.2f}: {mean:+.4f}")

# drift reversal: the backward drift computed from rho matches the one
# computed directly from eta*
fwd_drift = ScalarField(grid, hbar * gradient_rows(np.log(eta.values), grid.dx))
rev = reversed_drift(fwd_drift, rho, hbar)
target = -hbar * gradient_rows(np.log(eta_star.values), grid.dx)
ok = np.isfinite(rev.values)
err = np.max(np.abs(rev.values[ok] - target[ok])) / max(1.0, np.max(np.abs(target[ok])))
print(f"drift reversal scaled error: {err:.2e}")
