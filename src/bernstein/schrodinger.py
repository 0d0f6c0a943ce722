"""Boundary-factor integral system for pinning both endpoint marginals.

Given endpoint densities p_init at t = -T/2 and p_final at t = T/2, find
positive boundary factors (eta*_init, eta_final) such that

    eta*_init(x) * (K eta_final)(x) = p_init(x)
    eta_final(z) * (K^T eta*_init)(z) = p_final(z)

with K the discretized heat kernel over the horizon. The factors are unique
up to the scalar gauge (c*eta*, eta/c) and are found by Sinkhorn / iterative
proportional fitting. Propagating the factors across the horizon with the
kernel yields eta(t,x), eta*(t,x) and the process density rho = eta * eta*.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .core import ConvergenceError, ScalarField, SpaceTimeGrid


def _trapz_mass(xs, p):
    return float(np.trapezoid(p, xs))


@dataclass(frozen=True)
class MarginalPair:
    """Endpoint densities on the spatial nodes, trapezoid-normalized to 1.

    Raw (pre-normalization) masses are kept so domain-truncation loss is
    visible to callers.
    """

    xs: np.ndarray
    p_init: np.ndarray
    p_final: np.ndarray
    raw_mass_init: float = field(default=np.nan, compare=False)
    raw_mass_final: float = field(default=np.nan, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        pi = np.asarray(self.p_init, dtype=float)
        pf = np.asarray(self.p_final, dtype=float)
        if xs.ndim != 1 or pi.shape != xs.shape or pf.shape != xs.shape:
            raise ValueError("marginals must be 1-d arrays matching the node set")
        if np.any(pi <= 0) or np.any(pf <= 0):
            raise ValueError("marginals must be strictly positive nodewise")
        mi, mf = _trapz_mass(xs, pi), _trapz_mass(xs, pf)
        object.__setattr__(self, "raw_mass_init", mi)
        object.__setattr__(self, "raw_mass_final", mf)
        pi = pi / mi
        pf = pf / mf
        for name, arr in (("xs", xs), ("p_init", pi), ("p_final", pf)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_csv(cls, init_path, final_path) -> "MarginalPair":
        """Read two two-column CSV files (x, density) on a common node set."""
        xi, pi = _read_marginal_csv(init_path)
        xf, pf = _read_marginal_csv(final_path)
        if not np.array_equal(xi, xf):
            raise ValueError("marginal files use different spatial nodes")
        return cls(xs=xi, p_init=pi, p_final=pf)


def _read_marginal_csv(path):
    xs, ps = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                x, p = float(row[0]), float(row[1])
            except ValueError:
                continue  # header row
            xs.append(x)
            ps.append(p)
    if not xs:
        raise ValueError(f"no numeric rows found in {path}")
    return np.asarray(xs), np.asarray(ps)


@dataclass(frozen=True)
class SchrodingerFactors:
    """Converged boundary factors with iteration diagnostics."""

    eta_star_init: np.ndarray
    eta_final: np.ndarray
    iterations: int
    final_marginal_error: float
    residual_trace: np.ndarray = field(default=None, compare=False)
    monotone: bool = True

    def __post_init__(self):
        for name in ("eta_star_init", "eta_final"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be strictly positive and finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def kernel_matrix(grid: SpaceTimeGrid, hbar: float, s: float, t: float) -> np.ndarray:
    """Discretized heat kernel K[i, j] = h(s, xs[i], t, xs[j]) * dx.

    The quadrature weight dx is absorbed so that (K f)[i] approximates
    the integral of h(s, xs[i], t, .) f(.).
    """
    if not t > s:
        raise ValueError(f"kernel_matrix needs t > s, got s={s}, t={t}")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    xs = grid.xs
    var = hbar * (t - s)
    d = xs[:, None] - xs[None, :]
    return np.exp(-d * d / (2 * var)) / np.sqrt(2 * np.pi * var) * grid.dx


def _log_kernel(xs_out, xs_in, hbar, dt_span, dx):
    var = hbar * dt_span
    d = xs_out[:, None] - xs_in[None, :]
    return -d * d / (2 * var) - 0.5 * np.log(2 * np.pi * var) + np.log(dx)


def sinkhorn_solve(m: MarginalPair, K: np.ndarray, tol: float = 1e-10,
                   max_iter: int = 2000) -> SchrodingerFactors:
    """Alternate exact marginal fits until both residuals fall below tol.

    Updates: eta* <- p_init / (K eta);  eta <- p_final / (K^T eta*).
    The gauge is fixed by eta*_init(x_mid) = 1 at the middle node.
    Residuals are measured in the infinity norm of the recomposed marginals
    against the inputs; the trace is monitored for monotone decrease after
    the first full sweep.
    """
    K = np.asarray(K, dtype=float)
    n = m.xs.size
    if K.shape != (n, n):
        raise ValueError(f"kernel shape {K.shape} does not match {n} nodes")
    if np.any(K <= 0):
        raise ValueError("kernel matrix must be strictly positive")

    mid = n // 2
    eta = np.ones(n)
    eta_star = np.ones(n)
    trace = []
    monotone = True
    for it in range(1, max_iter + 1):
        eta_star = m.p_init / (K @ eta)
        eta = m.p_final / (K.T @ eta_star)
        if not (np.all(eta > 0) and np.all(np.isfinite(eta))
                and np.all(eta_star > 0) and np.all(np.isfinite(eta_star))):
            raise ConvergenceError(
                f"nonpositive or non-finite factor at iteration {it}",
                residual_trace=trace,
            )
        # gauge: eta* is 1 at the middle node
        c = eta_star[mid]
        eta_star = eta_star / c
        eta = eta * c
        res = max(
            float(np.max(np.abs(eta_star * (K @ eta) - m.p_init))),
            float(np.max(np.abs(eta * (K.T @ eta_star) - m.p_final))),
        )
        if len(trace) >= 1 and res > trace[-1] * (1 + 1e-12):
            monotone = False
        trace.append(res)
        if res <= tol:
            return SchrodingerFactors(
                eta_star_init=eta_star,
                eta_final=eta,
                iterations=it,
                final_marginal_error=res,
                residual_trace=np.asarray(trace),
                monotone=monotone,
            )
    raise ConvergenceError(
        f"marginal residual {trace[-1]:.3g} still above tol {tol:g} after "
        f"{max_iter} iterations",
        residual_trace=trace,
    )


def _propagate(factor, grid: SpaceTimeGrid, hbar: float, data_row: int):
    # kernel integrals of the factor held on data_row (0 or -1) over every
    # other row, accumulated in the log domain to avoid underflow when the
    # time span hbar * |t - t_data| is small
    xs, ts = grid.xs, grid.ts
    log_factor = np.log(factor)
    out = np.empty((grid.nt, grid.nx))
    out[data_row] = factor
    for k in range(grid.nt - 1) if data_row == -1 else range(1, grid.nt):
        lk = _log_kernel(xs, xs, hbar, abs(ts[k] - ts[data_row]), grid.dx)
        out[k] = np.exp(logsumexp(lk + log_factor[None, :], axis=1))
    return ScalarField(grid, out)


def propagate_eta(factors: SchrodingerFactors, grid: SpaceTimeGrid,
                  hbar: float) -> ScalarField:
    """eta(t, x) = integral of h(t, x, T/2, z) eta_final(z) dz.

    The final row is the stored factor exactly; earlier rows are kernel
    integrals accumulated in the log domain.
    """
    return _propagate(factors.eta_final, grid, hbar, -1)


def propagate_eta_star(factors: SchrodingerFactors, grid: SpaceTimeGrid,
                       hbar: float) -> ScalarField:
    """eta*(t, x) = integral of eta*_init(y) h(-T/2, y, t, x) dy."""
    return _propagate(factors.eta_star_init, grid, hbar, 0)


def bernstein_density(eta: ScalarField, eta_star: ScalarField) -> ScalarField:
    """Process density rho(t, x) = eta(t, x) * eta*(t, x)."""
    if not (np.array_equal(eta.grid.xs, eta_star.grid.xs)
            and np.array_equal(eta.grid.ts, eta_star.grid.ts)):
        raise ValueError("eta and eta* must live on the same grid")
    rho = eta.values * eta_star.values
    if np.any(rho < 0):
        raise ValueError("negative density entries; factors must be positive")
    return ScalarField(eta.grid, rho)


def pin_endpoints(m: MarginalPair, grid: SpaceTimeGrid, hbar: float,
                  tol: float, max_iter: int):
    """Pin both marginals across the grid's horizon: the horizon kernel, the
    Sinkhorn factors, both propagated factors and the density.

    Returns (factors, eta, eta_star, rho).
    """
    K = kernel_matrix(grid, hbar, grid.ts[0], grid.ts[-1])
    factors = sinkhorn_solve(m, K, tol=tol, max_iter=max_iter)
    eta = propagate_eta(factors, grid, hbar)
    eta_star = propagate_eta_star(factors, grid, hbar)
    return factors, eta, eta_star, bernstein_density(eta, eta_star)


def slice_mass(fld: ScalarField) -> np.ndarray:
    """Trapezoid mass of every time slice."""
    return np.trapezoid(fld.values, fld.grid.xs, axis=1)


def write_factors(factors: SchrodingerFactors, xs: np.ndarray, prefix: str,
                  tol: float = None) -> list:
    """Emit factors as CSV plus a JSON metadata sidecar; returns paths written."""
    csv_path = f"{prefix}_factors.csv"
    meta_path = f"{prefix}_factors.json"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "eta_star_init", "eta_final"])
        for x, a, b in zip(xs, factors.eta_star_init, factors.eta_final):
            w.writerow([repr(float(x)), repr(float(a)), repr(float(b))])
    with open(meta_path, "w") as fh:
        json.dump(
            {
                "iterations": factors.iterations,
                "final_marginal_error": factors.final_marginal_error,
                "tolerance": tol,
                "gauge": "eta_star_init equals 1 at the middle node",
                "monotone_residuals": bool(factors.monotone),
            },
            fh,
            indent=2,
        )
    return [csv_path, meta_path]
