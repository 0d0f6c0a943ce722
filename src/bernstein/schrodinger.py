"""Boundary-factor integral system for pinning both endpoint marginals.

Given endpoint densities p_init at t = -T/2 and p_final at t = T/2, find
positive boundary factors (eta*_init, eta_final) such that

    eta*_init(x) * (K eta_final)(x) = p_init(x)
    eta_final(z) * (K^T eta*_init)(z) = p_final(z)

with K the discretized heat kernel over the horizon. The factors are unique
up to the scalar gauge (c*eta*, eta/c) and are found by Sinkhorn / iterative
proportional fitting. Propagating the factors across the horizon with the
kernel yields eta(t,x), eta*(t,x) and the process density rho = eta * eta*.

On the uniform grid the kernel between two nodes is even in their offset,
so ``log_kernel`` builds it once per time span over the offsets 0 ... nx-1
(entry |i - j| for nodes i and j); ``kernel_matrix`` mirrors its exponential
into the full matrix. A factor f is propagated over every time slice at
once: with f zero-padded and divided by max f, the fold
S[d, i] = f[i - d] + f[i + d] (f[i] alone at d = 0) pairs the two nodes at
distance d from i, and the slices are the rows of G @ S times max f, row k
of G the half kernel for the span |t_k - t_data|. The sum holds to
round-off while f / max f stays far above the underflow threshold; a factor
whose log spans more than LINEAR_LOG_RANGE is summed slice by slice in the
log domain from the same rows, mirrored. Entries of G below the smallest
normal double, tiny (about 2.2e-308), are zeroed before the product, so it
multiplies no subnormal. That moves no bit of a slice: each folded entry is
at most 2, so the dropped terms of a sum total under 2 * nx * tiny, while
with f / max f >= e^-600 the sum is at least its diagonal term
g_k[0] * f[i] / max f >= g_k[0] * e^-600, whose rounding unit is still
tens of decades above that total.

``_propagate`` keeps a data row of its own (0 for eta*, -1 for eta)
instead of ``core._marching_rows``' order, since it integrates a boundary
factor over the horizon rather than marching. The product G @ S sums in an
order that depends on the BLAS thread count, in either row order: between
OPENBLAS_NUM_THREADS=1 and 2, 23 of the 10 251 entries of the
``schrodinger`` experiment's default rho moved, by at most 1.2e-15
relative. Its report read the same bytes at both counts (``gauge_deviation``
6.66e-16, also at 601 x 301), but its figures come from the same product.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ConvergenceError, ScalarField, SpaceTimeGrid


@dataclass(frozen=True)
class MarginalPair:
    """Endpoint densities on the spatial nodes, trapezoid-normalized to 1."""

    xs: np.ndarray
    p_init: np.ndarray
    p_final: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        pi = np.asarray(self.p_init, dtype=float)
        pf = np.asarray(self.p_final, dtype=float)
        if xs.ndim != 1 or pi.shape != xs.shape or pf.shape != xs.shape:
            raise ValueError("marginals must be 1-d arrays matching the node set")
        if not all(np.all((p > 0) & np.isfinite(p)) for p in (pi, pf)):
            raise ValueError("marginals must be finite and strictly positive nodewise")
        for name, arr in (("xs", xs), ("p_init", pi / np.trapezoid(pi, xs)),
                          ("p_final", pf / np.trapezoid(pf, xs))):
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
    """The (x, density) rows of a CSV file, after an optional header line;
    any other line that is not two numbers raises, naming its line."""
    pairs = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row:
                continue
            try:
                x, p = map(float, row)
            except ValueError:
                if rows.line_num == 1:
                    continue  # header
                raise ValueError(f"{path}, line {rows.line_num}: "
                                 f"{','.join(row)!r} is not an x,density "
                                 f"pair of numbers") from None
            pairs.append((x, p))
    if not pairs:
        raise ValueError(f"no numeric rows found in {path}")
    return np.asarray(pairs).T


@dataclass(frozen=True)
class SchrodingerFactors:
    """Converged boundary factors and the residual of each iteration."""

    eta_star_init: np.ndarray
    eta_final: np.ndarray
    residual_trace: np.ndarray = field(compare=False)

    def __post_init__(self):
        for name in ("eta_star_init", "eta_final"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be strictly positive and finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def iterations(self) -> int:
        return len(self.residual_trace)

    @property
    def final_marginal_error(self) -> float:
        return float(self.residual_trace[-1])

    @property
    def monotone(self) -> bool:
        """Whether no residual rose above the one before, to 1e-12 relative."""
        trace = np.asarray(self.residual_trace)
        return bool(np.all(trace[1:] <= trace[:-1] * (1 + 1e-12)))


def log_kernel(grid: SpaceTimeGrid, hbar: float, span) -> np.ndarray:
    """Gaussian log-kernel log(h * dx) over the node offsets for a time span.

    h = exp(-d^2 / (2 hbar span)) / sqrt(2 pi hbar span) at the distance
    d = xs[o] - xs[0] of the offsets o = 0 ... nx-1; the kernel is even in
    the offset, so on the uniform grid the kernel between nodes i and j is
    entry |i - j|. An array of spans gives one row per span.
    """
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    d = grid.xs - grid.xs[0]
    var = hbar * np.asarray(span, dtype=float)[..., None]
    out = -d * d / (2 * var)
    out -= 0.5 * np.log(2 * np.pi * var)
    out += np.log(grid.dx)
    return out


def _toeplitz(half):
    # the n x n view M[i, j] = half[|i - j|] of a row over the n offsets
    # 0 ... n - 1, through its mirror over -(n - 1) ... n - 1; the matrix is
    # symmetric, so reversing the windows' order rather than each window
    # keeps every row a forward stride
    full = np.concatenate((half[:0:-1], half))
    return sliding_window_view(full, half.size)[::-1]


def kernel_matrix(grid: SpaceTimeGrid, hbar: float, s: float, t: float) -> np.ndarray:
    """Discretized heat kernel K[i, j] = h(s, xs[i], t, xs[j]) * dx.

    The quadrature weight dx is absorbed so that (K f)[i] approximates
    the integral of h(s, xs[i], t, .) f(.).
    """
    if not t > s:
        raise ValueError(f"kernel_matrix needs t > s, got s={s}, t={t}")
    return np.ascontiguousarray(
        _toeplitz(np.exp(log_kernel(grid, hbar, t - s))))


#: Sinkhorn's marginal tolerance and iteration cap: ``sinkhorn_solve``'s
#: defaults, and what ``pin_endpoints`` solves to
SINKHORN_TOL = 1e-8
SINKHORN_MAX_ITER = 500


def sinkhorn_solve(m: MarginalPair, K: np.ndarray, tol: float = SINKHORN_TOL,
                   max_iter: int = SINKHORN_MAX_ITER) -> SchrodingerFactors:
    """Alternate exact marginal fits until both residuals fall below tol.

    Updates: eta* <- p_init / (K eta);  eta <- p_final / (K^T eta*).
    The gauge is fixed by eta*_init(x_mid) = 1 at the middle node.
    Residuals are measured in the infinity norm of the recomposed marginals
    against the inputs, one per iteration in the factors'
    ``residual_trace``. An iteration takes two kernel products: the
    residual's K eta is the next update's product, and the final marginal
    is recomposed from the update's own K^T eta*, rescaled by the gauge,
    so its residual is the round-off of that fit.
    """
    K = np.asarray(K, dtype=float)
    n = m.xs.size
    if K.shape != (n, n):
        raise ValueError(f"kernel shape {K.shape} does not match {n} nodes")
    if not K.min() > 0:
        raise ValueError("kernel matrix must be strictly positive")

    mid = n // 2
    eta = np.ones(n)
    k_eta = K @ eta
    trace = []
    for it in range(1, max_iter + 1):
        eta_star = m.p_init / k_eta
        kt_eta_star = K.T @ eta_star
        eta = m.p_final / kt_eta_star
        # a factor holding a NaN has a NaN minimum, which fails the test
        if not all(0 < f.min() and f.max() < np.inf for f in (eta_star, eta)):
            raise ConvergenceError(
                f"nonpositive or non-finite factor at iteration {it}",
                residual_trace=trace,
            )
        # gauge: eta* is 1 at the middle node
        c = eta_star[mid]
        eta_star = eta_star / c
        eta = eta * c
        k_eta = K @ eta
        res = max(
            float(np.max(np.abs(eta_star * k_eta - m.p_init))),
            float(np.max(np.abs(eta * (kt_eta_star / c) - m.p_final))),
        )
        trace.append(res)
        if res <= tol:
            return SchrodingerFactors(eta_star_init=eta_star, eta_final=eta,
                                      residual_trace=np.asarray(trace))
    raise ConvergenceError(
        f"marginal residual {trace[-1]:.3g} still above tol {tol:g} after "
        f"{max_iter} iterations",
        residual_trace=trace,
    )


#: a factor whose log spans at most this is propagated by a matrix product
#: of f / max f >= e^-600: each slice sum is at least its diagonal term, far
#: above the products that underflow (below e^-708). Wider factors are
#: summed in the log domain.
LINEAR_LOG_RANGE = 600.0


def _propagate(factor, grid: SpaceTimeGrid, hbar: float, data_row: int):
    # kernel integrals of the factor held on data_row (0 or -1) over every
    # other row: out[k, i] = sum_j g_k[|i - j|] f[j], g_k the half kernel
    # for the span |t_k - t_data|; g holds every g_k, (nt - 1) x nx at once
    nt, nx, ts = grid.nt, grid.nx, grid.ts
    log_f = np.log(factor)
    out = np.empty((nt, nx))
    out[data_row] = factor
    rows = slice(0, nt - 1) if data_row == -1 else slice(1, nt)
    g = log_kernel(grid, hbar, np.abs(ts[rows] - ts[data_row]))
    if np.ptp(log_f) <= LINEAR_LOG_RANGE:
        # the zero-padded factor over its maximum, folded by the kernel's
        # evenness: S[d, i] = f[i - d] + f[i + d], and f[i] once at d = 0,
        # so the rows g_k @ S are the integrals
        fmax = float(np.max(factor))
        padded = np.zeros(3 * nx - 2)
        padded[nx - 1:2 * nx - 1] = factor / fmax
        windows = sliding_window_view(padded, nx)  # windows[m, i] = padded[m + i]
        folded = windows[nx - 1:] + windows[nx - 1::-1]
        folded[0] = padded[nx - 1:2 * nx - 1]
        np.exp(g, out=g)
        # subnormal kernel entries would make the product run on microcode
        # assists; as zeros they move no bit of a slice (module docstring)
        g[g < np.finfo(float).tiny] = 0.0
        np.matmul(g, folded, out=out[rows])
        out[rows] *= fmax
    else:
        from scipy.special import logsumexp
        for k, gk in zip(range(nt)[rows], g):
            out[k] = np.exp(logsumexp(_toeplitz(gk) + log_f, axis=1))
    return ScalarField(grid, out)


def propagate_eta(factors: SchrodingerFactors, grid: SpaceTimeGrid,
                  hbar: float) -> ScalarField:
    """eta(t, x) = integral of h(t, x, T/2, z) eta_final(z) dz.

    The final row is the stored factor exactly; earlier rows are kernel
    integrals, one matrix product over the node distances.
    """
    return _propagate(factors.eta_final, grid, hbar, -1)


def propagate_eta_star(factors: SchrodingerFactors, grid: SpaceTimeGrid,
                       hbar: float) -> ScalarField:
    """eta*(t, x) = integral of eta*_init(y) h(-T/2, y, t, x) dy."""
    return _propagate(factors.eta_star_init, grid, hbar, 0)


def bernstein_density(eta: ScalarField, eta_star: ScalarField) -> ScalarField:
    """Process density rho(t, x) = eta(t, x) * eta*(t, x)."""
    if eta.grid != eta_star.grid:
        raise ValueError("eta and eta* must live on the same grid")
    rho = eta.values * eta_star.values
    if np.any(rho < 0):
        raise ValueError("negative density entries; factors must be positive")
    return ScalarField(eta.grid, rho)


def pin_endpoints(m: MarginalPair, grid: SpaceTimeGrid, hbar: float):
    """Pin both marginals across the grid's horizon: the horizon kernel, the
    Sinkhorn factors (to SINKHORN_TOL within SINKHORN_MAX_ITER iterations),
    both propagated factors and the density.

    Returns (factors, eta, eta_star, rho).
    """
    K = kernel_matrix(grid, hbar, grid.ts[0], grid.ts[-1])
    factors = sinkhorn_solve(m, K)
    eta = propagate_eta(factors, grid, hbar)
    eta_star = propagate_eta_star(factors, grid, hbar)
    return factors, eta, eta_star, bernstein_density(eta, eta_star)


def slice_mass(fld: ScalarField) -> np.ndarray:
    """Trapezoid mass of every time slice."""
    return np.trapezoid(fld.values, fld.grid.xs, axis=1)
