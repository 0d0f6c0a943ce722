import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from bernstein.core import ConvergenceError, SpaceTimeGrid
from bernstein.schrodinger import (
    LINEAR_LOG_RANGE,
    MarginalPair,
    SchrodingerFactors,
    bernstein_density,
    kernel_matrix,
    log_kernel,
    propagate_eta,
    propagate_eta_star,
    sinkhorn_solve,
    slice_mass,
)


def make_grid(nx=201, nt=21, half=4.0, T2=0.5):
    return SpaceTimeGrid(xs=np.linspace(-half, half, nx),
                         ts=np.linspace(-T2, T2, nt))


def gauss(xs, mu, sd):
    return np.exp(-((xs - mu) ** 2) / (2 * sd * sd)) / (sd * math.sqrt(2 * math.pi))


def dense_kernel(grid, hbar, span):
    d = grid.xs[:, None] - grid.xs[None, :]
    var = hbar * span
    return np.exp(-d * d / (2 * var)) / np.sqrt(2 * np.pi * var) * grid.dx


def logsumexp_rows(factor, grid, hbar, data_row):
    """Reference propagation: every other row of the grid as a dense
    kernel integral over the node differences, summed in the log domain."""
    xs, ts = grid.xs, grid.ts
    d = xs[:, None] - xs[None, :]
    log_f = np.log(factor)
    out = np.empty((grid.nt, grid.nx))
    out[data_row] = factor
    for k in range(grid.nt - 1) if data_row == -1 else range(1, grid.nt):
        var = hbar * abs(ts[k] - ts[data_row])
        lk = (-d * d / (2 * var) - 0.5 * np.log(2 * np.pi * var)
              + np.log(grid.dx))
        out[k] = np.exp(logsumexp(lk + log_f[None, :], axis=1))
    return out


def both_ways(factors):
    """(propagate, factor, data row) for each factor of the pair."""
    return ((propagate_eta, factors.eta_final, -1),
            (propagate_eta_star, factors.eta_star_init, 0))


def assert_matches_direct_kernel_sum(grid, hbar):
    """Factors largest at an edge node, which weigh the zero padding next
    to it and the offset-0 term, propagated both ways against an explicit
    Gaussian sum."""
    xs, ts = grid.xs, grid.ts
    rising, falling = np.exp(3 * xs), np.exp(-2 * xs)
    for eta_star_init, eta_final in ((rising, falling), (falling, rising)):
        factors = SchrodingerFactors(eta_star_init=eta_star_init,
                                     eta_final=eta_final, residual_trace=[0.0])
        for propagate, factor, row in both_ways(factors):
            # these factors take the matrix-product path
            assert np.ptp(np.log(factor)) <= LINEAR_LOG_RANGE
            got = propagate(factors, grid, hbar).values
            assert np.array_equal(got[row], factor)
            for k in range(grid.nt - 1) if row == -1 else range(1, grid.nt):
                kernel = dense_kernel(grid, hbar, abs(ts[k] - ts[row]))
                ref = np.sum(kernel * factor, axis=1)
                assert np.max(np.abs(got[k] / ref - 1)) <= 1e-13


def assert_wide_log_range_matches_logsumexp(grid, hbar):
    """Factors spanning more than the doubles' exponent range relative to
    their maximum, which go through the log-domain path."""
    xs = grid.xs
    factors = SchrodingerFactors(
        eta_star_init=np.exp(300 - 40 * (xs + 0.5) ** 2 - 3 * xs),
        eta_final=np.exp(300 - 40 * (xs - 0.5) ** 2 + 3 * xs),
        residual_trace=[0.0])
    for propagate, factor, row in both_ways(factors):
        assert np.ptp(np.log(factor)) > 745
        got = propagate(factors, grid, hbar).values
        ref = logsumexp_rows(factor, grid, hbar, row)
        assert np.array_equal(got[row], factor)
        assert np.max(np.abs(got / ref - 1)) <= 1e-12


@functools.cache
def pinned(hbar, nx, nt):
    """The pinning benchmark's problem, which is also the ``schrodinger``
    experiment's: N(-1, 0.35^2) to N(1, 0.35^2) on [-4, 4] over
    [-1/2, 1/2], solved to 1e-8. Returns (grid, marginals, K, factors)."""
    grid = make_grid(nx=nx, nt=nt)
    p_init, p_final = (np.exp(-((grid.xs - mean) ** 2) / (2 * 0.35**2))
                       for mean in (-1.0, 1.0))
    marg = MarginalPair(xs=grid.xs, p_init=p_init, p_final=p_final)
    K = kernel_matrix(grid, hbar, grid.ts[0], grid.ts[-1])
    K.setflags(write=False)  # shared by every test that asks for the case
    return grid, marg, K, sinkhorn_solve(marg, K, tol=1e-8)


#: the pinning benchmark's two cases that converge, and the ``schrodinger``
#: experiment's default grid
PINNED_CASES = [(0.5, 601, 301), (0.1, 401, 201), (0.5, 201, 51)]


def unflushed_propagation(factor, grid, hbar, data_row):
    """The propagated rows as the plain product exp(log_kernel) @ S of
    every half-kernel row, subnormal entries kept, with the folded factor
    S[d, i] = f[i - d] + f[i + d] (f[i] once at d = 0), f = factor / max.
    Returns (half kernel, rows)."""
    nx, nt, ts = grid.nx, grid.nt, grid.ts
    rows = slice(0, nt - 1) if data_row == -1 else slice(1, nt)
    g = np.exp(log_kernel(grid, hbar, np.abs(ts[rows] - ts[data_row])))
    fmax = float(np.max(factor))
    padded = np.concatenate((np.zeros(nx - 1), factor / fmax, np.zeros(nx - 1)))
    d, i = np.arange(nx)[:, None], np.arange(nx)[None, :]
    folded = padded[nx - 1 + i - d] + padded[nx - 1 + i + d]
    folded[0] = factor / fmax
    return g, (g @ folded) * fmax


def sinkhorn_four_products(m, K, tol):
    """Reference Sinkhorn loop that takes all four matrix-vector products of
    an iteration afresh: the two updates and the two residuals."""
    mid = m.xs.size // 2
    eta = np.ones(m.xs.size)
    trace = []
    while not trace or trace[-1] > tol:
        eta_star = m.p_init / (K @ eta)
        eta = m.p_final / (K.T @ eta_star)
        c = eta_star[mid]
        eta_star, eta = eta_star / c, eta * c
        trace.append(max(float(np.max(np.abs(eta_star * (K @ eta) - m.p_init))),
                         float(np.max(np.abs(eta * (K.T @ eta_star) - m.p_final)))))
    return eta_star, eta, np.asarray(trace)


@pytest.fixture(scope="module")
def pipeline():
    grid = make_grid()
    hbar = 0.5
    marg = MarginalPair(xs=grid.xs, p_init=gauss(grid.xs, -1, 0.35),
                        p_final=gauss(grid.xs, 1, 0.35))
    K = kernel_matrix(grid, hbar, grid.ts[0], grid.ts[-1])
    factors = sinkhorn_solve(marg, K, tol=1e-10)
    return grid, hbar, marg, K, factors


class TestKernelMatrix:
    def test_row_sums_near_one(self):
        grid = make_grid(nx=401, half=6.0)
        K = kernel_matrix(grid, 0.5, -0.5, 0.5)
        # rows centered well inside the domain integrate to ~1
        inner = np.abs(grid.xs) < 2.0
        assert np.allclose(K[inner].sum(axis=1), 1.0, atol=1e-8)

    def test_symmetric(self):
        K = kernel_matrix(make_grid(nx=51), 1.0, 0.0, 0.3)
        assert np.allclose(K, K.T)

    def test_positive(self):
        K = kernel_matrix(make_grid(nx=51), 1.0, 0.0, 0.3)
        assert np.all(K > 0)

    def test_matches_dense_formula(self):
        # the log-kernel agrees with the one over the node differences to
        # round-off relative to its own size, and both underflow together
        grid = make_grid(nx=301)
        for hbar, span in ((0.5, 1.0), (0.05, 0.02)):
            K = kernel_matrix(grid, hbar, 0.0, span)
            ref = dense_kernel(grid, hbar, span)
            pos = ref > 1e-300
            log_ref = np.log(ref[pos])
            err = np.abs(np.log(K[pos]) - log_ref) / np.maximum(1, np.abs(log_ref))
            assert np.max(err) <= 1e-13
            assert np.all(K[~pos] <= 1e-290)

    def test_toeplitz(self):
        K = kernel_matrix(make_grid(nx=51), 1.0, 0.0, 0.3)
        assert np.array_equal(K[1:, 1:], K[:-1, :-1])

    def test_time_ordering(self):
        with pytest.raises(ValueError):
            kernel_matrix(make_grid(), 1.0, 0.5, 0.5)

    def test_rejects_nan_hbar(self):
        with pytest.raises(ValueError, match="hbar must be positive"):
            kernel_matrix(make_grid(nx=11), float("nan"), 0.0, 0.3)


class TestMarginalPair:
    def test_normalizes(self):
        xs = np.linspace(-4, 4, 101)
        m = MarginalPair(xs=xs, p_init=3 * gauss(xs, 0, 1), p_final=gauss(xs, 0, 1))
        assert np.trapezoid(m.p_init, xs) == pytest.approx(1.0, abs=1e-12)
        assert np.trapezoid(m.p_final, xs) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        xs = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError):
            MarginalPair(xs=xs, p_init=np.zeros(11), p_final=np.ones(11))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        xs = np.linspace(-1, 1, 11)
        p = np.ones(11)
        p[4] = bad
        with pytest.raises(ValueError, match="finite"):
            MarginalPair(xs=xs, p_init=np.ones(11), p_final=p)

    @pytest.mark.parametrize("lines, bad_line", [
        (["x,density", "0,O.3", "1,0.2"], 2),
        (["0,0.3", "x,density", "1,0.2"], 2),  # a header on a later line
        (["0,0.3", "1"], 2),
        (["0,0.3", "", "1,0.2,7"], 3),
    ])
    def test_csv_bad_line_names_file_and_line(self, tmp_path, lines, bad_line):
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"m\.csv, line {bad_line}: "):
            MarginalPair.from_csv(path, path)

    def test_csv_roundtrip(self, tmp_path):
        xs = np.linspace(-4, 4, 101)
        for name, mu in (("init", -1.0), ("final", 1.0)):
            with open(tmp_path / f"{name}.csv", "w") as fh:
                fh.write("x,density\n")
                for x, p in zip(xs, gauss(xs, mu, 0.5)):
                    fh.write(f"{float(x)!r},{float(p)!r}\n")
        m = MarginalPair.from_csv(tmp_path / "init.csv", tmp_path / "final.csv")
        assert np.allclose(m.xs, xs)
        assert np.trapezoid(m.p_final, xs) == pytest.approx(1.0, abs=1e-12)


class TestSinkhorn:
    def test_marginal_reproduction(self, pipeline):
        grid, hbar, marg, K, factors = pipeline
        assert factors.final_marginal_error <= 1e-10
        recomposed_init = factors.eta_star_init * (K @ factors.eta_final)
        recomposed_final = factors.eta_final * (K.T @ factors.eta_star_init)
        assert np.max(np.abs(recomposed_init - marg.p_init)) <= 1e-8
        assert np.max(np.abs(recomposed_final - marg.p_final)) <= 1e-8

    def test_gauge_midpoint_is_one(self, pipeline):
        _, _, _, _, factors = pipeline
        assert factors.eta_star_init[factors.eta_star_init.size // 2] == pytest.approx(1.0)

    def test_residuals_monotone(self, pipeline):
        _, _, _, _, factors = pipeline
        assert factors.monotone

    def test_diagnostics_read_the_trace(self):
        ones = np.ones(3)
        f = SchrodingerFactors(eta_star_init=ones, eta_final=ones,
                               residual_trace=[1.0, 0.5, 0.5 * (1 + 2e-12)])
        assert f.iterations == 3
        assert f.final_marginal_error == 0.5 * (1 + 2e-12)
        assert not f.monotone

    def test_matches_four_product_reference(self, pipeline):
        # reusing the residual's K @ eta as the next update's product, and
        # the update's K^T @ eta* in the residual, keeps every bit of the
        # factors and of the trace
        _, _, marg, K, factors = pipeline
        cases = [(marg, K, 1e-10, factors)]
        for case in PINNED_CASES:  # 8, 26 and 8 iterations
            _, marg, K, factors = pinned(*case)
            cases.append((marg, K, 1e-8, factors))
        for marg, K, tol, factors in cases:
            eta_star, eta, trace = sinkhorn_four_products(marg, K, tol)
            assert np.array_equal(factors.eta_star_init, eta_star)
            assert np.array_equal(factors.eta_final, eta)
            assert np.array_equal(factors.residual_trace, trace)

    @pytest.mark.parametrize("case", PINNED_CASES)
    def test_two_kernel_products_per_iteration(self, case, monkeypatch):
        # one product before the first iteration, then the update's two
        _, marg, K, factors = pinned(*case)
        products = 0

        class CountingKernel(np.ndarray):
            def __matmul__(self, other):
                nonlocal products
                products += 1
                return self.view(np.ndarray) @ other

        # sinkhorn_solve takes its kernel through np.asarray, which would
        # drop the subclass
        asarray = np.asarray
        monkeypatch.setattr(np, "asarray", lambda a, *args, **kwargs: (
            a if isinstance(a, CountingKernel) else asarray(a, *args, **kwargs)))
        got = sinkhorn_solve(marg, K.view(CountingKernel), tol=1e-8)
        assert np.array_equal(got.residual_trace, factors.residual_trace)
        assert products == 1 + 2 * got.iterations

    def test_symmetric_inputs_give_equal_factors(self):
        # even marginals on an even grid make the fixed point symmetric:
        # eta equals eta* after matching the gauge
        grid = make_grid(nx=151)
        p = gauss(grid.xs, 0, 0.6)
        marg = MarginalPair(xs=grid.xs, p_init=p, p_final=p)
        K = kernel_matrix(grid, 0.5, grid.ts[0], grid.ts[-1])
        f = sinkhorn_solve(marg, K, tol=1e-12)
        c = math.sqrt(f.eta_final[f.eta_final.size // 2])
        assert np.allclose(f.eta_star_init * c, f.eta_final / c, rtol=1e-6)

    def test_nonconvergence_reports_trace(self):
        grid = make_grid(nx=51)
        p = gauss(grid.xs, 0, 0.6)
        marg = MarginalPair(xs=grid.xs, p_init=p, p_final=p)
        K = kernel_matrix(grid, 0.5, grid.ts[0], grid.ts[-1])
        with pytest.raises(ConvergenceError) as exc:
            sinkhorn_solve(marg, K, tol=1e-30, max_iter=3)
        assert len(exc.value.residual_trace) == 3

    def test_rejects_nonpositive_kernel(self):
        grid = make_grid(nx=11)
        p = gauss(grid.xs, 0, 1.0)
        marg = MarginalPair(xs=grid.xs, p_init=p, p_final=p)
        with pytest.raises(ValueError):
            sinkhorn_solve(marg, np.zeros((11, 11)), tol=1e-8)

    def test_rejects_nan_kernel(self):
        grid = make_grid(nx=11)
        p = gauss(grid.xs, 0, 1.0)
        marg = MarginalPair(xs=grid.xs, p_init=p, p_final=p)
        K = kernel_matrix(grid, 0.5, grid.ts[0], grid.ts[-1])
        K[3, 7] = np.nan
        with pytest.raises(ValueError, match="kernel matrix must be strictly positive"):
            sinkhorn_solve(marg, K, tol=1e-8)


class TestPropagation:
    def test_boundary_rows_exact(self, pipeline):
        grid, hbar, _, _, factors = pipeline
        eta = propagate_eta(factors, grid, hbar)
        eta_star = propagate_eta_star(factors, grid, hbar)
        assert np.array_equal(eta.values[-1], factors.eta_final)
        assert np.array_equal(eta_star.values[0], factors.eta_star_init)

    @pytest.mark.parametrize("hbar, nx, nt", [
        (0.5, 601, 301), (0.1, 401, 201), (0.05, 401, 51), (0.5, 201, 51)])
    def test_matches_logsumexp_reference(self, hbar, nx, nt):
        grid = make_grid(nx=nx, nt=nt)
        marg = MarginalPair(xs=grid.xs, p_init=gauss(grid.xs, -1, 0.35),
                            p_final=gauss(grid.xs, 1, 0.35))
        K = kernel_matrix(grid, hbar, grid.ts[0], grid.ts[-1])
        factors = sinkhorn_solve(marg, K, tol=1e-8, max_iter=500)
        for propagate, factor, row in both_ways(factors):
            # these factors take the matrix-product path
            assert np.ptp(np.log(factor)) <= LINEAR_LOG_RANGE
            got = propagate(factors, grid, hbar).values
            ref = logsumexp_rows(factor, grid, hbar, row)
            assert np.array_equal(got[row], factor)
            assert np.max(np.abs(got / ref - 1)) <= 1e-12

    @pytest.mark.parametrize("hbar, nx, nt", [
        (0.5, 601, 301), (0.1, 401, 201), (0.1, 1201, 401)])
    def test_flushing_subnormals_moves_no_bit(self, hbar, nx, nt):
        # these half kernels hold 268, 600 and 3595 subnormal entries
        grid, _, _, factors = pinned(hbar, nx, nt)
        for propagate, factor, row in both_ways(factors):
            assert np.ptp(np.log(factor)) <= LINEAR_LOG_RANGE
            g, ref = unflushed_propagation(factor, grid, hbar, row)
            assert np.count_nonzero((g > 0) & (g < np.finfo(float).tiny)) > 0
            got = propagate(factors, grid, hbar).values
            rows = slice(0, -1) if row == -1 else slice(1, None)
            assert np.array_equal(got[rows], ref)
            assert np.array_equal(got[row], factor)

    def test_product_multiplies_no_subnormal(self, monkeypatch):
        grid, _, _, factors = pinned(0.5, 601, 301)
        kernels = []
        matmul = np.matmul

        def recording_matmul(a, b, **kwargs):
            kernels.append(a)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        for propagate, _, _ in both_ways(factors):
            propagate(factors, grid, 0.5)
        assert len(kernels) == 2
        for g in kernels:
            assert g.shape == (grid.nt - 1, grid.nx)
            assert not np.any((g > 0) & (g < np.finfo(float).tiny))

    @pytest.mark.parametrize("nx", [40, 41, 201])
    def test_edge_heavy_factors_match_direct_kernel_sum(self, nx):
        assert_matches_direct_kernel_sum(make_grid(nx=nx), 0.5)

    def test_wide_log_range_matches_logsumexp_reference(self):
        assert_wide_log_range_matches_logsumexp(make_grid(nx=401, nt=51), 0.5)

    def test_one_propagated_row(self):
        # at nt = 2 each factor is propagated onto the one other row, by
        # the matrix product and in the log domain
        grid = make_grid(nx=201, nt=2)
        assert_matches_direct_kernel_sum(grid, 0.5)
        assert_wide_log_range_matches_logsumexp(grid, 0.5)

    def test_heat_equation_residuals(self):
        # dual heat flows on a 401x401 sampling; the residual of the checking
        # stencil is scaled by the size of the largest operator term
        hbar = 0.5
        grid = make_grid(nx=401, nt=401)
        marg = MarginalPair(xs=grid.xs, p_init=gauss(grid.xs, -1, 0.35),
                            p_final=gauss(grid.xs, 1, 0.35))
        K = kernel_matrix(grid, hbar, grid.ts[0], grid.ts[-1])
        factors = sinkhorn_solve(marg, K, tol=1e-10)
        eta = propagate_eta(factors, grid, hbar).values
        eta_star = propagate_eta_star(factors, grid, hbar).values
        dt, dx = grid.dt, grid.dx
        for v, sign in ((eta, +1), (eta_star, -1)):
            d_t = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * dt)
            d_xx = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / dx**2
            res = d_t + sign * (hbar / 2) * d_xx
            inner = np.abs(grid.xs[1:-1]) < 2.5
            scale = max(np.max(np.abs(d_t)), np.max(np.abs(hbar / 2 * d_xx)))
            assert np.max(np.abs(res[:, inner])) / scale <= 1e-3

    def test_density_matches_marginals_and_mass(self, pipeline):
        grid, hbar, marg, _, factors = pipeline
        rho = bernstein_density(
            propagate_eta(factors, grid, hbar),
            propagate_eta_star(factors, grid, hbar),
        )
        assert np.max(np.abs(rho.values[0] - marg.p_init)) <= 1e-7
        assert np.max(np.abs(rho.values[-1] - marg.p_final)) <= 1e-7
        assert np.max(np.abs(slice_mass(rho) - 1.0)) <= 1e-6

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=10, deadline=None)
    def test_gauge_invariance(self, pipeline, c):
        grid, hbar, _, _, factors = pipeline
        scaled = SchrodingerFactors(
            eta_star_init=factors.eta_star_init * c,
            eta_final=factors.eta_final / c,
            residual_trace=factors.residual_trace,
        )
        rho_a = bernstein_density(
            propagate_eta(factors, grid, hbar),
            propagate_eta_star(factors, grid, hbar),
        )
        rho_b = bernstein_density(
            propagate_eta(scaled, grid, hbar),
            propagate_eta_star(scaled, grid, hbar),
        )
        assert np.max(np.abs(rho_a.values - rho_b.values)) <= 1e-12

    def test_grid_mismatch_rejected(self, pipeline):
        grid, hbar, _, _, factors = pipeline
        other = make_grid(nt=5)
        eta = propagate_eta(factors, grid, hbar)
        eta_star = propagate_eta_star(factors, other, hbar)
        with pytest.raises(ValueError, match="same grid"):
            bernstein_density(eta, eta_star)
