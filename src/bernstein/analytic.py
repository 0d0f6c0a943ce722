"""Closed-form heat kernels, the two-sided transition density, and quadrature
oracles for the worked one-dimensional example (V = 0, S = |x|,
S* = log(1+|x|)) and its fixed-horizon counterpart.

These are the ground-truth layer the grid solvers and simulators are tested
against. All functions are pure and safe to call in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .core import ConvergenceError

V_ZERO = "V_ZERO"


@dataclass(frozen=True)
class KernelParams:
    hbar: float
    convention: str = V_ZERO

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.convention != V_ZERO:
            raise ValueError(f"unsupported kernel convention {self.convention!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    tail_sigmas: float = 10.0
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.tail_sigmas < 6:
            raise ValueError("tail_sigmas must be >= 6")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureConfig()


def _quad(f, a, b, q: QuadratureConfig) -> float:
    val, err = integrate.quad(
        f, a, b, epsabs=q.abs_tol, epsrel=q.rel_tol, limit=q.max_subdivisions
    )
    if not math.isfinite(val):
        raise ConvergenceError(f"quadrature returned non-finite value on [{a}, {b}]")
    if err > 100 * max(q.abs_tol, q.rel_tol * abs(val)):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3g} exceeds tolerance for "
            f"value {val:.6g} on [{a}, {b}]"
        )
    return val


def heat_kernel(s: float, x: float, t: float, y: float, p: KernelParams) -> float:
    """Free Gaussian kernel with variance hbar*(t-s); requires t > s."""
    if not t > s:
        raise ValueError(f"heat kernel needs t > s, got s={s}, t={t}")
    var = p.hbar * (t - s)
    return math.exp(-((x - y) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def bernstein_transition(s, x, t, y, u, z, p: KernelParams) -> float:
    """Conditional midpoint density h(s,x,t,y) h(t,y,u,z) / h(s,x,u,z)."""
    if not s < t < u:
        raise ValueError(f"need s < t < u, got {s}, {t}, {u}")
    return (
        heat_kernel(s, x, t, y, p)
        * heat_kernel(t, y, u, z, p)
        / heat_kernel(s, x, u, z, p)
    )


# ---------------------------------------------------------------------------
# The worked example. The solved fields below are even in x, so both branches
# of the printed formulas are handled through |x|.

#: The worked example as a problem document for ``ProblemSpec.from_json``;
#: the oracles below solve it exactly.
WORKED_EXAMPLE = {
    "hbar": 1.0,
    "half_horizon": 0.5,
    "x_min": -3.0,
    "x_max": 3.0,
    "potential": "zero",
    "terminal_cost": "abs",
    "initial_cost": "log1p_abs",
}


def _check_forward_time(t, T):
    if not -T / 2 <= t <= T / 2:
        raise ValueError(f"t={t} outside horizon [-{T/2}, {T/2}]")


# Data of the two orientations at y >= 0: exp(-S/hbar) with S = |y| at
# t = T/2, and exp(-S*/hbar) with S* = log(1+|y|) at t = -T/2. Each oracle
# below is one formula in theta, the time elapsed from its data slice.

def _forward_data(y, hbar):
    return math.exp(-y / hbar)


def _backward_data(y, hbar):
    return (1.0 + y) ** (-1.0 / hbar)


def _stopped_eta(theta, x, hbar, data, q):
    # image-term formula for the heat flow with eta = 1 on x = 0
    xa = abs(x)
    if theta == 0:
        return data(xa, hbar)
    if xa == 0:
        return 1.0
    s2 = hbar * theta
    norm = math.sqrt(2 * math.pi * s2)

    def f(y):
        k = math.exp(-((xa - y) ** 2) / (2 * s2)) - math.exp(
            -((xa + y) ** 2) / (2 * s2)
        )
        return k / norm * (data(y, hbar) - 1.0)

    upper = xa + q.tail_sigmas * math.sqrt(s2)
    return 1.0 + _quad(f, 0.0, upper, q)


def _free_eta(theta, x, hbar, data, q):
    # free-space heat flow of the data
    if theta == 0:
        return data(abs(x), hbar)
    s2 = hbar * theta
    norm = math.sqrt(2 * math.pi * s2)

    def f(y):
        return math.exp(-((x - y) ** 2) / (2 * s2)) / norm * data(abs(y), hbar)

    half = abs(x) + q.tail_sigmas * math.sqrt(s2)
    return _quad(f, -half, half, q)


def _stopped_deta_dx(theta, x, hbar, data, q):
    # differentiation under the integral; d/dx eta is odd in x
    s2 = hbar * theta
    norm = math.sqrt(2 * math.pi * s2)
    xa = abs(x)

    def f(y):
        a, b = xa - y, xa + y
        k = -(a / s2) * math.exp(-a * a / (2 * s2)) + (b / s2) * math.exp(
            -b * b / (2 * s2)
        )
        return k / norm * (data(y, hbar) - 1.0)

    upper = xa + q.tail_sigmas * math.sqrt(s2)
    v = _quad(f, 0.0, upper, q)
    return v if x > 0 else -v


def sec7_eta_forward(t, x, hbar, T, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """The transformed value function of the forward free-boundary problem.

    Boundary data: eta(t, 0) = 1 for all t and eta(T/2, x) = exp(-|x|/hbar).
    Evaluated by adaptive quadrature of the image-term integral formula.
    """
    _check_forward_time(t, T)
    return _stopped_eta(T / 2 - t, x, hbar, _forward_data, q)


def sec7_eta_backward(t, x, hbar, T, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Transformed value function of the backward free-boundary problem.

    Boundary data: eta*(t, 0) = 1 and eta*(-T/2, x) = (1+|x|)^(-1/hbar).
    """
    _check_forward_time(t, T)
    return _stopped_eta(t + T / 2, x, hbar, _backward_data, q)


def sec7_classical_eta(t, x, hbar, T, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Free-space (no stopping) transformed value, terminal data exp(-|x|/hbar)."""
    _check_forward_time(t, T)
    return _free_eta(T / 2 - t, x, hbar, _forward_data, q)


def sec7_classical_eta_star(t, x, hbar, T, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Free-space backward transformed value, initial data (1+|x|)^(-1/hbar)."""
    _check_forward_time(t, T)
    return _free_eta(t + T / 2, x, hbar, _backward_data, q)


def _verify_log_derivative(drift, eta_at, t, x, hbar, fd_step, fd_tol):
    # cross-check the in-integral derivative against a centered log difference;
    # the printed drift expressions are sign-fragile, so both routes must agree
    lo = eta_at(t, x - fd_step)
    hi = eta_at(t, x + fd_step)
    fd = hbar * (math.log(hi) - math.log(lo)) / (2 * fd_step)
    if abs(fd - drift) > fd_tol * max(1.0, abs(drift)):
        raise ConvergenceError(
            f"drift evaluations disagree at (t={t}, x={x}): "
            f"integral route {drift:.10g} vs log-difference {fd:.10g}"
        )


def sec7_drift_forward(t, x, hbar, T, q: QuadratureConfig = DEFAULT_QUAD,
                       verify=True, fd_step=1e-5, fd_tol=1e-4) -> float:
    """Optimal forward drift hbar * d/dx log(eta); pushes the state toward 0.

    Evaluated by differentiating under the integral and, when ``verify`` is
    set, cross-checked against a centered difference of log(eta).
    """
    if x == 0:
        raise ValueError("drift is undefined on the stopping boundary x = 0")
    if not -T / 2 <= t < T / 2:
        raise ValueError(f"t={t} must be interior, before T/2")
    eta = sec7_eta_forward(t, x, hbar, T, q)
    b = hbar * _stopped_deta_dx(T / 2 - t, x, hbar, _forward_data, q) / eta
    if verify:
        _verify_log_derivative(
            b, lambda tt, xx: sec7_eta_forward(tt, xx, hbar, T, q),
            t, x, hbar, fd_step, fd_tol,
        )
    return b


def sec7_drift_backward(t, x, hbar, T, q: QuadratureConfig = DEFAULT_QUAD,
                        verify=True, fd_step=1e-5, fd_tol=1e-4) -> float:
    """Optimal backward drift -hbar * d/dx log(eta*)."""
    if x == 0:
        raise ValueError("drift is undefined on the stopping boundary x = 0")
    if not -T / 2 < t <= T / 2:
        raise ValueError(f"t={t} must be interior, after -T/2")
    eta = sec7_eta_backward(t, x, hbar, T, q)
    b = -hbar * _stopped_deta_dx(t + T / 2, x, hbar, _backward_data, q) / eta
    if verify:
        _verify_log_derivative(
            -b, lambda tt, xx: sec7_eta_backward(tt, xx, hbar, T, q),
            t, x, hbar, fd_step, fd_tol,
        )
    return b


def oracle_table(eval_fn, ts, xs) -> np.ndarray:
    """Tabulate a pointwise oracle over a time/space node set."""
    out = np.empty((len(ts), len(xs)))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            out[i, j] = eval_fn(t, x)
    return out
