"""Closed-form heat kernels, the two-sided transition density, and quadrature
oracles for the worked one-dimensional example (V = 0, S = |x|,
S* = log(1+|x|)) and its fixed-horizon counterpart.

These are the ground-truth layer the grid solvers and simulators are tested
against. All functions are pure and safe to call in parallel. ``_quad``
imports ``scipy.integrate`` on first use, so only oracle runs pay for it.
"""

from __future__ import annotations

import math

from .core import ConvergenceError

#: Quadrature settings of every oracle: absolute and relative tolerance, the
#: integration range in standard deviations of the kernel past |x|, and
#: scipy's subinterval limit.
QUAD_ABS_TOL = 1e-11
QUAD_REL_TOL = 1e-10
TAIL_SIGMAS = 10.0
MAX_SUBDIVISIONS = 200


def _quad(f, a, b) -> float:
    from scipy import integrate
    val, err = integrate.quad(
        f, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=MAX_SUBDIVISIONS
    )
    if not math.isfinite(val):
        raise ConvergenceError(f"quadrature returned non-finite value on [{a}, {b}]")
    if err > 100 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(val)):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3g} exceeds tolerance for "
            f"value {val:.6g} on [{a}, {b}]"
        )
    return val


def heat_kernel(s: float, x: float, t: float, y: float, hbar: float) -> float:
    """Free Gaussian kernel with variance hbar*(t-s); requires t > s and
    hbar > 0."""
    if not t > s:
        raise ValueError(f"heat kernel needs t > s, got s={s}, t={t}")
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    var = hbar * (t - s)
    return math.exp(-((x - y) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def bernstein_transition(s, x, t, y, u, z, hbar: float) -> float:
    """Conditional midpoint density h(s,x,t,y) h(t,y,u,z) / h(s,x,u,z)."""
    if not s < t < u:
        raise ValueError(f"need s < t < u, got {s}, {t}, {u}")
    return (
        heat_kernel(s, x, t, y, hbar)
        * heat_kernel(t, y, u, z, hbar)
        / heat_kernel(s, x, u, z, hbar)
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


def _stopped_eta(theta, x, hbar, data):
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

    upper = xa + TAIL_SIGMAS * math.sqrt(s2)
    return 1.0 + _quad(f, 0.0, upper)


def _free_eta(theta, x, hbar, data):
    # free-space heat flow of the data
    if theta == 0:
        return data(abs(x), hbar)
    s2 = hbar * theta
    norm = math.sqrt(2 * math.pi * s2)

    def f(y):
        return math.exp(-((x - y) ** 2) / (2 * s2)) / norm * data(abs(y), hbar)

    half = abs(x) + TAIL_SIGMAS * math.sqrt(s2)
    return _quad(f, -half, half)


def _stopped_deta_dx(theta, x, hbar, data):
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

    upper = xa + TAIL_SIGMAS * math.sqrt(s2)
    v = _quad(f, 0.0, upper)
    return v if x > 0 else -v


def sec7_eta_forward(t, x, hbar, T) -> float:
    """The transformed value function of the forward free-boundary problem.

    Boundary data: eta(t, 0) = 1 for all t and eta(T/2, x) = exp(-|x|/hbar).
    Evaluated by adaptive quadrature of the image-term integral formula.
    """
    _check_forward_time(t, T)
    return _stopped_eta(T / 2 - t, x, hbar, _forward_data)


def sec7_eta_backward(t, x, hbar, T) -> float:
    """Transformed value function of the backward free-boundary problem.

    Boundary data: eta*(t, 0) = 1 and eta*(-T/2, x) = (1+|x|)^(-1/hbar).
    """
    _check_forward_time(t, T)
    return _stopped_eta(t + T / 2, x, hbar, _backward_data)


def sec7_classical_eta(t, x, hbar, T) -> float:
    """Free-space (no stopping) transformed value, terminal data exp(-|x|/hbar)."""
    _check_forward_time(t, T)
    return _free_eta(T / 2 - t, x, hbar, _forward_data)


def sec7_classical_eta_star(t, x, hbar, T) -> float:
    """Free-space backward transformed value, initial data (1+|x|)^(-1/hbar)."""
    _check_forward_time(t, T)
    return _free_eta(t + T / 2, x, hbar, _backward_data)


#: step and relative tolerance of the centered log difference that
#: cross-checks each drift evaluation
_FD_STEP = 1e-5
_FD_TOL = 1e-4


def _log_derivative(theta, x, hbar, data):
    # hbar d/dx log(eta) by differentiating under the integral, cross-checked
    # against a centered log difference: the printed drift expressions are
    # sign-fragile, so both routes must agree
    if x == 0:
        raise ValueError("drift is undefined on the stopping boundary x = 0")
    g = (hbar * _stopped_deta_dx(theta, x, hbar, data)
         / _stopped_eta(theta, x, hbar, data))
    lo, hi = (_stopped_eta(theta, x + d, hbar, data) for d in (-_FD_STEP, _FD_STEP))
    fd = hbar * (math.log(hi) - math.log(lo)) / (2 * _FD_STEP)
    if abs(fd - g) > _FD_TOL * max(1.0, abs(g)):
        raise ConvergenceError(
            f"drift evaluations disagree at (theta={theta}, x={x}): "
            f"integral route {g:.10g} vs log-difference {fd:.10g}"
        )
    return g


def sec7_drift_forward(t, x, hbar, T) -> float:
    """Optimal forward drift hbar * d/dx log(eta); pushes the state toward 0."""
    if not -T / 2 <= t < T / 2:
        raise ValueError(f"t={t} must be interior, before T/2")
    return _log_derivative(T / 2 - t, x, hbar, _forward_data)


def sec7_drift_backward(t, x, hbar, T) -> float:
    """Optimal backward drift -hbar * d/dx log(eta*)."""
    if not -T / 2 < t <= T / 2:
        raise ValueError(f"t={t} must be interior, after -T/2")
    return -_log_derivative(t + T / 2, x, hbar, _backward_data)
