"""Closed-form heat kernels, the two-sided transition density, and quadrature
oracles for the worked one-dimensional example (V = 0, S = |x|,
S* = log(1+|x|)) and its fixed-horizon counterpart.

These are the ground-truth layer the grid solvers and simulators are tested
against. All functions are pure and safe to call in parallel. Each oracle
integral is one fixed Gauss-Legendre rule (Golub & Welsch, Math. Comp.
1969) over a window around the kernel's peak, evaluated for an array of x in
one numpy expression; it needs numpy alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import ConvergenceError

#: Every oracle integral is one panel of GAUSS_NODES Gauss-Legendre nodes on
#: y >= 0 over |x| -+ TAIL_SIGMAS kernel standard deviations, cut at 0: within
#: 5e-14 of a tight adaptive quadrature for theta from 1e-3 to 1.
GAUSS_NODES = 96
TAIL_SIGMAS = 10.0


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(GAUSS_NODES)


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
# below is one formula in theta, the time elapsed from its data slice. It
# takes a float x or an array of x and returns the same.

def _forward_data(y, hbar):
    return np.exp(-y / hbar)


def _backward_data(y, hbar):
    return (1.0 + y) ** (-1.0 / hbar)


def _shaped(x, values):
    """``values``, one per x, as a float for a float x, else in x's shape."""
    return float(values[0]) if np.ndim(x) == 0 else values.reshape(np.shape(x))


def _images(theta, x, hbar):
    """|x| as a column; the rule's nodes y and weights w on each x's window
    and the kernels g(|x| - y) and g(|x| + y) there, each (x.size,
    GAUSS_NODES). The even data fold onto y >= 0, so no window holds the
    kink of data(|y|)."""
    xa = np.abs(np.ravel(x))[:, None]
    s2 = hbar * theta
    lo = np.maximum(xa - TAIL_SIGMAS * math.sqrt(s2), 0.0)
    half = 0.5 * (xa + TAIL_SIGMAS * math.sqrt(s2) - lo)
    nodes, weights = _gauss_legendre()
    y = lo + half * (nodes + 1.0)
    norm = math.sqrt(2 * math.pi * s2)
    ga = np.exp(-((xa - y) ** 2) / (2 * s2)) / norm
    gb = np.exp(-((xa + y) ** 2) / (2 * s2)) / norm
    return xa, y, half * weights, ga, gb


def _stopped_eta(theta, x, hbar, data):
    # image-term formula for the heat flow with eta = 1 on x = 0; the image
    # terms cancel exactly at x = 0, where eta = 1
    if theta == 0:
        return _shaped(x, data(np.abs(np.ravel(x)), hbar))
    _, y, w, ga, gb = _images(theta, x, hbar)
    return _shaped(x, 1.0 + ((ga - gb) * (data(y, hbar) - 1.0) * w).sum(axis=-1))


def _free_eta(theta, x, hbar, data):
    # free-space heat flow of the data, folded onto y >= 0
    if theta == 0:
        return _shaped(x, data(np.abs(np.ravel(x)), hbar))
    _, y, w, ga, gb = _images(theta, x, hbar)
    return _shaped(x, ((ga + gb) * data(y, hbar) * w).sum(axis=-1))


def _stopped_deta_dx(theta, x, hbar, data):
    # differentiation under the integral; d/dx eta is odd in x
    xa, y, w, ga, gb = _images(theta, x, hbar)
    k = (-(xa - y) * ga + (xa + y) * gb) / (hbar * theta)
    v = (k * (data(y, hbar) - 1.0) * w).sum(axis=-1)
    return _shaped(x, np.where(np.ravel(x) > 0, v, -v))


def sec7_eta_forward(t, x, hbar, T) -> float:
    """The transformed value function of the forward free-boundary problem.

    Boundary data: eta(t, 0) = 1 for all t and eta(T/2, x) = exp(-|x|/hbar).
    Evaluated by the fixed Gauss-Legendre rule of the image-term integral
    formula, at a float x or at every entry of an array x.
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
    if np.any(np.asarray(x) == 0):
        raise ValueError("drift is undefined on the stopping boundary x = 0")
    g = (hbar * _stopped_deta_dx(theta, x, hbar, data)
         / _stopped_eta(theta, x, hbar, data))
    lo, hi = (_stopped_eta(theta, x + d, hbar, data) for d in (-_FD_STEP, _FD_STEP))
    fd = hbar * (np.log(hi) - np.log(lo)) / (2 * _FD_STEP)
    bad = np.ravel(np.abs(fd - g) > _FD_TOL * np.maximum(1.0, np.abs(g)))
    if bad.any():
        raise ConvergenceError(
            f"drift evaluations disagree at theta={theta}, x={np.ravel(x)[bad]}: "
            f"integral route {np.ravel(g)[bad]} vs log-difference {np.ravel(fd)[bad]}")
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
