import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bernstein import core
from bernstein.analytic import (
    WORKED_EXAMPLE,
    bernstein_transition,
    heat_kernel,
    sec7_classical_eta,
    sec7_classical_eta_star,
    sec7_drift_backward,
    sec7_drift_forward,
    sec7_eta_backward,
    sec7_eta_forward,
)
from bernstein.experiments import SLICE_TIMES, in_band

HBAR = 1.0


class TestHeatKernel:
    def test_standard_normal_at_origin(self):
        assert heat_kernel(0, 0, 1, 0, HBAR) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_standard_normal_at_one(self):
        assert heat_kernel(0, 0, 1, 1, HBAR) == pytest.approx(0.24197072451914337)

    def test_normalization(self):
        val, _ = integrate.quad(lambda y: heat_kernel(0, 0.3, 0.7, y, HBAR), -10, 10)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_symmetry_in_x_y(self):
        assert heat_kernel(0, 0.2, 1, 0.9, HBAR) == heat_kernel(0, 0.9, 1, 0.2, HBAR)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            heat_kernel(1, 0, 1, 0, HBAR)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan])
    def test_hbar_must_be_positive(self, hbar):
        with pytest.raises(ValueError, match="hbar must be positive"):
            heat_kernel(0, 0, 1, 0, hbar)

    @given(
        st.floats(0.05, 0.95),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_chapman_kolmogorov(self, t, x, z):
        # convolving the kernel over an intermediate time reproduces it
        lhs, _ = integrate.quad(
            lambda y: heat_kernel(0, x, t, y, HBAR) * heat_kernel(t, y, 1, z, HBAR),
            min(x, z) - 12, max(x, z) + 12,
        )
        assert lhs == pytest.approx(heat_kernel(0, x, 1, z, HBAR), abs=1e-8)


class TestBernsteinTransition:
    def test_bridge_peak(self):
        # pinned at 0 on both ends, the midpoint law is N(0, 1/4)
        assert bernstein_transition(0, 0, 0.5, 0, 1, 0, HBAR) == pytest.approx(
            math.sqrt(2 / math.pi)
        )

    def test_symmetry_about_common_endpoint(self):
        c = 0.7
        a = bernstein_transition(0, c, 0.5, c + 0.3, 1, c, HBAR)
        b = bernstein_transition(0, c, 0.5, c - 0.3, 1, c, HBAR)
        assert a == pytest.approx(b)

    def test_normalization_in_midpoint(self):
        val, _ = integrate.quad(
            lambda y: bernstein_transition(0, -0.4, 0.3, y, 1, 0.8, HBAR), -10, 10
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            bernstein_transition(0, 0, 1.5, 0, 1, 0, HBAR)


# Frozen regression constants: computed by adaptive quadrature of the
# integral formulas and cross-checked against the normal-CDF closed forms
# exp(-x + theta/2) * Phi((x - theta)/sqrt(theta)) style identities.
FORWARD_VALUES = [
    (0.0, 1.0, 0.4572635183),
    (0.0, 0.5, 0.7023993018),
    (-0.5, 1.0, 0.5186168200),
    (0.0, 3.0, 0.0639273615),
    (0.0, -3.0, 0.0639273615),
    (0.25, 2.0, 0.1533541861),
]
BACKWARD_VALUES = [
    (0.5, 1.0, 0.6217503493),
    (0.0, 1.0, 0.5715947760),
    (-0.25, 0.5, 0.7298213951),
    (0.25, -1.0, 0.5994203145),
]


class TestSec7Forward:
    @pytest.mark.parametrize("t,x,expected", FORWARD_VALUES)
    def test_frozen_values(self, t, x, expected):
        assert sec7_eta_forward(t, x, 1.0, 1.0) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("t", [-0.5, -0.2, 0.0, 0.3, 0.5])
    def test_boundary_value_at_origin(self, t):
        assert sec7_eta_forward(t, 0.0, 1.0, 1.0) == 1.0

    def test_terminal_condition(self):
        for x in (-2.0, -0.3, 0.7, 1.5):
            assert sec7_eta_forward(0.5, x, 1.0, 1.0) == pytest.approx(
                math.exp(-abs(x))
            )

    def test_far_field_asymptotic(self):
        # many sigmas from the origin the barrier is invisible and the value
        # follows the free-space profile exp(x/hbar + (T/2 - t)/(2 hbar))
        got = sec7_eta_forward(0.0, -3.0, 1.0, 1.0)
        free = math.exp(-3.0 + 0.25)
        assert abs(got - free) / free < 0.01

    def test_even_in_x(self):
        a = sec7_eta_forward(0.1, 0.8, 1.0, 1.0)
        b = sec7_eta_forward(0.1, -0.8, 1.0, 1.0)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("t,x", [(-0.2, 0.5), (0.1, 1.2), (0.3, -0.7)])
    def test_backward_heat_equation_residual(self, t, x):
        h = 1e-3
        dt = (sec7_eta_forward(t + h, x, 1, 1) - sec7_eta_forward(t - h, x, 1, 1)) / (2 * h)
        dxx = (
            sec7_eta_forward(t, x + h, 1, 1)
            - 2 * sec7_eta_forward(t, x, 1, 1)
            + sec7_eta_forward(t, x - h, 1, 1)
        ) / (h * h)
        assert abs(dt + 0.5 * dxx) <= 1e-4

    def test_strictly_positive(self):
        for t, x in [(-0.5, 3.0), (0.49, -2.9), (0.0, 0.01)]:
            assert sec7_eta_forward(t, x, 1.0, 1.0) > 0


class TestSec7Backward:
    @pytest.mark.parametrize("t,x,expected", BACKWARD_VALUES)
    def test_frozen_values(self, t, x, expected):
        assert sec7_eta_backward(t, x, 1.0, 1.0) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.5])
    def test_boundary_value_at_origin(self, t):
        assert sec7_eta_backward(t, 0.0, 1.0, 1.0) == 1.0

    def test_initial_condition(self):
        assert sec7_eta_backward(-0.5, 1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert sec7_eta_backward(-0.5, -2.0, 1.0, 1.0) == pytest.approx(1 / 3)

    def test_mirror_reflection(self):
        a = sec7_eta_backward(0.2, 1.3, 1.0, 1.0)
        b = sec7_eta_backward(0.2, -1.3, 1.0, 1.0)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("t,x", [(-0.2, 0.5), (0.1, 1.2)])
    def test_forward_heat_equation_residual(self, t, x):
        h = 1e-3
        dt = (sec7_eta_backward(t + h, x, 1, 1) - sec7_eta_backward(t - h, x, 1, 1)) / (2 * h)
        dxx = (
            sec7_eta_backward(t, x + h, 1, 1)
            - 2 * sec7_eta_backward(t, x, 1, 1)
            + sec7_eta_backward(t, x - h, 1, 1)
        ) / (h * h)
        assert abs(dt - 0.5 * dxx) <= 1e-4


class TestClassical:
    def test_terminal_data(self):
        for x in (-1.0, 0.0, 2.0):
            assert sec7_classical_eta(0.5, x, 1.0, 1.0) == pytest.approx(
                math.exp(-abs(x))
            )

    def test_frozen_values(self):
        assert sec7_classical_eta(0.0, 0.0, 1.0, 1.0) == pytest.approx(
            0.6156903442, abs=1e-9
        )
        assert sec7_classical_eta(0.0, 1.0, 1.0, 1.0) == pytest.approx(
            0.4182689745, abs=1e-9
        )

    def test_evenness(self):
        assert sec7_classical_eta(0.1, 0.9, 1, 1) == pytest.approx(
            sec7_classical_eta(0.1, -0.9, 1, 1)
        )
        assert sec7_classical_eta_star(0.1, 0.9, 1, 1) == pytest.approx(
            sec7_classical_eta_star(0.1, -0.9, 1, 1)
        )

    def test_star_initial_data(self):
        assert sec7_classical_eta_star(-0.5, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_stopped_value_below_classical(self):
        # at (t=0, x=1) the option to stop strictly lowers the value
        u = -math.log(sec7_eta_forward(0.0, 1.0, 1.0, 1.0))
        h = -math.log(sec7_classical_eta(0.0, 1.0, 1.0, 1.0))
        assert h - u == pytest.approx(0.0891351458, abs=1e-8)


class TestDrifts:
    def test_frozen_values(self):
        assert sec7_drift_forward(0.0, 1.0, 1.0, 1.0) == pytest.approx(
            -0.91472194, abs=1e-6
        )
        assert sec7_drift_forward(0.0, 0.5, 1.0, 1.0) == pytest.approx(
            -0.79143245, abs=1e-6
        )

    def test_signs_push_toward_origin(self):
        assert sec7_drift_forward(0.0, 1.0, 1.0, 1.0) < 0
        assert sec7_drift_forward(0.0, -1.0, 1.0, 1.0) > 0

    def test_far_field_unit_drift(self):
        b = sec7_drift_forward(0.0, -5.0, 1.0, 1.0)
        assert abs(b - 1.0) < 0.01

    def test_backward_drift_signs(self):
        # the decreasing-filtration drift points away from the origin in
        # forward-time coordinates; the time flip makes it attracting
        assert sec7_drift_backward(0.0, 1.0, 1.0, 1.0) > 0
        assert sec7_drift_backward(0.0, -1.0, 1.0, 1.0) < 0

    def test_dual_evaluation_agrees(self):
        # every evaluation cross-checks itself; also compare explicitly
        b = sec7_drift_forward(0.0, 0.5, 1.0, 1.0)
        h = 1e-4
        fd = (
            math.log(sec7_eta_forward(0.0, 0.5 + h, 1, 1))
            - math.log(sec7_eta_forward(0.0, 0.5 - h, 1, 1))
        ) / (2 * h)
        assert b == pytest.approx(fd, abs=1e-4)

    def test_free_boundary_evaluation_rejected(self):
        with pytest.raises(ValueError):
            sec7_drift_forward(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sec7_drift_backward(0.0, 0.0, 1.0, 1.0)

    def test_value_at_start_matches_frozen_action(self):
        u = -math.log(sec7_eta_forward(-0.5, 1.0, 1.0, 1.0))
        assert u == pytest.approx(0.6565899729, abs=1e-9)


# The reference the fixed Gauss-Legendre rule of the oracles is pinned to: a
# tight adaptive quadrature of each integral at hbar = 1, split at the
# kernel's peak and, for the free-space flow, at the data's kink y = 0.
def _adaptive(f, a, b, points):
    # at this tolerance quad warns that round-off limits it, near 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, a, b, points=points, epsabs=0, epsrel=2e-14,
                                limit=500)
    return val


def _g(z, s2):
    return math.exp(-z * z / (2 * s2)) / math.sqrt(2 * math.pi * s2)


DATA = {"forward": lambda y: math.exp(-y), "backward": lambda y: 1 / (1 + y)}


def _theta(orientation, t):
    return 0.5 - t if orientation == "forward" else t + 0.5


def _ref_eta(orientation, t, x):
    data, theta, xa = DATA[orientation], _theta(orientation, t), abs(x)
    if theta == 0:
        return data(xa)
    if xa == 0:
        return 1.0
    return 1.0 + _adaptive(
        lambda y: (_g(xa - y, theta) - _g(xa + y, theta)) * (data(y) - 1.0),
        0.0, xa + 12 * math.sqrt(theta), [xa])


def _ref_classical(orientation, t, x):
    data, theta = DATA[orientation], _theta(orientation, t)
    half = 12 * math.sqrt(theta)
    return _adaptive(lambda y: _g(x - y, theta) * data(abs(y)),
                     x - half, x + half, sorted({0.0, x}))


def _ref_drift(orientation, t, x):
    # hbar d/dx log(eta), hbar = 1; the backward drift is minus that of eta*
    data, theta, xa = DATA[orientation], _theta(orientation, t), abs(x)
    deta = _adaptive(
        lambda y: ((-(xa - y) * _g(xa - y, theta) + (xa + y) * _g(xa + y, theta))
                   / theta * (data(y) - 1.0)),
        0.0, xa + 12 * math.sqrt(theta), [xa])
    drift = (deta if x > 0 else -deta) / _ref_eta(orientation, t, x)
    return drift if orientation == "forward" else -drift


ETA = {"forward": sec7_eta_forward, "backward": sec7_eta_backward}
CLASSICAL = {"forward": sec7_classical_eta, "backward": sec7_classical_eta_star}
DRIFT = {"forward": sec7_drift_forward, "backward": sec7_drift_backward}
#: x on each side of the kink at 0 and far from it
KINK_SIDES = (-2.5, -0.7, -0.01, 0.01, 0.7, 2.5)


def _worst_rel(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


class TestFixedRule:
    """The oracles' fixed Gauss-Legendre rule against the tight adaptive
    reference, to 1e-12 relative: 5e-14 is the worst measured on the band
    schedule of the sec7 checks."""

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_band_schedule_nodes(self, orientation):
        # every node the oracle band error of a 601 x 2001 solve reads
        spec = core.ProblemSpec.from_json(WORKED_EXAMPLE)
        grid = core.build_grid(spec, 601, 2001)
        xs = grid.xs[in_band(grid.xs)]
        for k in sorted(set(grid.nearest_row(SLICE_TIMES).tolist())):
            t = float(grid.ts[k])
            ref = [_ref_eta(orientation, t, x) for x in xs.tolist()]
            assert _worst_rel(ETA[orientation](t, xs, 1.0, 1.0), ref) <= 1e-12

    @pytest.mark.parametrize("orientation, t, x0s", [
        # criteria 4 and 5's stopping-dist and barrier starts, and the
        # benchmark's backward ensemble start
        ("forward", -0.5, (0.4, 0.8, 1.0, 1.2, 1.6, 2.0)),
        ("backward", 0.5, (1.0,))])
    def test_monte_carlo_starts(self, orientation, t, x0s):
        for x0 in x0s:
            ref = _ref_eta(orientation, t, x0)
            assert _worst_rel(ETA[orientation](t, x0, 1.0, 1.0), ref) <= 1e-12

    @pytest.mark.parametrize("orientation, t", [("forward", 0.5 - 1e-3),
                                                ("backward", -0.5 + 1e-3)])
    def test_narrow_kernel(self, orientation, t):
        # theta = 1e-3: the window is 0.63 wide around |x|, and cut at 0
        xs = np.linspace(-3.0, 3.0, 121)
        ref = [_ref_eta(orientation, t, x) for x in xs.tolist()]
        assert _worst_rel(ETA[orientation](t, xs, 1.0, 1.0), ref) <= 1e-12

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_classical_each_side_of_the_kink(self, orientation):
        for t in (-0.4, 0.0, 0.4):
            ref = [_ref_classical(orientation, t, x) for x in KINK_SIDES]
            got = CLASSICAL[orientation](t, np.array(KINK_SIDES), 1.0, 1.0)
            assert _worst_rel(got, ref) <= 1e-12

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_drift_each_side_of_the_kink(self, orientation):
        for t in (-0.4, 0.0, 0.4):
            ref = [_ref_drift(orientation, t, x) for x in KINK_SIDES]
            got = DRIFT[orientation](t, np.array(KINK_SIDES), 1.0, 1.0)
            assert _worst_rel(got, ref) <= 1e-12

    @pytest.mark.parametrize("oracle", [*ETA.values(), *CLASSICAL.values(),
                                        *DRIFT.values()])
    def test_array_call_is_the_point_calls(self, oracle):
        # bit for bit: each x is reduced over the nodes on its own, in the
        # same order, whatever the array holds
        xs = np.random.default_rng(3).uniform(-3.0, 3.0, size=(4, 25))
        for t in (-0.45, 0.0, 0.45):
            got = oracle(t, xs, 1.0, 1.0)
            assert got.shape == xs.shape
            points = [oracle(t, x, 1.0, 1.0) for x in xs.ravel().tolist()]
            assert all(type(p) is float for p in points)
            assert np.array_equal(got.ravel(), points)
