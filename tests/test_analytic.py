import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bernstein.analytic import (
    bernstein_transition,
    heat_kernel,
    sec7_classical_eta,
    sec7_classical_eta_star,
    sec7_drift_backward,
    sec7_drift_forward,
    sec7_eta_backward,
    sec7_eta_forward,
)

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
