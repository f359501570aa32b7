import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrelab.errors import ConfigError, TubeDegenerate
from fibrelab.geometry import (
    PeriodicProfile,
    WarpedTorusGeometry,
    WaveguideGeometry,
    as_epsilon,
)

TWO_PI = 2.0 * np.pi


def torus(warp=None, exp=False):
    warp = warp if warp is not None else PeriodicProfile(TWO_PI, 1.0)
    return WarpedTorusGeometry(np.pi, TWO_PI, warp, warp_is_exp=exp)


def waveguide(curv=None):
    curv = curv if curv is not None else PeriodicProfile(TWO_PI, 1.0)
    return WaveguideGeometry(TWO_PI, curv)


class TestProfile:
    def test_constant_derivative_is_zero(self):
        p = PeriodicProfile(period=1.0, constant=1.0)
        assert p.eval(0.37, 1) == 0.0

    def test_cos_second_derivative(self):
        p = PeriodicProfile(period=TWO_PI, cos_amps=(1.0,))
        assert p.eval(0.0, 2) == pytest.approx(-1.0, abs=1e-15)

    def test_shifted_cos_value(self):
        p = PeriodicProfile(period=TWO_PI, constant=1.0, cos_amps=(0.5,))
        assert p.eval(np.pi / 2.0, 0) == pytest.approx(1.0, abs=1e-15)

    @given(
        st.floats(-50.0, 50.0),
        st.integers(0, 3),
        st.floats(0.1, 0.9),
        st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_finite_difference(self, s, order, a1, b2):
        p = PeriodicProfile(period=TWO_PI, constant=0.7, cos_amps=(a1,), sin_amps=(0.0, b2))
        h = 1e-5
        fd = (p.eval(s + h, order) - p.eval(s - h, order)) / (2.0 * h)
        assert fd == pytest.approx(p.eval(s, order + 1), abs=1e-6, rel=1e-6)

    def test_periodicity_exact_for_exact_period(self):
        p = PeriodicProfile(period=2.0, constant=0.2, cos_amps=(0.4,), sin_amps=(0.1,))
        assert p.eval(0.25) == p.eval(2.25)
        assert p.eval(0.25, 1) == p.eval(2.25, 1)

    def test_periodicity_near_exact_for_pi_period(self):
        p = PeriodicProfile(period=TWO_PI, constant=0.2, cos_amps=(0.4,))
        assert p.eval(0.7) == pytest.approx(p.eval(0.7 + TWO_PI), abs=3e-16, rel=0)

    def test_derivative_order_capped(self):
        p = PeriodicProfile(period=1.0, cos_amps=(1.0,))
        with pytest.raises(ValueError):
            p.eval(0.0, 5)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicProfile(period=0.0)

    @pytest.mark.parametrize("phase", [0.0, 0.1, np.pi / 3, 2.0])
    def test_bounds_do_not_depend_on_the_phase(self, phase):
        # 0.3 cos(s - phase) + 0.15 cos(2 s - 2 phase), written in cos and sin
        p = PeriodicProfile(TWO_PI, 0.5, (0.3 * np.cos(phase), 0.15 * np.cos(2 * phase)),
                            (0.3 * np.sin(phase), 0.15 * np.sin(2 * phase)))
        assert p.max_abs_bound == pytest.approx(0.95, rel=1e-15)
        assert p.lower_bound == pytest.approx(0.05, rel=1e-13)
        assert p.eval(phase) == pytest.approx(0.95, rel=1e-15)  # the upper one is attained

    def test_cos_only_bounds_are_the_amplitude_sums(self):
        p = PeriodicProfile(TWO_PI, -0.2, (0.3, -0.15))
        assert p.max_abs_bound == 0.2 + (0.3 + 0.15)
        assert p.lower_bound == -0.2 - (0.3 + 0.15)


class TestMetricSample:
    """``metric_coefficients``: ``sqrt(det g) g^ss``, ``sqrt(det g) g^ff`` and ``sqrt(det g)``.

    The dual metric is a coefficient over ``sqrt(det g)``.
    """

    def test_flat_torus_sample(self):
        c_s, c_f, sqrt_det = torus().metric_coefficients(0.5, 1.3)
        assert c_s / sqrt_det == pytest.approx(0.25, abs=1e-16)
        assert c_f / sqrt_det == pytest.approx(1.0, abs=1e-16)
        assert sqrt_det == pytest.approx(2.0, abs=1e-15)

    def test_straight_tube_sample(self):
        wg = waveguide(PeriodicProfile(TWO_PI, 0.0))
        c_s, c_f, sqrt_det = (c[0, 0] for c in wg.metric_coefficients(0.1, 0.4, -0.3))
        assert c_s / sqrt_det == pytest.approx(0.01, abs=1e-17)
        assert c_f / sqrt_det == 1.0
        assert sqrt_det == pytest.approx(10.0, abs=1e-13)

    def test_bent_tube_sample(self):
        # 1 - eps*v*kappa = 0.9 at v=1: dual coefficient eps^2/0.81, density 9
        c_s, c_f, sqrt_det = (c[0, 0] for c in waveguide().metric_coefficients(0.1, 0.0, 1.0))
        assert c_s / sqrt_det == pytest.approx(0.01 / 0.81, rel=1e-14)
        assert c_f == sqrt_det == pytest.approx(9.0, rel=1e-14)

    def test_tube_degeneracy_raises(self):
        wide = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 2.0))
        with pytest.raises(TubeDegenerate):
            wide.check_tube(0.6)
        with pytest.raises(TubeDegenerate):
            wide.metric_coefficients(0.6, 0.0, 1.0)

    def test_periodicity_of_samples(self):
        geom = WarpedTorusGeometry(1.0, 1.0, PeriodicProfile(2.0, 1.5, (0.25,)))
        a = geom.metric_coefficients(0.3, 0.25)
        b = geom.metric_coefficients(0.3, 2.25)
        assert a == b

    def test_smoothness_second_order(self):
        # centered differences of sampled fields converge at order 2 to the
        # analytic derivatives obtained from the profile derivatives
        geom = torus(PeriodicProfile(TWO_PI, 0.0, (0.3,)), exp=True)
        s0, eps = 0.9, 0.2
        a = geom.warp_value(s0)
        exact = -2.0 * geom.log_warp_deriv(s0, 1) * a / a**3

        def g_tt(s):
            _, c_f, sqrt_det = geom.metric_coefficients(eps, s)
            return c_f / sqrt_det

        errs = []
        for h in (0.02, 0.01, 0.005):
            fd = (g_tt(s0 + h) - g_tt(s0 - h)) / (2.0 * h)
            errs.append(abs(fd - exact))
        slope = np.polyfit(np.log([0.02, 0.01, 0.005]), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_perturbation_bound_on_grid(self):
        # eps^-2 |(1-eps v k)^2 - 1| <= eps^-1 (2|k| + eps k^2) pointwise
        wg = waveguide(PeriodicProfile(TWO_PI, 1.0, (0.5,)))
        eps = 0.25
        s = np.linspace(0.0, TWO_PI, 65)
        rho = eps * wg.metric_coefficients(eps, s, np.linspace(-1.0, 1.0, 21))[2]
        kap = wg.curvature.eval(s)[:, None]
        lhs = np.abs(rho**2 - 1.0) / eps**2
        rhs = (2.0 * np.abs(kap) + eps * kap**2) / eps
        assert np.all(lhs <= rhs + 1e-12)

    def test_waveguide_grid_shape(self):
        c_s, c_f, sqrt_det = waveguide().metric_coefficients(0.2, np.arange(5.0), [-0.5, 0.0, 0.5])
        assert c_s.shape == c_f.shape == sqrt_det.shape == (5, 3)
        assert np.array_equal(c_f, sqrt_det)

    def test_fibre_coordinate_outside_the_strip_refused(self):
        with pytest.raises(ValueError):
            waveguide().metric_coefficients(0.1, 0.0, [0.0, 1.0 + 1e-12])

    @pytest.mark.parametrize("geom, args", [
        (torus(), (1e-320, np.arange(8.0))),
        (waveguide(), (1e-320, np.arange(8.0), [0.0])),
        # exp(800 cos s) overflows near s = 0 and underflows to 0 near s = pi
        (torus(PeriodicProfile(TWO_PI, 0.0, (800.0,)), exp=True), (0.1, np.arange(8.0))),
        # exp(700 cos s) stays finite, but g^tt = 1/a^2 overflows near s = pi
        (torus(PeriodicProfile(TWO_PI, 0.0, (700.0,)), exp=True), (0.1, np.arange(8.0))),
    ])
    def test_coefficient_that_is_not_finite_is_refused(self, geom, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(ConfigError, match="not finite"):
                geom.metric_coefficients(*args)


class TestFiberVolume:
    def test_flat_torus(self):
        assert torus().fiber_volume(0.3) == pytest.approx(TWO_PI, rel=1e-15)

    def test_warped_torus_closed_form(self):
        geom = torus(PeriodicProfile(TWO_PI, 0.0, (0.3,)), exp=True)
        assert geom.fiber_volume(0.0) == pytest.approx(TWO_PI * np.exp(0.3), rel=1e-14)


class TestValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            as_epsilon(0.0)
        with pytest.raises(ValueError):
            as_epsilon(1.0)
        assert as_epsilon(0.5) == 0.5

    def test_nonpositive_series_warp_rejected(self):
        with pytest.raises(ValueError):
            WarpedTorusGeometry(np.pi, 1.0, PeriodicProfile(TWO_PI, 0.5, (0.8,)))

    def test_exp_warp_always_positive(self):
        WarpedTorusGeometry(np.pi, 1.0, PeriodicProfile(TWO_PI, 0.0, (5.0,)), warp_is_exp=True)

    def test_warp_period_must_match(self):
        with pytest.raises(ValueError):
            WarpedTorusGeometry(np.pi, 1.0, PeriodicProfile(1.0, 1.0))

    def test_noninteger_winding_rejected(self):
        with pytest.raises(ValueError):
            WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 0.5))

    def test_straight_and_round_windings_allowed(self):
        WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 0.0, (0.7,)))
        WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,)))
