import math

import numpy as np
import pytest
from scipy.special import betaln, gamma as gamma_fn

from cknlab import quadrature
from cknlab.errors import DivergentNorm, NaNEncountered, NonConvergent
from cknlab.quadrature import integrate, log_beta_integral, sphere_area


def beta_oracle(mu, b, c, q):
    """Independent Beta-function closed form for the tail integrals."""
    nu = mu / c
    return b ** (nu - q) * math.exp(betaln(nu, q - nu)) / c


class TestSphereArea:
    def test_unit_two_sphere(self):
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere(self):
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_circle(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("d", [342.0, 400.0, 402.0])
    def test_past_gamma_overflow(self, d):
        # Gamma(d/2) overflows past d = 343, and the flat dimension of
        # (3, 1.995, 1.002) is 402; the recurrence |S^(d+1)| = 2 pi/d |S^(d-1)|
        # holds across the switch to the log form
        assert sphere_area(d + 2) == pytest.approx(
            2 * math.pi / d * sphere_area(d), rel=1e-12)


class TestIntegrate:
    @pytest.mark.parametrize("d,gamma", [(3, 0.0), (3, 0.5), (3, 1.9),
                                         (4, 1.0), (5, 0.25)])
    def test_gamma_function_self_test(self, d, gamma):
        val = integrate(lambda r: np.exp(-r), d, gamma)
        assert val == pytest.approx(gamma_fn(d - gamma), rel=1e-12)

    def test_indicator_power_rule(self):
        val = integrate(lambda r: np.where(r <= 1.0, 1.0, 0.0), 3, 0.5)
        assert val == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("d,gamma,b,q", [
        (3, 0.0, 0.5, 4.0), (3, 0.5, 0.7, 5.0), (5, 0.25, 1.3, 7.5),
        (3, 0.0, 1.0, 2.01), (3, 0.5, 0.9, 1.8),
        # w'^2 r^2 of the optimizer at (3, 0, 1.04), up to a constant:
        # b = eta^2/(p (p-1)^2), q = 2/(p-1) + 2; the tail nodes take r^2
        # far past the float range
        (5, 0.0, 1.96**2 / (1.04 * 0.04**2), 52.0),
    ])
    def test_barenblatt_integrand_vs_beta_oracle(self, d, gamma, b, q):
        c = 2.0 - gamma
        val = integrate(lambda r: (b + r**c) ** (-q), d, gamma)
        assert val == pytest.approx(beta_oracle(d - gamma, b, c, q), rel=1e-10)

    def test_closed_form_helper_matches_oracle(self):
        # (1 + r^c/b)^(-q) = b^q (b + r^c)^(-q)
        assert math.exp(log_beta_integral(2.5, 0.7, 1.5, 4.0)) == pytest.approx(
            0.7**4.0 * beta_oracle(2.5, 0.7, 1.5, 4.0), rel=1e-14)
        # r^2 (1 + r^2)^(-1.5) decays like r^(-1)
        with pytest.raises(DivergentNorm):
            log_beta_integral(3.0, 1.0, 2.0, 1.5)

    def test_linearity(self):
        f = lambda r: np.exp(-r)
        g = lambda r: (1.0 + r**2) ** (-3.0)
        lhs = integrate(lambda r: 2.5 * f(r) - 0.7 * g(r), 3, 0.3)
        rhs = 2.5 * integrate(f, 3, 0.3) - 0.7 * integrate(g, 3, 0.3)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_weight_exponent_consistency(self):
        f = lambda r: np.exp(-r)
        v1 = integrate(f, 3, 0.7)
        v2 = integrate(lambda r: np.exp(-r) * r ** (-0.7), 3, 0.0)
        assert v1 == pytest.approx(v2, rel=1e-11)

    def test_divergent_integrand_raises(self):
        # constant f makes the tail integral diverge
        with pytest.raises((NonConvergent, NaNEncountered)):
            integrate(lambda r: np.ones_like(r), 3, 0.0)

    def test_nan_integrand_raises(self):
        with pytest.raises(NaNEncountered):
            integrate(lambda r: np.full_like(r, np.nan), 3, 0.0)

    def test_gamma_ge_d_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda r: np.exp(-r), 3, 3.0)

    def test_max_level_caps_refinement(self, monkeypatch):
        # the fractional weight r^1.7 needs four levels at REL_TOL 1e-11
        f = lambda r: np.exp(-r)
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 2)
        with pytest.raises(NonConvergent, match="level 2"):
            integrate(f, 3, 0.3)
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 3)
        assert integrate(f, 3, 0.3) == pytest.approx(gamma_fn(2.7), rel=1e-12)

    def test_nodes_built_once_and_read_only(self):
        from cknlab.quadrature import _nodes

        assert _nodes(3) is _nodes(3)
        with pytest.raises(ValueError):
            _nodes(3)[0][0] = 0.5
