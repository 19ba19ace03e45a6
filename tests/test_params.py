import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.errors import DimensionTooSmall, GammaOutOfRange, POutOfRange
from cknlab.params import (derive, kappa, kappa_numeric, mass_from_multiplier,
                           scaling_exponents, validate)


def admissible(d, gamma, frac):
    """p at a given fraction of the admissible interval."""
    p_max = (d - gamma) / (d - 2)
    return 1.0 + frac * (p_max - 1.0)


class TestValidate:
    def test_accepts_interior_point(self):
        pp = validate(3, 0.5, 2.0)
        assert (pp.d, pp.gamma, pp.p) == (3, 0.5, 2.0)

    def test_rejects_p_at_upper_bound(self):
        with pytest.raises(POutOfRange):
            validate(3, 1.2, 2.0)  # 2 >= (3-1.2)/1 = 1.8

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionTooSmall):
            validate(2, 0.1, 1.5)

    def test_rejects_gamma_outside(self):
        with pytest.raises(GammaOutOfRange):
            validate(3, 2.0, 1.2)
        with pytest.raises(GammaOutOfRange):
            validate(3, -0.1, 1.2)

    def test_boundaries_are_strict(self):
        with pytest.raises(POutOfRange):
            validate(3, 0.0, 1.0)
        validate(3, 0.0, 1.0 + 1e-12)  # interior, barely


class TestDerive:
    def test_reference_point_hand_values(self):
        # independent hand evaluation at (3, 0, 2)
        ex = derive(validate(3, 0.0, 2.0))
        assert ex.two_star_gamma == 6.0
        assert ex.vartheta == pytest.approx(0.5, abs=0)
        assert ex.theta_gamma == pytest.approx(0.6, abs=0)
        assert ex.eta == 1.0
        assert ex.a_gamma == 2.0
        assert ex.b_gamma == 0.5
        assert ex.d_gamma == 3.0
        assert ex.m_diff == 0.75

    def test_effective_dimension_at_gamma_one(self):
        ex = derive(validate(3, 1.0, 1.5))
        assert ex.d_gamma == pytest.approx(4.0, abs=1e-15)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_effective_dimension_reduces_at_gamma_zero(self, d):
        ex = derive(validate(d, 0.0, admissible(d, 0.0, 0.5)))
        assert ex.d_gamma == pytest.approx(d, abs=1e-14)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_invariants_on_grid(self, d, gamma, frac):
        p = admissible(d, gamma, frac)
        ex = derive(validate(d, gamma, p))
        assert 0.0 < ex.vartheta <= 1.0
        assert 0.0 < ex.theta_gamma < 1.0
        assert ex.eta > 0.0
        assert ex.a_gamma > 0.0 and ex.b_gamma > 0.0
        assert ex.d_gamma >= d - 1e-14
        assert ex.m_one < ex.m_diff < 1.0

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_hoelder_exponent_identity(self, d, gamma, frac):
        # 1/(2p) = vartheta/2*_gamma + (1 - vartheta)/(p + 1) exactly
        p = admissible(d, gamma, frac)
        ex = derive(validate(d, gamma, p))
        lhs = 1.0 / (2.0 * p)
        rhs = ex.vartheta / ex.two_star_gamma + (1.0 - ex.vartheta) / (p + 1.0)
        assert abs(lhs - rhs) < 1e-12

    @given(d=st.integers(3, 8), gamma=st.floats(0.0, 1.9),
           frac=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_hoelder_identity_property(self, d, gamma, frac):
        p = admissible(d, gamma, frac)
        ex = derive(validate(d, gamma, p))
        lhs = 1.0 / (2.0 * p)
        rhs = ex.vartheta / ex.two_star_gamma + (1.0 - ex.vartheta) / (p + 1.0)
        assert abs(lhs - rhs) < 1e-12

    def test_theta_zero_matches_unweighted_form(self):
        for d, frac in [(3, 0.3), (4, 0.6), (5, 0.8)]:
            p = admissible(d, 0.0, frac)
            ex = derive(validate(d, 0.0, p))
            expect = (d + 2 - p * (d - 2)) / (d - p * (d - 4))
            assert ex.theta_gamma == pytest.approx(expect, rel=1e-14)

    def test_peak_coefficient_identity(self):
        # a/b = p (2 - gamma) / eta
        for d, gamma, frac in [(3, 0.0, 0.5), (4, 0.25, 0.4), (5, 0.5, 0.7)]:
            p = admissible(d, gamma, frac)
            ex = derive(validate(d, gamma, p))
            assert ex.a_gamma / ex.b_gamma == pytest.approx(
                p * (2 - gamma) / ex.eta, rel=1e-13)

    def test_diffusion_exponent_inverse(self):
        for p in [1.3, 1.8, 2.4]:
            ex = derive(validate(3, 0.0, p))
            assert 1.0 / (2.0 * ex.m_diff - 1.0) == pytest.approx(p, rel=1e-14)


class TestMassFromMultiplier:
    def test_unit_base(self):
        pp = validate(3, 0.0, 2.0)
        ex = derive(pp)
        J = 1.0 / (2.0 * pp.p * ex.theta_gamma)
        assert mass_from_multiplier(J, pp.p, ex.theta_gamma) == pytest.approx(1.0)

    def test_monotone_in_J(self):
        pp = validate(3, 0.25, 1.7)
        ex = derive(pp)
        masses = [mass_from_multiplier(J, pp.p, ex.theta_gamma)
                  for J in (0.5, 1.0, 2.0, 5.0)]
        assert masses == sorted(masses)
        assert masses[0] < masses[-1]

    def test_mass_matches_explicit_optimizer(self):
        # (M-I) normalization applied to the closed-form constants must land
        # exactly on the weighted L^{2p} mass of the explicit optimizer
        from cknlab.minimizer import best_constant_radial
        from cknlab.profiles import barenblatt_mass
        pp = validate(3, 0.0, 2.0)
        ex = derive(pp)
        _, J = best_constant_radial(pp)
        M = mass_from_multiplier(J, pp.p, ex.theta_gamma)
        assert M == pytest.approx(barenblatt_mass(pp), rel=1e-8)


class TestKappa:
    def test_closed_form_vs_numeric(self):
        pp = validate(3, 0.0, 2.0)
        assert kappa(pp) == pytest.approx(kappa_numeric(pp), rel=1e-10)

    def test_closed_form_vs_numeric_generic_xy(self):
        pp = validate(4, 0.3, 1.6)
        assert kappa(pp) == pytest.approx(
            kappa_numeric(pp, x=2.7, y=0.31), rel=1e-9)

    def test_continuity_at_gamma_zero(self):
        k0 = kappa(validate(3, 0.0, 2.0))
        k1 = kappa(validate(3, 1e-6, 2.0))
        assert abs(k1 - k0) / k0 < 1e-4

    def test_exponent_split_matches_mass_exponent(self):
        # B/(A+B) = p vartheta theta and A/(A+B) = 2p(1-vartheta)theta/(p+1)
        for d, gamma, frac in [(3, 0.0, 0.5), (3, 0.5, 0.5), (5, 0.25, 0.3)]:
            p = admissible(d, gamma, frac)
            pp = validate(d, gamma, p)
            ex = derive(pp)
            A, B = scaling_exponents(pp)
            assert B / (A + B) == pytest.approx(
                p * ex.vartheta * ex.theta_gamma, rel=1e-12)
            assert A / (A + B) == pytest.approx(
                2 * p * (1 - ex.vartheta) * ex.theta_gamma / (p + 1), rel=1e-12)

    def test_kappa_relation_against_minimization(self):
        # kappa C*^(-2p theta) must reproduce the constrained minimum
        from cknlab.minimizer import best_constant_radial, minimize_radial
        pp = validate(3, 0.0, 2.0)
        _, J_closed = best_constant_radial(pp)
        rep = minimize_radial(pp, 512)
        assert rep.J == pytest.approx(J_closed, rel=1e-6)
