import math

import numpy as np
import pytest
from scipy.special import betaln

from cknlab.errors import AmplitudeOverflow, DivergentNorm
from cknlab.minimizer import best_constant_radial
from cknlab.params import derive, validate
from cknlab.profiles import (AnalyticProfile, RadialProfile, barenblatt_mass,
                             default_grid, dilate_to_mass, el_residual, energy,
                             gradient_norm, quotient, w_gamma_star, w_star,
                             weighted_norm)
from cknlab.quadrature import sphere_area

# frozen reference: quotient of the explicit profile at (3, 0, 2), equal to
# pi^(1/3) 2^(1/6) by the Beta-integral evaluation in the oracle below
Q0_REFERENCE = 1.6439488100495983


def beta_oracle(mu, b, c, q):
    nu = mu / c
    return b ** (nu - q) * math.exp(betaln(nu, q - nu)) / c


class TestPointValues:
    def test_w_star_peak(self):
        pp = validate(3, 0.3, 1.8)
        assert w_star(pp)(0.0) == 1.0

    def test_w_star_at_one(self):
        pp = validate(3, 0.0, 2.0)
        assert w_star(pp)(1.0) == pytest.approx(0.5, abs=0)

    def test_w_star_fractional_weight(self):
        pp = validate(3, 0.5, 2.0)
        assert w_star(pp)(4.0) == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_optimizer_peak_value(self):
        pp = validate(3, 0.0, 2.0)
        assert w_gamma_star(pp)(0.0) == pytest.approx(4.0, rel=1e-14)

    def test_optimizer_is_scaled_w_star(self):
        pp = validate(3, 0.5, 2.0)
        ex = derive(pp)
        wg, ws = w_gamma_star(pp), w_star(pp)
        scale = (ex.a_gamma / ex.b_gamma) ** (1.0 / (pp.p - 1.0))
        lam = ex.b_gamma ** (-1.0 / (2.0 - pp.gamma))
        r = np.geomspace(1e-3, 1e3, 50)
        assert np.allclose(wg(r), scale * ws(lam * r), rtol=1e-13)

    def test_tail_asymptote(self):
        pp = validate(3, 0.5, 2.0)
        ex = derive(pp)
        wg = w_gamma_star(pp)
        tau = (2.0 - pp.gamma) / (pp.p - 1.0)
        r = 1e8
        assert wg(r) * r**tau == pytest.approx(
            ex.a_gamma ** (1.0 / (pp.p - 1.0)), rel=1e-8)

    def test_peak_identity(self):
        for d, gamma, p in [(3, 0.0, 2.0), (4, 0.25, 1.5), (5, 0.5, 1.2)]:
            pp = validate(d, gamma, p)
            ex = derive(pp)
            peak = w_gamma_star(pp)(0.0)
            assert peak ** (p - 1.0) == pytest.approx(
                p * (2.0 - gamma) / ex.eta, rel=1e-12)

    def test_log_form(self):
        # log w agrees with w where w is representable, and stays finite in
        # the tail where w underflows: at p = 1.02, k = 50 and
        # (b + r^2)^(-50) is below the float range at r = 1e4
        wg = w_gamma_star(validate(3, 0.0, 1.02))
        r = np.geomspace(1e-4, 10.0, 40)
        assert np.allclose(np.exp(wg.log(r)), wg(r), rtol=1e-12, atol=0)
        assert wg(1e4) == 0.0
        assert wg.log(1e4) == pytest.approx(
            math.log(wg.amplitude) - 50.0 * math.log(wg.b + 1e8), rel=1e-12)


class TestNorms:
    def test_norm_vs_beta_oracle(self):
        pp = validate(3, 0.0, 2.0)
        q = 2.0 * pp.p
        val = weighted_norm(w_star(pp), q, pp.gamma, pp)
        exact = (sphere_area(3) * beta_oracle(3.0, 1.0, 2.0, q)) ** (1.0 / q)
        assert val == pytest.approx(exact, rel=1e-9)

    def test_norm_vs_beta_oracle_weighted(self):
        pp = validate(4, 0.5, 1.6)
        q = pp.p + 1.0
        k = 1.0 / (pp.p - 1.0)
        val = weighted_norm(w_gamma_star(pp), q, pp.gamma, pp)
        prof = w_gamma_star(pp)
        exact = (sphere_area(4) * prof.amplitude**q *
                 beta_oracle(4 - 0.5, prof.b, 1.5, q * k)) ** (1.0 / q)
        assert val == pytest.approx(exact, rel=1e-10)

    def test_homogeneity(self):
        pp = validate(3, 0.25, 1.9)
        w = w_star(pp)
        scaled = w.scaled(3.7, 1.0)
        assert weighted_norm(scaled, 2.0 * pp.p, pp.gamma, pp) == pytest.approx(
            3.7 * weighted_norm(w, 2.0 * pp.p, pp.gamma, pp), rel=1e-11)

    def test_indicator_delegation(self):
        pp = validate(3, 0.5, 2.0)
        val = weighted_norm(lambda r: np.where(r <= 1.0, 1.0, 0.0),
                            1.0, pp.gamma, pp)
        assert val == pytest.approx(sphere_area(3) * 0.4, rel=1e-11)

    def test_divergent_norm_detected(self):
        pp = validate(3, 0.0, 2.0)
        slow = AnalyticProfile(1.0, 1.0, 2.0, 0.5)  # decays like r^{-1}
        with pytest.raises(DivergentNorm):
            weighted_norm(slow, 2.0, 0.0, pp)

    @pytest.mark.parametrize("call", [
        lambda w, pp: weighted_norm(w, 2.0 * pp.p, pp.gamma, pp),
        lambda w, pp: gradient_norm(w, pp),
        lambda w, pp: el_residual(w, pp),
        lambda w, pp: quotient(w, pp),
        lambda w, pp: energy(w, pp, 1.0),
    ], ids=["weighted_norm", "gradient_norm", "el_residual", "quotient",
            "energy"])
    def test_sampled_profile_rejected(self, call):
        # norms integrate closed forms without truncation; a sampled profile
        # is an export, not an input
        pp = validate(3, 0.0, 2.0)
        prof = w_star(pp).sample(default_grid(1e-2, 1e2, 16))
        with pytest.raises(TypeError, match="AnalyticProfile"):
            call(prof, pp)


class TestGradientNorm:
    def test_matches_analytic_derivative_oracle(self):
        # oracle: |w'|^2 = (A k c)^2 r^(2c-2) (b + r^c)^(-2k-2) against
        # r^(d-1) dr; at (3, 0, 2) this is 4 r^2 (1+r^2)^(-4).  Near p = 1
        # the tail nodes overflow r^(c-1) and underflow the power factor.
        for family, pp in ((w_star, validate(3, 0.0, 2.0)),
                           (w_gamma_star, validate(3, 0.0, 1.04))):
            w = family(pp)
            A, b, c, k = w.amplitude, w.b, w.c, w.k
            exact = math.sqrt(sphere_area(pp.d) * (A * k * c) ** 2
                              * beta_oracle(2 * c - 2 + pp.d, b, c, 2 * k + 2))
            assert gradient_norm(w, pp) == pytest.approx(exact, rel=1e-8)


class TestQuotient:
    def test_reference_value(self):
        pp = validate(3, 0.0, 2.0)
        assert quotient(w_star(pp), pp) == pytest.approx(Q0_REFERENCE, rel=1e-11)

    def test_dilation_invariance(self):
        pp = validate(3, 0.5, 2.0)
        w = w_star(pp)
        q0 = quotient(w, pp)
        for lam in (0.5, 2.0):
            assert quotient(w.scaled(1.0, lam), pp) == pytest.approx(q0, rel=1e-8)

    def test_scaling_invariance(self):
        pp = validate(4, 0.25, 1.5)
        w = w_gamma_star(pp)
        assert quotient(w.scaled(2.3, 1.0), pp) == pytest.approx(
            quotient(w, pp), rel=1e-10)

    def test_interpolation_consistency(self):
        # |w|_{2p} <= |w|_{2*}^vartheta |w|_{p+1}^(1-vartheta) on test profiles
        pp = validate(3, 0.5, 2.0)
        ex = derive(pp)
        for amp, b, kf in [(1.0, 1.0, 1.0), (2.0, 0.3, 1.4), (0.5, 2.0, 1.1)]:
            w = AnalyticProfile(amp, b, 2.0 - pp.gamma, kf / (pp.p - 1.0))
            n2p = weighted_norm(w, 2 * pp.p, pp.gamma, pp)
            ncrit = weighted_norm(w, ex.two_star_gamma, pp.gamma, pp)
            np1 = weighted_norm(w, pp.p + 1, pp.gamma, pp)
            assert n2p <= ncrit**ex.vartheta * np1 ** (1 - ex.vartheta) * (1 + 1e-12)


class TestEnergy:
    def test_zero_energy_at_optimizer(self):
        for d, gamma, p in [(3, 0.0, 2.0), (3, 0.5, 2.0)]:
            pp = validate(d, gamma, p)
            _, J = best_constant_radial(pp)
            E, G = energy(w_gamma_star(pp), pp, J)
            assert abs(E) < 1e-6 * G

    def test_nonnegative_on_random_profiles(self):
        pp = validate(3, 0.5, 2.0)
        _, J = best_constant_radial(pp)
        rng = np.random.default_rng(7)
        for _ in range(20):
            amp = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.2, 3.0)
            k = rng.uniform(1.0, 2.0) / (pp.p - 1.0)
            w = AnalyticProfile(amp, b, 2.0 - pp.gamma, k)
            E, G = energy(w, pp, J)
            assert E > -1e-9 * G

    def test_monotone_in_amplitude(self):
        pp = validate(3, 0.0, 2.0)
        w = w_star(pp)
        Gs = [energy(w.scaled(c, 1.0), pp, 1.0)[1] for c in (0.5, 1.0, 2.0)]
        assert Gs[0] < Gs[1] < Gs[2]


class TestELResidual:
    def test_exact_solution(self):
        pp = validate(3, 0.5, 2.0)
        assert el_residual(w_gamma_star(pp), pp) < 1e-10

    def test_wrong_normalization_detected(self):
        pp = validate(3, 0.5, 2.0)
        assert el_residual(w_star(pp), pp) > 0.1


class TestBarrier:
    def test_power_law_barrier_holds(self):
        pp = validate(3, 0.5, 2.0)
        w = w_gamma_star(pp)
        tau = (2.0 - pp.gamma) / (pp.p - 1.0)
        coarse = default_grid(1e-3, 1e3, 32)
        C = 1.01 * float(np.max(w(coarse) * (1.0 + coarse) ** tau))
        fine = default_grid(1e-4, 1e4, 64)
        assert np.all(w(fine) <= C * (1.0 + fine) ** (-tau))


class TestMassHelpers:
    def test_dilate_to_mass_hits_target(self):
        pp = validate(3, 0.5, 2.0)
        M = barenblatt_mass(pp)
        for target in (0.5 * M, M, 3.0 * M):
            w = dilate_to_mass(pp, target)
            got = weighted_norm(w, 2 * pp.p, pp.gamma, pp) ** (2 * pp.p)
            assert got == pytest.approx(target, rel=1e-9)

    def test_amplitude_overflow_is_named(self):
        # a_gamma^(1/(p-1)) is about exp(773) at (5, 1.9, 1.0067)
        with pytest.raises(AmplitudeOverflow):
            w_gamma_star(validate(5, 1.9, 1.0067))
        # finite amplitude, but its 2p-th power in the mass overflows
        with pytest.raises(AmplitudeOverflow):
            barenblatt_mass(validate(3, 0.0, 1.02))

    def test_dilate_preserves_optimality(self):
        pp = validate(3, 0.5, 2.0)
        w = dilate_to_mass(pp, 2.0 * barenblatt_mass(pp))
        assert quotient(w, pp) == pytest.approx(quotient(w_gamma_star(pp), pp),
                                                rel=1e-10)


# (d, gamma, p) with gamma > 0, p halfway into the admissible range
GAMMA_POINTS = [(d, g, 1.0 + 0.5 * ((d - g) / (d - 2.0) - 1.0))
                for d in (3, 4) for g in (0.5, 1.2, 1.9)]


class TestClosedFormMoments:
    @pytest.mark.parametrize("d,gamma,p", GAMMA_POINTS)
    def test_barenblatt_mass_beta_oracle(self, d, gamma, p):
        # (a/(b + r^(2-gamma)))^(1/(p-1)) with eta = d - gamma - p (d-2),
        # a = (2-gamma) eta/(p-1)^2 and b = eta^2/(p (p-1)^2)
        eta = d - gamma - p * (d - 2.0)
        a = (2.0 - gamma) * eta / (p - 1.0) ** 2
        b = eta**2 / (p * (p - 1.0) ** 2)
        k = 1.0 / (p - 1.0)
        q = 2.0 * p
        exact = sphere_area(d) * a ** (q * k) * beta_oracle(
            d - gamma, b, 2.0 - gamma, q * k)
        got = barenblatt_mass(validate(d, gamma, p))
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("d", [3.5, 10.0 / 3.0, 5.25])
    @pytest.mark.parametrize("gamma", [0.5, 1.2, 1.9])
    def test_moments_in_real_dimension(self, d, gamma):
        # k = d_gamma keeps every moment with q >= 1 finite
        w = AnalyticProfile(amplitude=1.7, b=0.6, c=2.0 - gamma,
                            k=2.0 * (d - gamma) / (2.0 - gamma))
        area = sphere_area(d)
        for q in (1.0, 2.0, 2.5):
            exact = area * 1.7**q * beta_oracle(d - gamma, 0.6, w.c, q * w.k)
            assert w.moment(q, d, gamma) == pytest.approx(exact, rel=1e-13)
        exact = area * (1.7 * w.c * w.k) ** 2 * beta_oracle(
            d + 2.0 * w.c - 2.0, 0.6, w.c, 2.0 * (w.k + 1.0))
        assert w.gradient_moment(d) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("d", [3.0, 3.5, 5.25])
    @pytest.mark.parametrize("gamma", [0.5, 1.2, 1.9])
    def test_flattening_identity(self, d, gamma):
        # s = r^alpha, alpha = (2-gamma)/2, maps (1 + r^(2-gamma))^(-k) at
        # weight gamma in dimension d onto (1 + s^2)^(-k) at weight 0 in
        # d_gamma = 2 (d-gamma)/(2-gamma): r^(d-1-gamma) dr = s^(d_gamma-1) ds
        # / alpha and w_r^2 r^(d-1) dr = alpha w_s^2 s^(d_gamma-1) ds
        alpha = (2.0 - gamma) / 2.0
        d_gamma = 2.0 * (d - gamma) / (2.0 - gamma)
        k = d_gamma
        w = AnalyticProfile(amplitude=1.0, b=1.0, c=2.0 - gamma, k=k)
        flat = AnalyticProfile(amplitude=1.0, b=1.0, c=2.0, k=k)
        area, area_flat = sphere_area(d), sphere_area(d_gamma)
        for q in (1.0, 2.0, 3.5):
            assert w.moment(q, d, gamma) / area == pytest.approx(
                flat.moment(q, d_gamma, 0.0) / (alpha * area_flat), rel=1e-13)
        assert w.gradient_moment(d) / area == pytest.approx(
            alpha * flat.gradient_moment(d_gamma) / area_flat, rel=1e-13)


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        pp = validate(3, 0.5, 2.0)
        prof = w_gamma_star(pp).sample(default_grid(1e-2, 1e2, 16))
        text = prof.to_json()
        back = RadialProfile.from_json(text)
        assert np.array_equal(back.radii, prof.radii)
        assert np.array_equal(back.values, prof.values)
        assert np.array_equal(back.derivs, prof.derivs)
        assert back.tail_exponent == prof.tail_exponent
        assert back.to_json() == text

    def test_csv_round_trip(self):
        pp = validate(3, 0.0, 2.0)
        prof = w_star(pp).sample(default_grid(1e-1, 1e1, 8))
        back = RadialProfile.from_csv(prof.to_csv())
        assert np.array_equal(back.radii, prof.radii)
        assert np.array_equal(back.values, prof.values)

    def test_csv_without_header_rejected(self):
        # a headerless file would otherwise lose its first point as a header
        with pytest.raises(ValueError, match="header row"):
            RadialProfile.from_csv("0.1,1.0\n0.2,0.9\n0.3,0.8\n")

    def test_validation_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            RadialProfile(radii=np.array([0.0, 1.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            RadialProfile(radii=np.array([1.0, 1.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            RadialProfile(radii=np.array([1.0, 2.0]),
                          values=np.array([1.0, np.inf]))
