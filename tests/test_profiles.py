import math

import numpy as np
import pytest
from scipy.special import betaln

from cknlab.cli import main
from cknlab.errors import AmplitudeOverflow, DivergentNorm
from cknlab.minimizer import best_constant_radial
from cknlab.params import derive, validate
from cknlab.profiles import (AnalyticProfile, RadialProfile, barenblatt_mass,
                             default_grid, el_residual, energy,
                             gradient_norm, quotient, w_gamma_star, w_star,
                             weighted_norm)
from cknlab.quadrature import sphere_area

# frozen reference: quotient of the explicit profile at (3, 0, 2), equal to
# pi^(1/3) 2^(1/6) by the Beta-integral evaluation in the oracle below
Q0_REFERENCE = 1.6439488100495983


def beta_oracle(mu, b, c, q):
    nu = mu / c
    return b ** (nu - q) * math.exp(betaln(nu, q - nu)) / c


def log_mass_oracle(d, gamma, p):
    """log of the weighted L^(2p) mass of (a/(b + r^c))^k, c = 2 - gamma,
    k = 1/(p-1), in peak form: |S^(d-1)| (a/b)^(2pk) int r^(d-gamma-1)
    (1 + r^c/b)^(-2pk) dr, with a/b = p c/eta and b = eta^2/(p (p-1)^2)."""
    eta = d - gamma - p * (d - 2.0)
    c, k = 2.0 - gamma, 1.0 / (p - 1.0)
    b = eta**2 / (p * (p - 1.0) ** 2)
    nu, q = (d - gamma) / c, 2.0 * p * k
    return (math.log(sphere_area(d)) + q * math.log(p * c / eta)
            + nu * math.log(b) + betaln(nu, q - nu) - math.log(c))


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
        # log w agrees with w where w is representable, and w is evaluated
        # through it: at p = 1.02, k = 50, w(1e4) = (a/(b + 1e8))^50 is
        # 6.02e-201, though a^50 and (b + 1e8)^(-50) leave the float range
        wg = w_gamma_star(validate(3, 0.0, 1.02))
        r = np.geomspace(1e-4, 10.0, 40)
        assert np.allclose(np.exp(wg.log(r)), wg(r), rtol=1e-12, atol=0)
        eta = 3.0 - 1.02
        a, b = 2.0 * eta / 0.02**2, eta**2 / (1.02 * 0.02**2)
        exact = 50.0 * (math.log(a) - math.log(b + 1e8))
        assert wg.log(1e4) == pytest.approx(exact, rel=1e-12)
        assert wg(1e4) == pytest.approx(math.exp(exact), rel=1e-12)
        assert 6.0e-201 < wg(1e4) < 6.1e-201


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
        exact = (sphere_area(4) * derive(pp).a_gamma ** (q * k) *
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
        slow = AnalyticProfile(0.0, 1.0, 2.0, 0.5)  # decays like r^{-1}
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
        # r^(d-1) dr, A = w(0) b^k; at (3, 0, 2) this is 4 r^2 (1+r^2)^(-4).
        # Near p = 1 the tail nodes take r^c far past the float range.
        for family, pp in ((w_star, validate(3, 0.0, 2.0)),
                           (w_gamma_star, validate(3, 0.0, 1.04))):
            w = family(pp)
            b, c, k = w.b, w.c, w.k
            A = math.exp(w.log_peak) * b**k
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
            k = kf / (pp.p - 1.0)
            # amp (b + r^c)^(-k), of peak amp b^(-k)
            w = AnalyticProfile(math.log(amp) - k * math.log(b), b,
                                2.0 - pp.gamma, k)
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
            w = AnalyticProfile(math.log(amp) - k * math.log(b), b,
                                2.0 - pp.gamma, k)
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
    def test_amplitude_overflow_is_named(self):
        # the amplitude a^(1/(p-1)) is about exp(773) at (5, 1.9, 1.0067),
        # but the peak (a/b)^(1/(p-1)) only exp(34.5)
        d, gamma, p = 5, 1.9, 1.0067
        log_peak = math.log(p * (2.0 - gamma) / (d - gamma - p * (d - 2.0))) \
            / (p - 1.0)
        assert 34.4 < log_peak < 34.6
        assert w_gamma_star(validate(d, gamma, p))(0.0) == pytest.approx(
            math.exp(log_peak), rel=1e-12)
        # a^(2p/(p-1)) is exp(938), but the mass is 1.09e5
        assert barenblatt_mass(validate(3, 0.0, 1.02)) == pytest.approx(
            math.exp(log_mass_oracle(3, 0.0, 1.02)), rel=1e-12)
        # the peak exp(1116.7) and the mass exp(1762.8) themselves leave the
        # float range
        pp = validate(3, 1.999, 1.0002)
        assert log_mass_oracle(3, 1.999, 1.0002) == pytest.approx(1762.8,
                                                                  abs=0.1)
        with pytest.raises(AmplitudeOverflow, match=r"exp\(1116\.7\)"):
            w_gamma_star(pp)
        with pytest.raises(AmplitudeOverflow):
            barenblatt_mass(pp)


# admissible points near p = 1 where the amplitude a^(1/(p-1)) leaves the
# float range and the peak (a/b)^(1/(p-1)) does not
NEAR_P_ONE = [(3, 0.0, 1.02), (3, 1.98, 1.005), (5, 1.9, 1.0067),
              (8, 1.95, 1.0015)]


class TestNearPOne:
    @pytest.mark.parametrize("d,gamma,p", NEAR_P_ONE)
    def test_barenblatt_mass_closed_form(self, d, gamma, p):
        got = barenblatt_mass(validate(d, gamma, p))
        assert got == pytest.approx(math.exp(log_mass_oracle(d, gamma, p)),
                                    rel=1e-12)

    @pytest.mark.parametrize("d,gamma,p", NEAR_P_ONE[:3])
    def test_quotient_is_reciprocal_constant(self, d, gamma, p):
        pp = validate(d, gamma, p)
        c_star, _ = best_constant_radial(pp)
        assert quotient(w_gamma_star(pp), pp) == pytest.approx(1.0 / c_star,
                                                                rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("w", [
        w_gamma_star(validate(3, 0.0, 1.02)),
        w_gamma_star(validate(5, 1.9, 1.0067)),
        w_gamma_star(validate(8, 1.95, 1.0015)),
        # r^c leaves the float range at r = 1e300 while w = 1/r does not
        AnalyticProfile(0.0, 1.0, 2.0, 0.5)],
        ids=["3-0-1.02", "5-1.9-1.0067", "8-1.95-1.0015", "slow-tail"])
    def test_derivatives_match_log(self, w):
        r = np.geomspace(1e-3, 1e300, 400)
        v, dv, ddv = w(r), w.deriv(r), w.second_deriv(r)
        assert np.all(np.isfinite(dv)) and np.all(np.isfinite(ddv))
        # (log w)' and (log w)'' by central differences in log r, compared
        # as r w'/w and r^2 w''/w = r^2 ((log w)'' + (log w)'^2), which are
        # bounded by (k c)^2 + k c + 1
        h = 1e-4
        lo, mid, hi = w.log(r * math.exp(-h)), w.log(r), w.log(r * math.exp(h))
        g1 = (hi - lo) / (2.0 * h)  # r (log w)'
        g2 = (hi - 2.0 * mid + lo) / h**2 - g1  # r^2 (log w)''
        scale = (w.k * w.c) ** 2 + w.k * w.c + 1.0
        # where w/r^2 is a normal float, so that w' and w'' are too
        live = w.log(r) - 2.0 * np.log(r) > math.log(1e-300)
        assert np.count_nonzero(live) >= 10
        r, v, dv, ddv, g1, g2 = (x[live] for x in (r, v, dv, ddv, g1, g2))
        assert np.allclose(r * dv / v, g1, rtol=0, atol=1e-6 * scale)
        assert np.allclose(r * r * ddv / v, g2 + g1 * g1, rtol=0,
                           atol=1e-4 * scale)


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
        # 1.7 (0.6 + r^c)^(-k)
        k = 2.0 * (d - gamma) / (2.0 - gamma)
        w = AnalyticProfile(log_peak=math.log(1.7) - k * math.log(0.6), b=0.6,
                            c=2.0 - gamma, k=k)
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
        w = AnalyticProfile(log_peak=0.0, b=1.0, c=2.0 - gamma, k=k)
        flat = AnalyticProfile(log_peak=0.0, b=1.0, c=2.0, k=k)
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

    def test_csv_round_trip(self, tmp_path):
        # the one profile CSV is the one ckn profile writes
        out = tmp_path / "profile.csv"
        assert main(["profile", "--d", "3", "--gamma", "0", "--p", "2",
                     "--kind", "wstar", "--r-min", "0.1", "--r-max", "10",
                     "--points-per-decade", "8", "--format", "csv",
                     "--out", str(out)]) == 0
        back = RadialProfile.from_csv("\n".join(
            line for line in out.read_text().splitlines()
            if not line.startswith("#")))
        prof = w_star(validate(3, 0.0, 2.0)).sample(default_grid(1e-1, 1e1, 8))
        assert np.array_equal(back.radii, prof.radii)
        assert np.array_equal(back.values, prof.values)
        assert np.array_equal(back.derivs, prof.derivs)

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
