import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from cknlab.quadrature import sphere_area
from cknlab.selection import (G_prime, G_prime_lower_bound, F_selection, K_profile,
                              SelectionContext, crossing_radius, ell,
                              half_sphere_constant, inverse_square_integral,
                              isotropy_matrix, m3_closed, m_d, total_K_integral)


def theta_reference(s, d):
    """(ell, m_d) by adaptive quadrature of their theta integrals, split at
    theta = |1 - s| where the integrands peak next to s = 1."""
    def den(th):
        return (1.0 - s) ** 2 + 4.0 * s * math.sin(th) ** 2

    def ell_f(th):
        return ((1.0 - s) + 2.0 * s * math.sin(th) ** 2) / den(th) * math.sin(th) ** (d - 2)

    def m_f(th):
        return (1.0 - s * s) / den(th) * math.sin(th) ** (d - 2)

    gap = abs(1.0 - s)
    opts = dict(points=[gap] if 0.0 < gap < 1e-3 else None,
                epsabs=1e-14, epsrel=1e-12, limit=200)
    return (quad(ell_f, 0.0, math.pi / 2.0, **opts)[0],
            quad(m_f, 0.0, math.pi / 2.0, **opts)[0])


# s = 0, eight decades each side of 1, and both sides of the kink at s = 1
S_GRID = np.array([0.0, *np.geomspace(1e-8, 1e8, 17),
                   *(1.0 + e for e in (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3))])


@pytest.fixture(scope="module")
def ctx():
    return SelectionContext(3, 2.0)


class TestKernel:
    def test_peak_value_hand_evaluation(self, ctx):
        # w0(0) = 4 gives K(0) = 4^4/4 - 4^3/3
        assert K_profile(ctx)(0.0) == pytest.approx(64.0 - 64.0 / 3.0, rel=1e-14)

    def test_unique_crossing_with_closed_form(self, ctx):
        # K >= 0 iff w0^(p-1) >= 2p/(p+1); inverting the profile gives
        # R^2 = a (p+1)/(2p) - b = 2*3/4 - 0.5 = 1 at (3, 2)
        R = crossing_radius(ctx)
        assert R == pytest.approx(1.0, abs=1e-10)
        K = K_profile(ctx)
        r = np.geomspace(1e-3, 1e3, 400)
        signs = np.sign(K(r))
        assert np.all(signs[r < R * 0.999] >= 0)
        assert np.all(signs[r > R * 1.001] < 0)
        # where R is not a round number, K itself checks it: positive just
        # inside, negative just outside
        for d, p in [(3, 2.9), (5, 1.3), (3, 1.02)]:
            c = SelectionContext(d, p)
            R, K = crossing_radius(c), K_profile(c)
            assert K(R * (1.0 - 1e-8)) > 0.0 > K(R * (1.0 + 1e-8)), (d, p)

    def test_tail_approaches_zero_from_below(self, ctx):
        K = K_profile(ctx)
        vals = K(np.array([1e2, 1e3, 1e4]))
        assert np.all(vals < 0)
        assert np.all(np.diff(vals) > 0)  # increasing toward zero


class TestTotalIntegral:
    def test_quadrature_matches_closed_form_3_2(self, ctx):
        val, closed = total_K_integral(ctx)
        assert val == pytest.approx(closed, rel=1e-8)
        assert closed == pytest.approx(ctx.mass / 12.0, rel=1e-12)

    def test_coefficient_4_15(self):
        ctx2 = SelectionContext(4, 1.5)
        val, closed = total_K_integral(ctx2)
        assert val == pytest.approx(closed, rel=1e-8)
        # hand evaluation: (p-1)(d-2)/(2p(d+2-p(d-2))) = 0.5*2/(3*(6-3)) = 1/9
        assert closed == pytest.approx(ctx2.mass / 9.0, rel=1e-12)

    @pytest.mark.parametrize("d,p", [(3, 1.5), (3, 2.5), (4, 1.8), (5, 1.3)])
    def test_positivity_across_parameters(self, d, p):
        val, closed = total_K_integral(SelectionContext(d, p))
        assert val > 0 and closed > 0


class TestAngularKernel:
    def test_ell_at_zero(self):
        assert ell(0.0, 3) == pytest.approx(1.0, rel=1e-12)

    def test_ell_at_one(self):
        # decomposition with the antisymmetric part vanishing at s = 1
        assert ell(1.0, 3) == pytest.approx(0.5, rel=1e-12)

    def test_ell_vanishes_at_infinity(self):
        assert ell(1e3, 3) < 1e-2

    def test_ell_positive_and_decreasing(self):
        s = np.geomspace(1e-2, 1e2, 50)
        vals = [ell(float(x), 3) for x in s]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decomposition_identity(self):
        for d in (3, 4):
            half = half_sphere_constant(d)
            for s in (0.3, 0.97, 1.0, 2.5):
                lhs = ell(s, d)
                rhs = 0.5 * half + 0.5 * m_d(s, d) if s > 0 else None
                assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 8])
    def test_closed_form_matches_theta_quadrature(self, d):
        ells = ell(S_GRID, d)
        ms = m_d(S_GRID[1:], d)
        for k, s in enumerate(S_GRID):
            ref_ell, ref_m = theta_reference(float(s), d)
            assert ell(float(s), d) == ells[k]
            assert abs(ells[k] - ref_ell) <= 1e-12 * ref_ell
            if s > 0:
                assert abs(ms[k - 1] - ref_m) <= 1e-12

    @pytest.mark.parametrize("d", [3, 4, 7])
    def test_limits_at_zero_and_infinity(self, d):
        H = half_sphere_constant(d)
        ref_H, _ = quad(lambda t: math.sin(t) ** (d - 2), 0.0, math.pi / 2.0,
                        epsabs=1e-14, epsrel=1e-13)
        assert H == pytest.approx(ref_H, rel=1e-13)
        assert ell(0.0, d) == H
        assert ell(math.inf, d) == 0.0
        assert m_d(math.inf, d) == -H
        # ell ~ H (1 - 2/d)/s and m_d -> -H as s -> inf
        assert ell(1e12, d) * 1e12 == pytest.approx(H * (1.0 - 2.0 / d), rel=1e-10)
        assert m_d(1e12, d) == pytest.approx(-H, rel=1e-10)

    def test_no_warning_at_huge_arguments(self):
        # G_prime's outermost quadrature nodes reach r^2/t of 1e300 and beyond
        s = np.array([1e300, 1e307, np.finfo(float).max, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (3, 4, 5):
                vals = ell(s, d)
                assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
                assert vals[-1] == 0.0
                assert np.all(np.isfinite(m_d(s, d)))

    def test_near_singular_region_is_smooth(self):
        # values across s = 1 stay monotone even where the integrand nearly
        # blows up at theta = 0
        s = [1 - 1e-4, 1 - 1e-6, 1.0, 1 + 1e-6, 1 + 1e-4]
        vals = [ell(float(x), 3) for x in s]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAntisymmetricPart:
    def test_m3_closed_form_hand_value(self):
        # m3(1/4) = 0.75 arctanh(0.8) = 0.75 ln 3
        assert m3_closed(0.25) == pytest.approx(0.75 * math.log(3.0), rel=1e-14)

    def test_m3_closed_vs_quadrature(self):
        for s in np.geomspace(0.02, 50.0, 50):
            assert m3_closed(float(s)) == pytest.approx(
                theta_reference(float(s), 3)[1], rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("gap", [1e-12, 1e-9])
    def test_m3_closed_next_to_one(self, gap):
        # 2 sqrt(s)/(1+s) rounds to 1 here, where arctanh has no finite value
        for s in (1.0 - gap, 1.0 + gap):
            expected = theta_reference(s, 3)[1]
            assert m3_closed(s) == pytest.approx(expected, rel=1e-7)

    def test_antisymmetry(self):
        for s in (0.2, 0.5, 0.8):
            for d in (3, 4, 5):
                assert abs(m_d(s, d) + m_d(1.0 / s, d)) < 1e-9

    def test_m3_at_one(self):
        assert m3_closed(1.0) == 0.0

    def test_m3_derivative_negative(self):
        s = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        for x in s:
            dm = (m3_closed(x + h) - m3_closed(x - h)) / (2 * h)
            assert dm < 0

    def test_derivative_negative_for_all_dimensions(self):
        # the content that the angular-kernel monotonicity rests on: the
        # antisymmetric part decreases strictly for every dimension; the
        # dimensional ordering of the derivatives themselves is not uniform
        # in s (measured both ways at s = 0.1 vs 0.5) and is not asserted
        h = 1e-5
        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            for d in (3, 4, 5):
                dm = (m_d(s + h, d) - m_d(s - h, d)) / (2 * h)
                assert dm < 0


class TestLogConvolution:
    def test_G_prime_positive(self, ctx):
        for t in (0.1, 1.0, 10.0):
            assert G_prime(t, ctx) > 0

    @pytest.mark.parametrize("d,p", [(3, 2.0), (5, 1.3)])
    @pytest.mark.parametrize("t", [0.01, 1.0, 100.0])
    def test_G_prime_matches_adaptive_quadrature(self, d, p, t):
        c = SelectionContext(d, p)
        K = K_profile(c)

        def f(r):
            return float(K(r)) * ell(r * r / t, d) * r ** (d - 1)

        cuts = [0.0, *sorted({math.sqrt(t), c.crossing_radius}), math.inf]
        val = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                  for a, b in zip(cuts, cuts[1:]))
        expected = sphere_area(d - 1) / t * val
        assert G_prime(t, c) == pytest.approx(expected, rel=1e-10)

    def test_G_prime_dominates_lower_bound(self, ctx):
        for t in (0.1, 1.0, 10.0):
            assert G_prime(t, ctx) >= G_prime_lower_bound(t, ctx) > 0

    def test_G_prime_small_t_limit(self, ctx):
        # as t -> 0 the kernel degenerates to the inverse-square weight:
        # G'(0+) = |S^(d-2)| c_d int K r^(d-3) dr with
        # c_d = -int cos(2 theta) sin(theta)^(d-2) dtheta; G' t -> 0
        d = ctx.d
        c_d, _ = quad(lambda th: -math.cos(2 * th) * math.sin(th) ** (d - 2),
                      0.0, math.pi / 2.0)
        expected = sphere_area(d - 1) * c_d * inverse_square_integral(ctx) \
            / sphere_area(d)
        got = G_prime(1e-5, ctx)
        assert got == pytest.approx(expected, rel=1e-3)
        assert G_prime(1e-5, ctx) * 1e-5 < 1e-3  # G' t vanishes

    def test_F_strictly_increasing(self, ctx):
        F0 = F_selection(0.0, ctx)
        F05 = F_selection(0.5, ctx)
        F2 = F_selection(2.0, ctx)
        assert F0 < F05 < F2

    def test_F_log_asymptotics(self, ctx):
        # F(y) behaves like log|y| int K dx for large translations
        totK, _ = total_K_integral(ctx)
        for y in (20.0, 60.0):
            ratio = F_selection(y, ctx) / math.log(y)
            assert abs(ratio - totK) / totK < 0.02


class TestInverseSquare:
    def test_positive(self, ctx):
        assert inverse_square_integral(ctx) > 0

    def test_radial_reduction(self, ctx):
        # equals |S^(d-1)| int K r^(d-3) dr
        from cknlab.quadrature import integrate, sphere_area
        K = K_profile(ctx)
        direct = sphere_area(3) * integrate(K, 3, 2.0)
        assert inverse_square_integral(ctx) == pytest.approx(direct, rel=1e-12)

    def test_d_factor_identity(self, ctx):
        T = isotropy_matrix(ctx)
        inv2 = inverse_square_integral(ctx)
        assert T[0, 0] == pytest.approx((ctx.d - 2) / ctx.d * inv2, rel=1e-8)
        off = T - np.diag(np.diag(T))
        assert np.max(np.abs(off)) < 1e-10
