import math

import numpy as np
import pytest
from scipy.special import betaln, exprel

import cknlab.minimizer as minimizer_module
import cknlab.profiles as profiles_module
from cknlab.errors import (AmplitudeOverflow, CknError, GridTooCoarse,
                           ParameterError)
from cknlab.minimizer import (_at_mass, _Discretization, _Flat, _kkt, _newton,
                              best_constant_radial, critical_constant,
                              hs_upper_bound, minimize_radial)
from cknlab.params import kappa, validate
from cknlab.profiles import barenblatt_mass, w_gamma_star
from cknlab.quadrature import sphere_area

# a Newton iterate whose exponents overflow fails the suite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N = 512


def flat_discretization(pp, n):
    """The flat problem of pp at its default mass, on its own n-node grid."""
    flat = _Flat(pp)
    return flat, _Discretization(flat, n)


class TestBestConstant:
    def test_reference_value(self):
        # frozen: 1/Q at (3,0,2) computed from the Beta closed forms
        c_star, J = best_constant_radial(validate(3, 0.0, 2.0))
        assert c_star == pytest.approx(1.0 / 1.6439488100495983, rel=1e-12)
        assert J > 0

    def test_gamma_continuity(self):
        _, J0 = best_constant_radial(validate(3, 0.0, 2.0))
        _, J1 = best_constant_radial(validate(3, 1e-3, 2.0))
        assert abs(J1 - J0) / J0 < 1e-2


def beta_oracle(mu, b, c, q):
    """int_0^inf r^(mu-1) (b + r^c)^(-q) dr."""
    nu = mu / c
    return b ** (nu - q) * math.exp(betaln(nu, q - nu)) / c


def oracle_quotient(d, gamma, p):
    """Quotient of (1 + r^(2-gamma))^(-1/(p-1)) from Beta integrals."""
    area, c, k = sphere_area(d), 2.0 - gamma, 1.0 / (p - 1.0)
    vt = (d - gamma) * (p - 1) / (p * (d + 2 - 2 * gamma - p * (d - 2)))
    grad_sq = area * (c * k) ** 2 * beta_oracle(
        d + 2.0 - 2.0 * gamma, 1.0, c, 2.0 * (k + 1.0))
    n_p1 = area * beta_oracle(d - gamma, 1.0, c, (p + 1.0) * k)
    n_2p = area * beta_oracle(d - gamma, 1.0, c, 2.0 * p * k)
    return grad_sq ** (vt / 2.0) * n_p1 ** ((1.0 - vt) / (p + 1.0)) \
        / n_2p ** (1.0 / (2.0 * p))


# (d, gamma, p) with gamma > 0, p halfway into the admissible range
GAMMA_POINTS = [(d, g, 1.0 + 0.5 * ((d - g) / (d - 2.0) - 1.0))
                for d in (3, 4) for g in (0.5, 1.2, 1.9)]


class TestClosedFormOracle:
    @pytest.mark.parametrize("d,gamma,p", GAMMA_POINTS)
    def test_best_constant_radial(self, d, gamma, p):
        pp = validate(d, gamma, p)
        c_star, J = best_constant_radial(pp)
        assert c_star == pytest.approx(1.0 / oracle_quotient(d, gamma, p),
                                       rel=1e-13)
        theta = (d + 2 - 2 * gamma - p * (d - 2)) \
            / (d - gamma - p * (d + gamma - 4))
        assert J == pytest.approx(kappa(pp) * c_star ** (-2.0 * p * theta),
                                  rel=1e-13)

    @pytest.mark.parametrize("d,gamma", [(d, g) for d, g, _ in GAMMA_POINTS])
    def test_critical_constant(self, d, gamma):
        p = (d - gamma) / (d - 2.0)
        area, c, k = sphere_area(d), 2.0 - gamma, 1.0 / (p - 1.0)
        grad_sq = area * (c * k) ** 2 * beta_oracle(
            d + 2.0 - 2.0 * gamma, 1.0, c, 2.0 * (k + 1.0))
        n_crit = (area * beta_oracle(d - gamma, 1.0, c, 2.0 * p * k)) \
            ** (1.0 / (2.0 * p))
        assert critical_constant(d, gamma) == pytest.approx(
            n_crit / math.sqrt(grad_sq), rel=1e-13)


class TestMinimizeRadial:
    @pytest.mark.parametrize("d,gamma,p", [(3, 0.0, 2.0), (3, 0.5, 2.0)])
    def test_lands_on_explicit_optimizer(self, d, gamma, p):
        pp = validate(d, gamma, p)
        c_star, _ = best_constant_radial(pp)
        rep = minimize_radial(pp, N)
        assert rep.best_quotient == pytest.approx(1.0 / c_star, rel=1e-4)

    def test_two_seed_agreement(self):
        pp = validate(3, 0.0, 2.0)
        warm = minimize_radial(pp, N, start="warm")
        cold = minimize_radial(pp, N, start="cold")
        assert cold.best_quotient == pytest.approx(warm.best_quotient, rel=1e-4)

    def test_profile_matches_mass_matched_dilate(self):
        # the optimizer family alpha w(lam r), lam = alpha^((p-1)/(2-gamma)),
        # has the mass alpha^(2p - (p-1)(d-gamma)/(2-gamma)) times that of w
        pp = validate(3, 0.5, 2.0)
        rep = minimize_radial(pp, N)
        expo = 2.0 * pp.p - (pp.p - 1.0) * (3 - 0.5) / (2.0 - 0.5)
        alpha = (rep.mass / barenblatt_mass(pp)) ** (1.0 / expo)
        lam = alpha ** ((pp.p - 1.0) / (2.0 - 0.5))
        cand = w_gamma_star(pp).scaled(alpha, lam)(rep.best_profile.radii)
        dev = np.max(np.abs(rep.best_profile.values - cand)) / np.max(cand)
        assert dev < 1e-3

    def test_never_beats_reference_beyond_tolerance(self):
        pp = validate(3, 0.0, 2.0)
        rep = minimize_radial(pp, N)
        assert rep.best_quotient <= rep.reference + 1e-4

    def test_J_independent_of_mass(self):
        # the problem is solved once, at the unit-peak mass; a mass only
        # dilates the minimizer, so J and the Newton steps do not move even
        # at masses far outside the unit-peak one
        pp = validate(3, 0.5, 2.0)
        M = barenblatt_mass(pp)
        ref = minimize_radial(pp, N)
        for mass in (M, 2.0 * M, 1e-100, 1e-30, 1.0, 1e30, 1e100):
            rep = minimize_radial(pp, N, mass=mass)
            assert rep.J == pytest.approx(ref.J, rel=1e-12), mass
            assert rep.iterations == ref.iterations, mass
            assert rep.mass == mass

    def test_mass_constraint_exact(self):
        # the profile exp(phi) of the returned values has the reported mass
        pp = validate(3, 0.5, 2.0)
        rep = minimize_radial(pp, N)
        flat, disc = flat_discretization(pp, N)
        assert (rep.s_min, rep.s_max) == (disc.s[0], disc.s[-1])
        _, _, mass = disc.functionals(np.log(rep.best_profile.values))
        assert abs(flat.log_K + math.log(mass) - math.log(rep.mass)) < 1e-12

    @pytest.mark.parametrize("d,gamma,p", [(3, 0.0, 2.0), (3, 0.5, 2.0),
                                           (4, 1.5, 1.1), (5, 1.0, 1.3)])
    def test_default_mass_is_the_unit_peak_members(self, d, gamma, p):
        # the unit-peak optimizer in r is (1 + r^(2-gamma)/B)^(-1/(p-1)),
        # B = a alpha^2 with a the flat a_gamma: its mass in r is a Beta
        # integral, independent of the flat map K
        pp = validate(d, gamma, p)
        alpha, k = 1.0 - gamma / 2.0, 1.0 / (p - 1.0)
        d_g = (d - gamma) / alpha
        big_b = 2.0 * (d_g - p * (d_g - 2.0)) / (p - 1.0) ** 2 * alpha**2
        mass = sphere_area(d) * big_b ** (2.0 * p * k) * beta_oracle(
            d - gamma, big_b, 2.0 - gamma, 2.0 * p * k)
        flat = _Flat(pp)
        assert flat.log_K + math.log(flat.mass) == pytest.approx(
            math.log(mass), rel=0.0, abs=1e-12)
        assert flat.log_candidate(np.zeros(1))[0] == 0.0

    def test_dilation_balance_vanishes(self):
        pp = validate(3, 0.0, 2.0)
        rep = minimize_radial(pp, N)
        assert abs(rep.dilation_balance) < 1e-6

    def test_descent_monotone_across_iterations(self, monkeypatch):
        # the accepted Newton iterates never increase the mass-normalized
        # energy, and the last one is stationary: its gradient, the KKT
        # residual, vanishes relative to the energy.  Every accepted iterate
        # but the last goes through _kkt, which builds the next step; each
        # iterate's energy is the one _at_mass returned with it
        pp = validate(3, 0.0, 2.0)
        flat, disc = flat_discretization(pp, 200)
        M = flat.mass
        phi0 = flat.log_candidate(disc.s) + np.log1p(0.3 * np.sin(np.log(disc.s)))
        energies, iterates = {}, []

        def shifting(level, phi, target_mass):
            shifted, G = _at_mass(level, phi, target_mass)
            energies[id(shifted)] = G
            return shifted, G

        def recording(level, phi, target_mass):
            iterates.append(phi)
            return _kkt(level, phi, target_mass)

        monkeypatch.setattr(minimizer_module, "_at_mass", shifting)
        monkeypatch.setattr(minimizer_module, "_kkt", recording)
        phi, G, _, _ = _newton(disc, phi0, M)
        values = [energies[id(v)] for v in iterates + [phi]]
        assert len(values) >= 3 and G == values[-1]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert np.max(np.abs(_kkt(disc, phi, M)[0])) <= 1e-8 * values[-1]

    def test_richardson_estimate_reported(self):
        pp = validate(3, 0.0, 2.0)
        rep = minimize_radial(pp, N)
        assert isinstance(rep.err_estimate, float)
        assert rep.err_estimate < 1e-4 * rep.J

    @pytest.mark.parametrize("n, sizes", [(1024, [65, 129, 257, 513, 1024]),
                                          (100, [51, 100])])
    def test_one_ladder_per_solve(self, n, sizes, monkeypatch):
        # the Richardson coarse grid is the ladder's own second-finest level:
        # one Newton solve per level and no second ladder, and even a grid of
        # at most 128 nodes gets a coarse level
        calls = []
        newton = minimizer_module._newton

        def counting(level, w0, *args):
            calls.append(w0.size)
            return newton(level, w0, *args)

        monkeypatch.setattr(minimizer_module, "_newton", counting)
        # tolerance loose enough for the 100-node grid's Richardson guard
        minimize_radial(validate(3, 0.15, 2.0), n, solver_tol=1e-3)
        assert calls == sizes

    @pytest.mark.parametrize("d, gamma, p", [(3, 0.0, 2.0), (5, 1.0, 1.3),
                                             (4, 1.5, 1.1)])
    def test_stationary_from_either_start(self, d, gamma, p):
        # both starts reach the same stationary point, though at (3, 0, 2)
        # the log of the cold Gaussian lies 2e4 below the optimizer's at s_max
        pp = validate(d, gamma, p)
        warm = minimize_radial(pp, 1024, start="warm")
        cold = minimize_radial(pp, 1024, start="cold")
        assert cold.best_quotient == pytest.approx(warm.best_quotient, rel=1e-9)
        assert warm.gradient_norm <= 1e-8
        assert cold.gradient_norm <= 1e-8

    @pytest.mark.parametrize("kwargs", [{"mass": -1.0}, {"mass": 0.0},
                                        {"mass": math.nan}, {"mass": math.inf},
                                        {"solver_tol": math.inf},
                                        {"start": "hot"}])
    def test_bad_input_raises_parameter_error(self, kwargs):
        with pytest.raises(ParameterError):
            minimize_radial(validate(3, 0.0, 2.0), N, **kwargs)

    @pytest.mark.parametrize("d, gamma, p", [(3, 1.5, 1.49), (3, 1.9, 1.05),
                                             (3, 1.2, 1.7)])
    def test_dilation_balance_guard(self, d, gamma, p, monkeypatch):
        # a window that sheds 3% of X, Y and the mass at either end truncates
        # the profile's transition, which both Richardson grids share; the
        # dilation balance sees it
        monkeypatch.setattr(profiles_module, "TAIL_SHARE", 0.03)
        with pytest.raises(GridTooCoarse, match="dilation balance"):
            minimize_radial(validate(d, gamma, p), N)

    def test_grid_too_coarse_raises(self):
        pp = validate(3, 0.0, 2.0)
        with pytest.raises(GridTooCoarse):
            minimize_radial(pp, 48, solver_tol=1e-9)

    @pytest.mark.parametrize("d, gamma, p", [(3, 1.5, 1.49), (3, 1.8, 1.1),
                                             (6, 1.5, 1.05), (3, 0.0, 1.02),
                                             (3, 1.9, 1.05), (3, 1.2, 1.7)])
    def test_former_defects_solve(self, d, gamma, p):
        # the fixed r-grid [1e-3, 1e3] truncated the first three and the last
        # two, and the amplitude a^(1/(p-1)) overflowed at (3, 0, 1.02)
        rep = minimize_radial(validate(d, gamma, p))
        assert rep.best_quotient == pytest.approx(
            oracle_quotient(d, gamma, p), rel=1e-4)

    def test_map_back_in_logs(self):
        # at (8, 1.95, 1.0015) the map back K = exp(824.6) leaves the float
        # range, while the mass exp(423.7), the quotient and J do not; at
        # (12, 1.95, 1.001) the mass exp(879.3) itself does
        pp = validate(8, 1.95, 1.0015)
        rep = minimize_radial(pp)
        assert rep.best_quotient == pytest.approx(
            oracle_quotient(8, 1.95, 1.0015), rel=1e-4)
        assert rep.J == pytest.approx(best_constant_radial(pp)[1], rel=1e-4)
        assert math.log(rep.mass) == pytest.approx(423.7, abs=0.05)
        with pytest.raises(AmplitudeOverflow, match=r"exp\(879\.3\)"):
            minimize_radial(validate(12, 1.95, 1.001))

    def test_sweep_lands_or_raises(self):
        # 140 points over d = 3..6, seven gammas and five p per interval:
        # each lands on the closed form within solver_tol or raises a named
        # error, never a silently wrong quotient.  Every discrete profile is
        # an admissible function, so no quotient lies below the radial
        # minimum 1/C* beyond roundoff
        solved = 0
        for d in (3, 4, 5, 6):
            for gamma in (0.0, 0.25, 0.5, 1.0, 1.5, 1.8, 1.9):
                p_max = (d - gamma) / (d - 2.0)
                for f in (0.1, 0.3, 0.5, 0.7, 0.9):
                    p = 1.0 + f * (p_max - 1.0)
                    try:
                        rep = minimize_radial(validate(d, gamma, p))
                    except CknError:
                        continue
                    oracle = oracle_quotient(d, gamma, p)
                    assert rep.best_quotient == pytest.approx(
                        oracle, rel=1e-4), (d, gamma, p)
                    assert rep.best_quotient >= oracle * (1.0 - 1e-12), \
                        (d, gamma, p)
                    solved += 1
        assert solved >= 140

    def test_gradient_matches_finite_differences(self):
        # the KKT residual is the gradient in phi of the Lagrangian
        # 0.5 X + Y/(p+1) - mu mass at its fixed multiplier mu, and its three
        # Hessian diagonals are the derivatives of that gradient; both are checked
        # by central differences at 10 random nodes.  The integrands span
        # eight decades, so the Lagrangian is differenced cell by cell: the
        # shares a step leaves alone cancel exactly, and a tail node's change
        # is not lost to the roundoff of the whole sum
        pp = validate(3, 0.5, 2.0)
        p = pp.p
        flat, disc = flat_discretization(pp, 256)
        M = flat.mass
        rng = np.random.default_rng(11)
        phi = flat.log_candidate(disc.s) + 0.1 * rng.standard_normal(disc.s.size)
        phi, _ = _at_mass(disc, phi, M)
        resid, _, diag, off = _kkt(disc, phi, M)
        X, Y, _ = disc.functionals(phi)
        mu = (X + Y) / (2.0 * p * M)
        weights = np.array([0.5, 1.0 / (p + 1.0), -mu])[:, None]

        def lagrangian_shares(v):
            _, top, y, ends = disc.terms(v)
            cells = top * exprel(-y)
            cells[0] *= (np.diff(v) / disc.h) ** 2
            return np.concatenate([(weights * cells).ravel(),
                                   (weights * ends).ravel()])

        X, Y, mass = disc.functionals(phi)
        assert np.sum(lagrangian_shares(phi)) == pytest.approx(
            0.5 * X + Y / (p + 1.0) - mu * mass, rel=1e-12)

        def gradient(v):
            # the residual at v, taken back to the fixed multiplier mu
            X, Y, _ = disc.functionals(v)
            r, g, _, _ = _kkt(disc, v, M)
            return r + ((X + Y) / (2.0 * p * M) - mu) * g

        n = disc.s.size
        for i in rng.choice(n, size=10, replace=False):
            rel = np.full(4, np.inf)
            for h in (1e-5, 3e-6, 1e-6):
                up, down = phi.copy(), phi.copy()
                up[i] += h
                down[i] -= h
                fd = np.sum(lagrangian_shares(up) - lagrangian_shares(down)) \
                    / (2.0 * h)
                col = (gradient(up) - gradient(down)) / (2.0 * h)
                # column i of the Hessian: its diagonal and off-diagonals
                pairs = [(resid[i], fd), (diag[i], col[i]),
                         (off[i - 1] if i > 0 else 0.0,
                          col[i - 1] if i > 0 else 0.0),
                         (off[i] if i < n - 1 else 0.0,
                          col[i + 1] if i < n - 1 else 0.0)]
                rel = np.minimum(rel, [abs(a - b) / max(abs(b), 1e-300)
                                       if b else abs(a) for a, b in pairs])
            # the optimal difference step varies with the node's share, so
            # the check passes if any sane step confirms the derivative
            assert np.all(rel < 1e-6), (i, rel)


class TestUpperBound:
    def test_hardy_endpoint_value(self):
        # at gamma = 2 the critical constant reduces to 2/(d-2)
        assert critical_constant(3, 2.0) == 2.0
        assert critical_constant(4, 2.0) == 1.0

    def test_bound_holds_with_slack(self):
        for d, gamma, p in [(3, 0.5, 2.0), (3, 0.0, 2.0), (4, 0.25, 1.5)]:
            pp = validate(d, gamma, p)
            c_star, _ = best_constant_radial(pp)
            bound = hs_upper_bound(pp)
            assert c_star < bound

    def test_sobolev_endpoint_at_gamma_zero(self):
        # classical unweighted critical constant at d = 3:
        # 2^(2/3) / (3^(1/2) pi^(2/3)), from the explicit optimizer
        import math
        expected = 2.0 ** (2.0 / 3.0) / (math.sqrt(3.0) * math.pi ** (2.0 / 3.0))
        assert critical_constant(3, 0.0) == pytest.approx(expected, rel=1e-12)
