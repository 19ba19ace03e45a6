import math

import numpy as np
import pytest
from scipy.special import betaln

import cknlab.minimizer as minimizer_module
from cknlab.errors import GridTooCoarse
from cknlab.minimizer import (GridConfig, _objective_factory, best_constant_radial,
                              critical_constant, discretize, hs_upper_bound,
                              minimize_radial)
from cknlab.params import kappa, validate
from cknlab.profiles import barenblatt_mass, dilate_to_mass
from cknlab.quadrature import sphere_area

GRID = GridConfig(n=512)


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
        rep = minimize_radial(pp, GRID)
        assert rep.best_quotient == pytest.approx(1.0 / c_star, rel=1e-4)

    def test_two_seed_agreement(self):
        pp = validate(3, 0.0, 2.0)
        warm = minimize_radial(pp, GRID, start="warm")
        cold = minimize_radial(pp, GRID, start="cold")
        assert cold.best_quotient == pytest.approx(warm.best_quotient, rel=1e-4)

    def test_profile_matches_mass_matched_dilate(self):
        pp = validate(3, 0.5, 2.0)
        rep = minimize_radial(pp, GRID)
        cand = dilate_to_mass(pp, rep.mass)(rep.best_profile.radii)
        dev = np.max(np.abs(rep.best_profile.values - cand)) / np.max(cand)
        assert dev < 1e-3

    def test_never_beats_reference_beyond_tolerance(self):
        pp = validate(3, 0.0, 2.0)
        rep = minimize_radial(pp, GRID)
        assert rep.best_quotient <= rep.reference + 1e-4

    def test_J_independent_of_mass(self):
        pp = validate(3, 0.0, 2.0)
        M = barenblatt_mass(pp)
        rep1 = minimize_radial(pp, GRID, mass=M)
        rep2 = minimize_radial(pp, GRID, mass=2.0 * M)
        assert rep2.J == pytest.approx(rep1.J, rel=1e-5)

    def test_mass_constraint_exact(self):
        pp = validate(3, 0.5, 2.0)
        rep = minimize_radial(pp, GRID)
        disc = discretize(pp, GRID)
        _, _, mass = disc.functionals(rep.best_profile.values, pp.p)
        assert abs(mass - rep.mass) / rep.mass < 1e-12

    def test_dilation_balance_vanishes(self):
        pp = validate(3, 0.0, 2.0)
        rep = minimize_radial(pp, GRID)
        assert abs(rep.dilation_balance) < 1e-6

    def test_descent_monotone_across_iterations(self):
        # the accepted iterates of the bound-constrained solver never
        # increase the mass-normalized energy
        from scipy.optimize import minimize as sp_minimize
        from cknlab.profiles import w_gamma_star
        pp = validate(3, 0.0, 2.0)
        disc = discretize(pp, GridConfig(n=200))
        objective = _objective_factory(disc, barenblatt_mass(pp))
        w0 = w_gamma_star(pp)(disc.r) * (1.0 + 0.3 * np.sin(np.log(disc.r)))
        values = []

        def record(xk):
            values.append(objective(xk)[0])

        sp_minimize(objective, w0, jac=True, method="L-BFGS-B",
                    bounds=[(0.0, None)] * w0.size, callback=record,
                    options={"maxiter": 300})
        assert len(values) > 10
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_richardson_estimate_reported(self):
        pp = validate(3, 0.0, 2.0)
        rep = minimize_radial(pp, GRID)
        assert isinstance(rep.err_estimate, float)
        assert rep.err_estimate < 1e-4 * rep.J

    @pytest.mark.parametrize("n, sizes", [(1024, [65, 129, 257, 513, 1024]),
                                          (100, [51, 100])])
    def test_one_ladder_per_solve(self, n, sizes, monkeypatch):
        # the Richardson coarse grid is the ladder's own second-finest level:
        # one L-BFGS solve per level and no second ladder, and even a grid of
        # at most 128 nodes gets a coarse level
        calls = []
        lbfgs = minimizer_module.minimize

        def counting(fun, x0, *args, **kwargs):
            calls.append(x0.size)
            return lbfgs(fun, x0, *args, **kwargs)

        monkeypatch.setattr(minimizer_module, "minimize", counting)
        # tolerance loose enough for the 100-node grid's Richardson guard
        minimize_radial(validate(3, 0.15, 2.0), GridConfig(n=n), solver_tol=1e-3)
        assert calls == sizes

    @pytest.mark.parametrize("d, gamma, p", [(3, 1.5, 1.49), (3, 1.9, 1.05),
                                             (3, 1.2, 1.7)])
    def test_dilation_balance_guard(self, d, gamma, p):
        # on [1e-3, 1e3] these profiles' transitions are truncated: the
        # quotient is off the closed form by +3.3%, -99.7% and +0.28%, which
        # the Richardson pair cannot see; the dilation balance does
        with pytest.raises(GridTooCoarse, match="dilation balance"):
            minimize_radial(validate(d, gamma, p), GRID)

    def test_grid_too_coarse_raises(self):
        pp = validate(3, 0.0, 2.0)
        with pytest.raises(GridTooCoarse):
            minimize_radial(pp, GridConfig(n=48), solver_tol=1e-9)

    def test_gradient_matches_finite_differences(self):
        # analytic gradient of the mass-normalized energy vs central
        # differences at 10 random coordinates
        pp = validate(3, 0.5, 2.0)
        disc = discretize(pp, GridConfig(n=256))
        objective = _objective_factory(disc, barenblatt_mass(pp))
        rng = np.random.default_rng(11)
        from cknlab.profiles import w_gamma_star
        w = w_gamma_star(pp)(disc.r) * (1.0 + 0.1 * rng.standard_normal(disc.r.size))
        w = np.abs(w) + 1e-8
        _, grad = objective(w)
        for i in rng.choice(disc.r.size, size=10, replace=False):
            rels = []
            for h0 in (1e-6, 3e-7, 1e-7):
                h = h0 * (1.0 + abs(w[i]))
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (objective(wp)[0] - objective(wm)[0]) / (2.0 * h)
                rels.append(abs(grad[i] - fd) / max(abs(fd), 1e-300))
            # the optimal difference step varies with the cell weight, so the
            # check passes if any sane step confirms the analytic gradient
            assert min(rels) < 1e-6


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
