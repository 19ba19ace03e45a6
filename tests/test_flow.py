import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import cknlab.flow as flow_module
from cknlab.errors import NegativeDensity, ParameterError, StepFailure
from cknlab.flow import (FlowMesh, fisher_information,
                         fit_decay_rate, free_energy, make_state, run_decay,
                         self_similar_map, stationary_profile, step)
from cknlab.params import validate
from cknlab.profiles import RadialProfile, w_star
from cknlab.quadrature import log_beta_integral, sphere_area

# a vacuum face leaking 0/0 or 0 * inf out of its errstate fails the suite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def stat():
    return stationary_profile(0.75, 0.0, 3, 50.0)


class TestStationaryProfile:
    def test_mass_is_matched(self, stat):
        assert stat.moment(1.0, 3, 0.0) == pytest.approx(
            50.0, rel=1e-10)

    def test_against_closed_form(self, stat):
        # mass(C) = K0 C^(nu - q) solves in closed form
        K0 = sphere_area(3) * math.exp(log_beta_integral(3.0, 1.0, 2.0, 4.0))
        C = (50.0 / K0) ** (1.0 / (1.5 - 4.0))
        assert stat.b == pytest.approx(C, rel=1e-12)

    def test_mass_decreasing_in_C(self):
        # the profile is pointwise decreasing in C (negative exponent), so
        # the weighted mass decreases as well; uniqueness follows
        masses = [flow_module._stationary(C, 0.75, 1.0).moment(1.0, 3, 0.0)
                  for C in (0.1, 0.3, 1.0)]
        assert masses[0] > masses[1] > masses[2]

    def test_doubling_mass_decreases_C(self):
        s1 = stationary_profile(0.75, 0.5, 3, 10.0)
        s2 = stationary_profile(0.75, 0.5, 3, 20.0)
        assert s2.b < s1.b

    def test_power_of_profile_is_dilated_optimizer(self, stat):
        # B^(m - 1/2) is a constant multiple of a dilate of the unit profile
        m = 0.75
        p = 1.0 / (2 * m - 1.0)
        pp = validate(3, 0.0, p)
        ws = w_star(pp)
        r = np.geomspace(1e-2, 1e2, 40)
        lhs = stat(r) ** (m - 0.5)
        lam = stat.b ** (-0.5)  # dilation factor for gamma = 0
        rhs = stat.b ** (-1.0 / (p - 1.0)) * ws(lam * r)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            stationary_profile(1.2, 0.0, 3, 1.0)


# far above the explicit (CFL) stability bound of these states: 6e-4 for the
# perturbed stationary states on 200 cells, 4e-9 for the Gaussian
BIG_DT = 1e-2


def _coslog(stat, a):
    return lambda r: stat(r) * (1.0 + a * np.cos(np.log(np.maximum(r, 1e-10))))


# (gamma, m) from the flat mesh's gamma = 0 case to large gamma; m = 0.95 at
# gamma = 1.8, where m must exceed 11/12
OVER_GAMMA = pytest.mark.parametrize("gamma, m", [
    pytest.param(0.0, 0.75, id="gamma0"), pytest.param(0.5, 0.75, id="gamma0.5"),
    pytest.param(1.8, 0.95, id="gamma1.8")])


class TestStep:
    @OVER_GAMMA
    def test_stationary_is_fixed_point(self, gamma, m):
        # relative to the peak, which is 373 at gamma = 0 and 2e7 at 1.8
        stat = stationary_profile(m, gamma, 3, 50.0)
        state = make_state(stat, m, gamma, 3, n_cells=200)
        nxt = step(state, BIG_DT)
        assert np.max(np.abs(nxt.density - state.density)) \
            < 1e-13 * np.max(state.density)

    def test_mass_conserved_from_gaussian(self):
        state = make_state(lambda r: np.exp(-(r**2)), 0.75, 0.0, 3,
                           n_cells=150, r_out=15.0)
        m0 = state.mass
        for _ in range(100):
            state = step(state, BIG_DT)
        assert abs(state.mass - m0) / m0 < 1e-10
        assert np.all(state.density >= 0)

    def test_free_energy_decreases_for_perturbation(self, stat):
        state = make_state(_coslog(stat, 0.1), 0.75, 0.0, 3, n_cells=200)
        from cknlab.flow import _stationary_for_state
        ref = _stationary_for_state(state)
        Fs = [free_energy(state, ref)]
        for _ in range(50):
            state = step(state, BIG_DT)
            Fs.append(free_energy(state, ref))
        assert all(b <= a + 1e-14 for a, b in zip(Fs, Fs[1:]))

    def test_second_order_in_time(self, stat):
        # TR-BDF2 is second order: halving dt cuts the error of F(T) about 4x
        state0 = make_state(_coslog(stat, 0.1), 0.75, 0.0, 3, n_cells=100,
                            r_out=20.0)
        from cknlab.flow import _stationary_for_state
        ref = _stationary_for_state(state0)

        def F_at(n_steps, T=0.2):
            state = state0
            for _ in range(n_steps):
                state = step(state, T / n_steps)
            return free_energy(state, ref)

        fine = F_at(128)
        coarse_err, half_err = abs(F_at(8) - fine), abs(F_at(16) - fine)
        assert half_err > 0.0
        assert coarse_err / half_err >= 3.0

    def test_stiff_modes_are_damped(self):
        # at mass 1e-6 the stationary constant is C = 280, so the rough
        # datum's small-r modes relax far faster than a step of 0.05; an
        # L-stable step damps them, while Crank-Nicolson alone leaves them
        # ringing, and at t = 1.5 they carry 99.9% of I (I/F near 6000)
        small = stationary_profile(0.75, 0.0, 3, 1e-6)
        state = make_state(_coslog(small, 0.1), 0.75, 0.0, 3, n_cells=100)
        from cknlab.flow import _stationary_for_state
        ref = _stationary_for_state(state)
        dt, F, I = 0.05, [], []
        for _ in range(30):
            F.append(free_energy(state, ref))
            I.append(fisher_information(state))
            state = step(state, dt)
        dF = (free_energy(state, ref) - F[-1]) / dt
        I_mid = 0.5 * (I[-1] + fisher_information(state))
        assert abs(dF + I_mid) < 0.05 * I_mid

    def test_newton_iterate_conserves_mass(self, stat):
        # each column of the Jacobian of the divergence sums to zero, so even
        # one unconverged Newton iterate moves no weighted mass
        state = make_state(lambda r: stat(r) * (1.0 + 0.3 * np.exp(-((r - 2) ** 2))),
                           0.75, 0.0, 3, n_cells=200)
        vol, h = state.mesh.vol_w, 0.5 * BIG_DT
        target = vol * state.density \
            - h * flow_module._divergence(state.faces.flux)
        v, _, size = flow_module._newton_iterate(state, target, h,
                                                 state.density, state.faces)
        assert size > 1e-6
        m0 = np.sum(vol * state.density)
        assert abs(np.sum(vol * v) - m0) <= 1e-14 * m0

    def test_newton_update_matches_dense_solve(self, stat):
        # the tridiagonal solve gives the update of the dense Newton system
        # vol + c d(div)/dv, built here from the face derivatives: face k
        # carries flux out of cell k and into cell k+1
        state = make_state(lambda r: stat(r) * (1.0 + 0.3 * np.exp(-((r - 2) ** 2))),
                           0.75, 0.0, 3, n_cells=200)
        vol, h, v, faces = state.mesh.vol_w, 0.5 * BIG_DT, state.density, state.faces
        target = vol * v - h * flow_module._divergence(faces.flux)
        v_new, _, _ = flow_module._newton_iterate(state, target, h, v, faces)
        k = np.arange(v.size - 1)
        jac = np.diag(vol)
        jac[k, k] += h * faces.d_left
        jac[k + 1, k + 1] -= h * faces.d_right
        jac[k, k + 1] += h * faces.d_right
        jac[k + 1, k] -= h * faces.d_left
        resid = vol * v + h * flow_module._divergence(faces.flux) - target
        delta = np.linalg.solve(jac, -resid)
        assert np.max(np.abs((v_new - v) - delta)) <= 1e-12 * np.max(np.abs(delta))

    def test_singular_newton_system_raises(self, stat, monkeypatch):
        # LAPACK reports a zero pivot with info > 0; zeroing the matrix it
        # receives makes the system singular
        dgtsv = flow_module.dgtsv

        def zero_matrix(dl, d, du, b, *overwrite):
            return dgtsv(0.0 * dl, 0.0 * d, 0.0 * du, b, *overwrite)

        monkeypatch.setattr(flow_module, "dgtsv", zero_matrix)
        monkeypatch.setattr(flow_module, "_MAX_SPLITS", 0)
        state = make_state(_coslog(stat, 0.1), 0.75, 0.0, 3, n_cells=50)
        with pytest.raises(StepFailure, match="singular Newton system"):
            step(state, BIG_DT)

    def test_newton_failure_raises(self, stat, monkeypatch):
        monkeypatch.setattr(flow_module, "_NEWTON_ITERS", 1)
        state = make_state(_coslog(stat, 0.1), 0.75, 0.0, 3, n_cells=100)
        with pytest.raises(StepFailure, match="Newton did not converge"):
            step(state, BIG_DT)

    def test_step_budget_raises(self, stat, monkeypatch):
        monkeypatch.setattr(flow_module, "_MAX_STEPS", 3)
        with pytest.raises(StepFailure, match="exceeded 3 steps"):
            run_decay(stat, 0.75, 0.0, T=0.5, n_cells=50, r_out=20.0)


class TestFaceCache:
    def test_one_face_evaluation_per_state(self, stat, monkeypatch):
        # the faces are evaluated once for the initial state and once per
        # Newton iterate; an accepted state takes over the faces of its last
        # iterate, so the step size rule, the next step and the Fisher
        # information never evaluate them again
        evaluations, iterates, accepted = [], [], []
        face_terms = flow_module._face_terms
        newton_iterate, step_fn = flow_module._newton_iterate, flow_module.step

        def counting_faces(*args):
            evaluations.append(face_terms(*args))
            return evaluations[-1]

        def counting_iterate(*args):
            iterates.append(None)
            return newton_iterate(*args)

        def recording_step(state, dt):
            accepted.append(step_fn(state, dt))
            return accepted[-1]

        monkeypatch.setattr(flow_module, "_face_terms", counting_faces)
        monkeypatch.setattr(flow_module, "_newton_iterate", counting_iterate)
        monkeypatch.setattr(flow_module, "step", recording_step)
        series = run_decay(_coslog(stat, 0.1), 0.75, 0.0, T=0.01, n_cells=60,
                           record_every=3)
        assert len(accepted) > 10
        assert len(evaluations) == len(iterates) + 1
        evaluated = {id(f) for f in evaluations}
        assert all(id(s.faces) in evaluated for s in accepted)
        assert series.final is accepted[-1]

    def test_state_is_frozen(self, stat):
        # the cached faces stay valid only because a state never changes
        state = make_state(stat, 0.75, 0.0, 3, n_cells=50)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.density = np.zeros_like(state.density)


class TestEnergyFunctionals:
    @OVER_GAMMA
    def test_free_energy_zero_at_stationary(self, gamma, m):
        stat = stationary_profile(m, gamma, 3, 50.0)
        state = make_state(stat, m, gamma, 3, n_cells=200)
        from cknlab.flow import _stationary_for_state
        ref = _stationary_for_state(state)
        assert abs(free_energy(state, ref)) < 1e-12

    def test_free_energy_nonnegative(self, stat):
        rng = np.random.default_rng(3)
        state0 = make_state(stat, 0.75, 0.0, 3, n_cells=150)
        from cknlab.flow import _stationary_for_state
        for _ in range(10):
            bump = 1.0 + 0.5 * rng.random() * np.exp(
                -((state0.mesh.centers - 5 * rng.random()) ** 2))
            state = make_state(lambda r: np.interp(r, state0.mesh.centers,
                                                   stat(state0.mesh.centers) * bump),
                               0.75, 0.0, 3, n_cells=150)
            ref = _stationary_for_state(state)
            assert free_energy(state, ref) >= -1e-13

    @OVER_GAMMA
    def test_fisher_information_zero_at_stationary(self, gamma, m):
        state = make_state(stationary_profile(m, gamma, 3, 50.0), m, gamma, 3,
                           n_cells=200)
        assert fisher_information(state) < 1e-20

    def test_fisher_information_positive_when_perturbed(self, stat):
        pert = lambda r: stat(r) * (1.0 + 0.05 * np.sin(r))
        state = make_state(pert, 0.75, 0.0, 3, n_cells=200)
        assert fisher_information(state) > 0


class TestRunDecay:
    def test_stationary_run_stays_flat(self, stat):
        series = run_decay(stat, 0.75, 0.0, T=0.5, n_cells=100, r_out=20.0)
        assert np.all(np.abs(series.F) < 1e-12)
        assert np.all(series.I < 1e-18)
        # F is at roundoff throughout: every interval reads 0, none is dropped
        res = series.identity_residuals()
        assert res.shape == (series.t.size - 1,)
        assert np.all(res == 0.0)

    @pytest.mark.parametrize("kwargs", [{"T": 0.0}, {"T": -1.0},
                                        {"T": float("inf")}, {"T": float("nan")},
                                        {"record_every": -1}, {"record_every": 0}])
    def test_bad_run_input_rejected(self, stat, kwargs):
        args = dict(T=0.5, n_cells=50, r_out=20.0) | kwargs
        with pytest.raises(ParameterError):
            run_decay(stat, 0.75, 0.0, **args)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf, -1e-3])
    def test_datum_with_bad_cells_rejected(self, stat, fill):
        # no mass enters an empty cell, so a datum vanishing beyond r = 5
        # (the last 75 of 200 cells) would stay frozen there instead of
        # filling all space
        def truncated(r):
            return np.where(r < 5.0, stat(r), fill)

        with pytest.raises(ParameterError, match="75 of 200 cells") as exc:
            run_decay(truncated, 0.75, 0.0, T=1.0, n_cells=200)
        assert "finite and positive in every cell" in str(exc.value)

    def test_energy_identity_and_bound(self, stat):
        pert = lambda r: stat(r) * (1.0 + 0.1 * np.cos(np.log(np.maximum(r, 1e-10))))
        series = run_decay(pert, 0.75, 0.0, T=1.0, n_cells=200, record_every=5)
        res = series.identity_residuals()
        assert np.max(res) < 0.02
        assert np.all(series.F <= series.F[0] * np.exp(-4.0 * series.t) * 1.01)
        drift = np.max(np.abs(series.mass - series.mass[0])) / series.mass[0]
        assert drift < 1e-10

    def test_time_refinement_cuts_residual(self, stat, monkeypatch):
        # past the initial transient the steps follow the decay-time rule, so
        # halving its fraction halves them and, at second order, cuts the
        # energy-identity residual about 4x, at least 3x
        worst = []
        for fraction in (flow_module._DECAY_FRACTION,
                         0.5 * flow_module._DECAY_FRACTION):
            monkeypatch.setattr(flow_module, "_DECAY_FRACTION", fraction)
            series = run_decay(_coslog(stat, 0.1), 0.75, 0.0, T=0.5,
                               n_cells=100, record_every=1)
            res = series.identity_residuals()
            settled = 0.5 * (series.t[1:] + series.t[:-1]) > 0.1
            worst.append(np.max(res[settled]))
        assert worst[1] <= worst[0] / 3.0

    def test_velocity_cap_far_out(self):
        # in s the drift 2 s is largest at s_out, so the cap 100 s_out stays
        # far above every face velocity, even on a mesh out to r = 1e8; a
        # capped face would break the identity dF/dt = -I
        gamma, m = 1.8, 0.95
        alpha = 1.0 - gamma / 2.0
        stat = stationary_profile(m, gamma, 3, 50.0)
        datum = lambda r: stat(r) * (1.0 + 0.1 * np.cos(alpha * np.log(r)))
        state = make_state(datum, m, gamma, 3, n_cells=800, r_out=1e8)
        assert np.all(np.abs(state.faces.u) < state.mesh.cap)
        series = run_decay(datum, m, gamma, T=100.0, n_cells=800, r_out=1e8,
                           record_every=10)
        assert np.max(series.identity_residuals()) < 0.02

    def test_rate_matches_radial_spectral_gap(self, stat):
        # cross-module consistency: the asymptotic decay exponent of the flow
        # equals the radial zero-mean spectral gap (5 at d=3, m=3/4), not the
        # translation gap 4, because the flow is radial
        pert = lambda r: stat(r) * (1.0 + 0.05 * np.cos(np.log(np.maximum(r, 1e-10))))
        series = run_decay(pert, 0.75, 0.0, T=2.5, n_cells=300, record_every=10)
        rate = fit_decay_rate(series)
        from cknlab.spectral import hardy_poincare_gap
        _, info = hardy_poincare_gap(3, 2.0, n=800)
        radial_gap = info["by_sector"][0]
        assert rate == pytest.approx(radial_gap, rel=0.05)


class TestSelfSimilarMap:
    def test_identity_at_time_zero(self):
        pp = validate(3, 0.5, 2.0)
        prof = RadialProfile(radii=np.geomspace(0.1, 10, 20),
                             values=np.linspace(1, 2, 20))
        out = self_similar_map(prof, pp, 0.75, t=0.0)
        assert np.allclose(out.radii, prof.radii)
        assert np.allclose(out.values, prof.values)

    def test_round_trip(self):
        pp = validate(3, 0.0, 2.0)
        prof = RadialProfile(radii=np.geomspace(0.1, 10, 20),
                             values=np.linspace(1, 2, 20))
        fwd = self_similar_map(prof, pp, 0.75, t=1.7, direction="to_selfsim")
        back = self_similar_map(fwd, pp, 0.75, t=1.7, direction="to_physical")
        assert np.allclose(back.radii, prof.radii, rtol=1e-14)
        assert np.allclose(back.values, prof.values, rtol=1e-14)

    def test_weighted_mass_invariant(self, stat):
        # mapping a stationary rescaled state to the physical frame preserves
        # the weighted mass at every time
        pp = validate(3, 0.0, 2.0)
        r = np.geomspace(1e-3, 60.0, 4000)
        prof = RadialProfile(radii=r, values=stat(r))

        def mass_of(profile):
            from scipy.integrate import simpson
            y = profile.values * profile.radii ** 2
            return sphere_area(3) * simpson(y * profile.radii,
                                            x=np.log(profile.radii))

        m0 = mass_of(prof)
        for t in (0.5, 2.0):
            phys = self_similar_map(prof, pp, 0.75, t=t, direction="to_physical")
            assert mass_of(phys) == pytest.approx(m0, rel=1e-6)

    def test_singular_at_extinction_exponent(self):
        pp = validate(3, 0.0, 2.0)
        prof = RadialProfile(radii=np.array([1.0, 2.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            self_similar_map(prof, pp, (3 - 2) / (3 - 0), t=1.0)

    def test_expansion_factor_value(self):
        # R(t) at gamma 0, d 3, m 3/4: a = 3 (3/4 - 1/3) = 5/4,
        # R = (1 + 2 (5/4) t)^(4/5), hand evaluation at t = 1
        pp = validate(3, 0.0, 2.0)
        prof = RadialProfile(radii=np.array([1.0, 2.0]), values=np.array([1.0, 1.0]))
        out = self_similar_map(prof, pp, 0.75, t=1.0, direction="to_physical")
        R = out.meta["R"]
        assert R == pytest.approx(3.5 ** 0.8, rel=1e-13)


class TestMesh:
    # at (d, gamma) = (3, 0.5) the flat variable is s = r^0.75 and the real
    # dimension d_gamma = 2 (3 - 0.5)/(2 - 0.5) = 10/3
    ALPHA, D_GAMMA = 0.75, 10.0 / 3.0

    def test_graded_mesh_structure(self):
        mesh = FlowMesh.graded(3, 0.5, n_cells=100, r_out=20.0)
        assert mesh.edges[0] == 0.0
        assert mesh.edges[-1] == pytest.approx(20.0 ** self.ALPHA, rel=1e-14)
        assert np.all(np.diff(mesh.edges) > 0)
        # a uniform core of 25 cells on s in [0, 1]
        assert np.allclose(mesh.edges[:26], np.linspace(0.0, 1.0, 26),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(mesh.radii, mesh.centers ** (1.0 / self.ALPHA),
                           rtol=1e-14)
        # exact weighted volumes: the cell integrals of s^(d_gamma-1)
        vol = [quad(lambda s: s ** (self.D_GAMMA - 1.0), a, b,
                    epsabs=0.0, epsrel=1e-13)[0]
               for a, b in zip(mesh.edges[:-1], mesh.edges[1:])]
        assert np.allclose(mesh.vol_w, vol, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kwargs", [{"n_cells": 0}, {"n_cells": 7},
                                        {"n_cells": 8}, {"r_out": 0.0},
                                        {"r_out": 1.0}])
    def test_graded_mesh_rejects_bad_input(self, kwargs):
        # the core patch holds 8 cells on [0, 1]; the tail needs at least one
        # more cell and an outer radius beyond the core
        with pytest.raises(ParameterError):
            FlowMesh.graded(3, 0.0, **({"n_cells": 100, "r_out": 20.0} | kwargs))

    def test_mesh_constants(self):
        # the potential r^(2-gamma) is s^2, whose drift 2 s is largest at
        # s_out: the cap is 50 times 2 s_out; the measure carries
        # |S^2| / alpha and the face areas alpha^2
        mesh = FlowMesh.graded(3, 0.5, n_cells=100, r_out=20.0)
        assert np.array_equal(mesh.potential, mesh.centers ** 2)
        assert mesh.cap == pytest.approx(100.0 * 20.0 ** self.ALPHA, rel=1e-14)
        assert mesh.area == pytest.approx(sphere_area(3) / self.ALPHA, rel=1e-15)
        assert np.allclose(mesh.face_area, self.ALPHA ** 2 * mesh.edges[1:-1]
                           ** (self.D_GAMMA - 1.0), rtol=1e-14, atol=0.0)

    def test_graded_mesh_smallest(self):
        mesh = FlowMesh.graded(3, 0.0, n_cells=9, r_out=20.0)
        assert mesh.centers.size == 9
        assert np.all(np.diff(mesh.edges) > 0)

    def test_negative_density_rejected(self):
        mesh = FlowMesh.graded(3, 0.0, n_cells=10, r_out=5.0)
        from cknlab.flow import FlowState
        with pytest.raises(NegativeDensity):
            FlowState(time=0.0, mesh=mesh, density=-np.ones(10), m=0.75)
