import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import cknlab.flow as flow_module
from cknlab.errors import (DecayWindowTooShort, NegativeDensity,
                           ParameterError, StepFailure)
from cknlab.flow import (FlowMesh, fisher_information,
                         fit_decay_rate, free_energy, make_state, run_decay,
                         stationary_profile, step)
from cknlab.params import validate
from cknlab.profiles import RadialProfile, w_star
from cknlab.quadrature import log_beta_integral, sphere_area

# a face term that divides by zero or overflows fails the suite
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
GAMMA_M = [
    pytest.param(0.0, 0.75, id="gamma0"), pytest.param(0.5, 0.75, id="gamma0.5"),
    pytest.param(1.8, 0.95, id="gamma1.8")]
OVER_GAMMA = pytest.mark.parametrize("gamma, m", GAMMA_M)


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
        # the tail falls to 2e-96, where v^(m-1) is steep enough for the
        # velocity cap to hold some of the 149 faces: the capped path runs
        assert np.count_nonzero(np.abs(state.faces.u) >= state.mesh.cap) > 0
        m0 = state.mass
        for _ in range(100):
            state = step(state, BIG_DT)
        assert abs(state.mass - m0) / m0 < 1e-10
        assert np.all(state.density >= 0)

    @pytest.mark.parametrize("capped", [False, True], ids=["smooth", "capped"])
    def test_face_derivatives_match_finite_differences(self, stat, capped):
        # central differences of the flux in each neighbor, with a step of
        # 1e-6 of the cell's density; the capped state is the Gaussian above,
        # whose capped faces carry exactly zero derivatives
        if capped:
            state = make_state(lambda r: np.exp(-(r**2)), 0.75, 0.0, 3,
                               n_cells=150, r_out=15.0)
        else:
            state = make_state(lambda r: stat(r) * (1.0 + 0.3 * np.exp(-((r - 2) ** 2))),
                               0.75, 0.0, 3, n_cells=200)
        mesh, v, faces = state.mesh, state.density, state.faces
        rough = np.abs(faces.u) >= mesh.cap
        # the faces whose potential drop over the center spacing reaches the cap
        psi = v ** (state.m - 1.0) - mesh.centers ** 2
        assert np.array_equal(rough, np.abs(np.diff(psi) / np.diff(mesh.centers))
                              >= mesh.cap)
        assert np.any(rough) == capped
        assert np.all(faces.d_left[rough] == 0.0)
        assert np.all(faces.d_right[rough] == 0.0)
        # perturbing every other cell moves exactly one neighbor of each face
        k = np.arange(v.size - 1)
        fd_left, fd_right = np.empty(k.size), np.empty(k.size)
        for parity in (0, 1):
            h = 1e-6 * v * (np.arange(v.size) % 2 == parity)
            diff = (flow_module._face_terms(mesh, v + h, state.m).flux
                    - flow_module._face_terms(mesh, v - h, state.m).flux)
            left = k % 2 == parity
            fd_left[left] = diff[left] / (2.0 * h[:-1][left])
            fd_right[~left] = diff[~left] / (2.0 * h[1:][~left])
        smooth = ~rough
        np.testing.assert_allclose(fd_left[smooth], faces.d_left[smooth], rtol=1e-7)
        np.testing.assert_allclose(fd_right[smooth], faces.d_right[smooth], rtol=1e-7)

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
        delta, size = flow_module._newton_update(state, target, h,
                                                 state.density, state.faces)
        v = state.density + delta
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
        v_new = v + flow_module._newton_update(state, target, h, v, faces)[0]
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

    def test_non_positive_update_raises(self, monkeypatch):
        # from the Gaussian's 2e-96 tail the third Newton update of the first
        # stage overshoots below zero; the stage fails, and with no split
        # left so does the step
        monkeypatch.setattr(flow_module, "_MAX_SPLITS", 0)
        state = make_state(lambda r: np.exp(-(r**2)), 0.75, 0.0, 3,
                           n_cells=150, r_out=15.0)
        with pytest.raises(StepFailure, match="leaves the density non-positive"):
            step(state, BIG_DT)

    def test_step_budget_raises(self, stat, monkeypatch):
        monkeypatch.setattr(flow_module, "_MAX_STEPS", 3)
        with pytest.raises(StepFailure, match="exceeded 3 steps"):
            run_decay(stat, 0.75, 0.0, T=0.5, n_cells=50, r_out=20.0)


class TestFaceCache:
    def test_one_face_evaluation_per_state(self, stat, monkeypatch):
        # the faces are evaluated once for the initial state and once per
        # applied Newton update; the last update of a stage falls under
        # _NEWTON_TOL and is not applied, so it costs none.  An accepted state
        # takes over the faces of its last iterate, so the step size rule,
        # the next step and the Fisher information never evaluate them again
        evaluations, updates, stages, accepted = [], [], [], []
        face_terms, step_fn = flow_module._face_terms, flow_module.step
        newton_update = flow_module._newton_update
        solve_stage = flow_module._solve_stage

        def counting_faces(*args):
            evaluations.append(face_terms(*args))
            return evaluations[-1]

        def counting_update(*args):
            updates.append(None)
            return newton_update(*args)

        def counting_stage(*args):
            stages.append(None)
            return solve_stage(*args)

        def recording_step(state, dt):
            accepted.append(step_fn(state, dt))
            return accepted[-1]

        monkeypatch.setattr(flow_module, "_face_terms", counting_faces)
        monkeypatch.setattr(flow_module, "_newton_update", counting_update)
        monkeypatch.setattr(flow_module, "_solve_stage", counting_stage)
        monkeypatch.setattr(flow_module, "step", recording_step)
        series = run_decay(_coslog(stat, 0.1), 0.75, 0.0, T=0.01, n_cells=60,
                           record_every=3)
        assert len(accepted) > 10
        assert len(stages) == 2 * len(accepted)
        assert len(updates) > len(stages)
        assert len(evaluations) == 1 + len(updates) - len(stages)
        evaluated = {id(f) for f in evaluations}
        assert all(id(s.faces) in evaluated for s in accepted)
        assert series.final is accepted[-1]

    @pytest.mark.parametrize("amp", [0.0, 0.3])
    def test_stage_returns_converged_iterate(self, stat, amp):
        # the returned iterate's own Newton update is under _NEWTON_TOL, and
        # its faces are those of the iterate; amp = 0 starts converged
        state = make_state(lambda r: stat(r) * (1.0 + amp * np.exp(-((r - 2) ** 2))),
                           0.75, 0.0, 3, n_cells=200)
        vol, h = state.mesh.vol_w, 0.5 * BIG_DT
        target = vol * state.density \
            - h * flow_module._divergence(state.faces.flux)
        v, faces = flow_module._solve_stage(state, target, h, state.density,
                                            state.faces)
        assert (v is state.density) == (amp == 0.0)
        _, size = flow_module._newton_update(state, target, h, v, faces)
        assert size <= flow_module._NEWTON_TOL
        fresh = flow_module._face_terms(state.mesh, v, state.m)
        assert all(np.array_equal(a, b) for a, b in zip(faces, fresh))

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
        # would stay frozen there instead of filling all space; the datum is
        # first sampled on the mesh at C = 1, whose cells beyond r = 5 fail
        def truncated(r):
            return np.where(r < 5.0, stat(r), fill)

        empty = np.count_nonzero(FlowMesh.graded(3, 0.0, 200).radii >= 5.0)
        assert 0 < empty < 200
        with pytest.raises(ParameterError, match=f" {empty} of 200 cells") as exc:
            run_decay(truncated, 0.75, 0.0, T=1.0, n_cells=200)
        assert "finite and positive in every cell" in str(exc.value)

    def test_sampled_datum_spans_the_sized_mesh(self):
        # at mass 1e-6 (C = 280) the mesh the state runs on starts at
        # r = 1.29, while the mesh at C = 1 that sizes it starts at r = 0.19:
        # a sampled datum must span the first, not the second
        small = stationary_profile(0.75, 0.0, 3, 1e-6)
        r = np.geomspace(0.74, 25.0, 400)
        state = make_state(RadialProfile(r, small(r)), 0.75, 0.0, 3, n_cells=50)
        assert r[0] <= state.mesh.radii[0] and state.mesh.radii[-1] <= r[-1]
        short = np.geomspace(1.5, 25.0, 400)
        with pytest.raises(ParameterError, match="must cover the cell centers"):
            make_state(RadialProfile(short, small(short)), 0.75, 0.0, 3, n_cells=50)

    def test_energy_identity_and_bound(self, stat):
        pert = lambda r: stat(r) * (1.0 + 0.1 * np.cos(np.log(np.maximum(r, 1e-10))))
        series = run_decay(pert, 0.75, 0.0, T=1.0, n_cells=200, record_every=5)
        res = series.identity_residuals()
        assert np.max(res) < 0.02
        assert np.all(series.F <= series.F[0] * np.exp(-4.0 * series.t) * 1.01)
        drift = np.max(np.abs(series.mass - series.mass[0])) / series.mass[0]
        assert drift < 1e-10

    def test_last_row_is_free_energy_of_final_state(self, stat):
        series = run_decay(_coslog(stat, 0.1), 0.75, 0.0, T=0.05, n_cells=60)
        assert series.F[-1] == free_energy(series.final, series.stationary)

    def test_energy_reference_follows_each_run(self):
        # two runs on meshes of the same size, at masses whose stationary
        # profiles differ; each last F must be the free energy of its own
        # final state, written out here with nothing sampled beforehand
        runs = []
        for mass in (50.0, 5.0):
            datum = _coslog(stationary_profile(0.75, 0.0, 3, mass), 0.1)
            runs.append(run_decay(datum, 0.75, 0.0, T=0.05, n_cells=60))
        assert runs[0].stationary.b != runs[1].stationary.b
        for series in runs:
            mesh, v, m = series.final.mesh, series.final.density, 0.75
            B = series.stationary(mesh.radii)
            direct = mesh.area / (m - 1.0) * np.sum(
                (v**m - B**m - m * B ** (m - 1.0) * (v - B)) * mesh.vol_w)
            assert series.F[-1] == pytest.approx(direct, rel=1e-13, abs=0.0)
            assert series.F[-1] == free_energy(series.final, series.stationary)

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

    def test_free_energy_at_roundoff_sets_no_step(self, monkeypatch):
        # a bump out at s = 2^0.05, where the stationary state holds next to
        # nothing: F(0) = 2e-57 and I(0) = 2e-28 are roundoff at mass 61, and
        # steps of 0.02 F/I = 2e-31 would need over 1e30 steps to T; below
        # _F_ROUNDOFF of the mass the rule takes no F/I step, and the run
        # ends well inside a budget of 1000 steps
        monkeypatch.setattr(flow_module, "_MAX_STEPS", 1000)
        gamma, m = 1.9, 0.99545  # m at 90% of its range
        B = stationary_profile(m, gamma, 3, 50.0)
        series = run_decay(lambda r: B(r) * (1.0 + 5.0 * np.exp(-(r - 2.0) ** 2 / 0.1)),
                           m, gamma, T=0.5, n_cells=100, r_out=15.0)
        assert series.t[-1] == 0.5
        assert np.all(np.abs(series.F) <= flow_module._F_ROUNDOFF * series.mass[0])
        with pytest.raises(DecayWindowTooShort):
            fit_decay_rate(series)

    def test_fit_reads_no_row_at_roundoff(self, stat):
        # F(0) is 1e-10 of the mass, so the lower part of the fit window lies
        # under the roundoff floor, where F is noise; the fit reads the rows
        # above it only, which decay at rate 5 exactly
        t = np.linspace(0.0, 2.0, 201)
        floor = flow_module._F_ROUNDOFF * 50.0
        F = 1e-10 * 50.0 * np.exp(-5.0 * t)
        F = np.where(F > floor, F, floor * (0.5 + 0.4 * np.sin(37.0 * t)))
        series = flow_module.DecaySeries(t, F, 5.0 * F, np.full(t.size, 50.0),
                                         np.zeros(t.size), stat, None)
        assert fit_decay_rate(series) == pytest.approx(5.0, rel=1e-10)

    def test_short_window_is_a_named_error(self, stat):
        # a run too short for F to fall below F(0)/10 leaves the fit window
        # empty, which ckn flow reports as a fitted_rate of null
        pert = lambda r: stat(r) * (1.0 + 0.05 * np.cos(np.log(np.maximum(r, 1e-10))))
        series = run_decay(pert, 0.75, 0.0, T=0.05, n_cells=100)
        with pytest.raises(DecayWindowTooShort, match="0 rows"):
            fit_decay_rate(series)


class TestMesh:
    # at (d, gamma) = (3, 0.5) the flat variable is s = r^0.75 and the real
    # dimension d_gamma = 2 (3 - 0.5)/(2 - 0.5) = 10/3
    ALPHA, D_GAMMA = 0.75, 10.0 / 3.0

    def test_mesh_and_state_compare_by_identity(self, stat):
        # their array fields have no truth value: == is identity, and
        # comparing two meshes or states of equal values does not raise
        mesh, twin = FlowMesh.graded(3, 0.0, 50), FlowMesh.graded(3, 0.0, 50)
        assert mesh == mesh and mesh != twin
        state, other = (make_state(stat, 0.75, 0.0, 3, n_cells=50)
                        for _ in range(2))
        assert state == state and state != other

    def test_graded_mesh_structure(self):
        # edges uniform in z = log(1 + s^2/C) from s = 0 to s_out = r_out^alpha
        C = 0.3
        mesh = FlowMesh.graded(3, 0.5, n_cells=100, r_out=20.0, C=C)
        s_out = 20.0 ** self.ALPHA
        assert mesh.edges[0] == 0.0
        assert mesh.edges[-1] == pytest.approx(s_out, rel=1e-14)
        assert np.all(np.diff(mesh.edges) > 0)
        z = np.log1p(mesh.edges ** 2 / C)
        np.testing.assert_allclose(z, np.linspace(0.0, np.log1p(s_out**2 / C), 101),
                                   rtol=1e-13, atol=0.0)
        # so the steps in s^2 grow by e^dz per cell: nearly uniform inside
        # sqrt(C), and beyond it the cells widen geometrically, by e^(dz/2)
        dz = z[1]
        tail = mesh.edges[-10:]
        assert np.allclose(tail[1:] / tail[:-1], math.exp(0.5 * dz), rtol=1e-3)
        assert np.allclose(mesh.radii, mesh.centers ** (1.0 / self.ALPHA),
                           rtol=1e-14)
        # exact weighted volumes: the cell integrals of s^(d_gamma-1)
        vol = [quad(lambda s: s ** (self.D_GAMMA - 1.0), a, b,
                    epsabs=0.0, epsrel=1e-13)[0]
               for a, b in zip(mesh.edges[:-1], mesh.edges[1:])]
        assert np.allclose(mesh.vol_w, vol, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kwargs", [{"n_cells": 0}, {"n_cells": 1},
                                        {"n_cells": -3}, {"r_out": 0.0},
                                        {"r_out": -1.0}, {"r_out": math.inf},
                                        {"r_out": math.nan}])
    def test_graded_mesh_rejects_bad_input(self, kwargs):
        # a mesh needs two cells for a face, and an outer radius in (0, inf)
        with pytest.raises(ParameterError):
            FlowMesh.graded(3, 0.0, **({"n_cells": 100, "r_out": 20.0} | kwargs))

    # up to d_gamma = 155.8 at (3, 1.987), where m must exceed 0.9936
    @pytest.mark.parametrize("gamma, m", [
        *GAMMA_M, pytest.param(1.987, 0.997, id="gamma1.987")])
    def test_mesh_spreads_the_stationary_mass(self, gamma, m):
        # the mesh follows sqrt(C), where the stationary state holds its
        # mass: no cell of 200 holds a tenth of it, up to (3, 1.987, 0.997),
        # where a uniform core on s in [0, 1] put 30% in one cell
        stat = stationary_profile(m, gamma, 3, 50.0)
        state = make_state(stat, m, gamma, 3, n_cells=200)
        share = state.mesh.area * state.mesh.vol_w * state.density / state.mass
        assert share.max() < 0.1

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
        mesh = FlowMesh.graded(3, 0.0, n_cells=2, r_out=20.0)
        assert mesh.centers.size == 2
        assert np.all(np.diff(mesh.edges) > 0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan],
                             ids=["negative", "zero", "nan"])
    def test_negative_density_rejected(self, bad):
        # one cell not > 0 among positive ones: negative, empty or NaN
        mesh = FlowMesh.graded(3, 0.0, n_cells=10, r_out=5.0)
        from cknlab.flow import FlowState
        density = np.ones(10)
        density[3] = bad
        with pytest.raises(NegativeDensity):
            FlowState(time=0.0, mesh=mesh, density=density, m=0.75)
