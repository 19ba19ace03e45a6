import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cknlab import shooting
from cknlab.errors import (BracketNotFound, ClassificationAmbiguous, CknError,
                           ParameterError)
from cknlab.params import derive, to_flat_variables, validate
from cknlab.profiles import w_gamma_star
from cknlab.shooting import Classification, find_ground_state, integrate_ode

# an underflowing radius map, or 0 ** negative, fails the suite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def closed_form_peak(d, gamma, p):
    eta = derive(validate(d, gamma, p)).eta
    return (p * (2.0 - gamma) / eta) ** (1.0 / (p - 1.0))


def energy(v, dv, p):
    return 0.5 * dv**2 + v ** (2 * p) / (2 * p) - v ** (p + 1) / (p + 1)


def _rhs(d_gamma, p):
    """Right-hand side of the shooting equation in v and s, with the odd
    extension of the reaction term below v = 0."""
    def rhs(s, y):
        v, dv = y
        av = abs(v)
        sign = 1.0 if v >= 0 else -1.0
        return (dv, -(d_gamma - 1.0) / s * dv + sign * (av**p - av ** (2 * p - 1)))
    return rhs


def launch(d_gamma, p, v0, s0=1e-6):
    """Taylor start (s0, (v, v')) of a shot at the module's launch radius."""
    curv = (v0**p - v0 ** (2 * p - 1)) / (2 * d_gamma)
    return s0, (v0 + curv * s0**2, 2 * curv * s0)


def reference_class(d_gamma, p, v0, stop_on_decay=False):
    """Class of a shot by solve_ivp's event detection.

    The events, their order and the E(v0) <= 0 shortcut are the module's,
    in v and s in place of the module's unit-peak variables; solve_ivp also
    detects an event only by a sign change between step ends.
    """
    if v0 ** (p - 1.0) <= 2.0 * p / (p + 1.0):
        return Classification.DIVERGES_TO_PLATEAU

    def crossed(s, y):
        return y[0]

    def negative_energy(s, y):
        return energy(abs(y[0]), y[1], p)

    def decayed(s, y):
        return y[0] - shooting._DECAY_FLOOR

    events = [(crossed, Classification.CROSSES_ZERO),
              (negative_energy, Classification.DIVERGES_TO_PLATEAU)]
    if stop_on_decay:
        events.insert(0, (decayed, Classification.GROUND_STATE))
    for event, _ in events:
        event.terminal = True
        event.direction = -1.0
    s0, y0 = launch(d_gamma, p, v0)
    sol = solve_ivp(_rhs(d_gamma, p), (s0, 2e3), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, events=[e for e, _ in events])
    assert sol.success, sol.message
    # solve_ivp records only the first terminal event it meets
    return next((c for (_, c), t in zip(events, sol.t_events) if t.size),
                Classification.GROUND_STATE)


class TestFlatVariables:
    def test_identity_at_gamma_zero(self):
        d_gamma, log_c_map = to_flat_variables(validate(3, 0.0, 2.0))
        assert d_gamma == 3.0 and log_c_map == 0.0

    def test_hand_values(self):
        # c_map = (1/2)^2 = 1/4 at gamma = 1
        d_gamma, log_c_map = to_flat_variables(validate(3, 1.0, 1.5))
        assert d_gamma == pytest.approx(4.0, rel=1e-15)
        assert log_c_map == pytest.approx(np.log(0.25), rel=1e-15)

    def test_round_trip(self):
        # where c_map is representable, the log form is the direct map
        pp = validate(4, 0.7, 1.4)
        _, log_c_map = to_flat_variables(pp)
        expo = 2.0 / (2.0 - pp.gamma)
        c_map = ((2.0 - pp.gamma) / 2.0) ** expo
        s = np.geomspace(1e-3, 1e3, 50)
        r = np.exp(log_c_map + expo * np.log(s))
        assert np.allclose(r, c_map * s**expo, rtol=1e-13, atol=0.0)
        s_back = (r / c_map) ** (1.0 / expo)
        assert np.allclose(s_back, s, rtol=1e-13)

    def test_finite_near_gamma_two(self):
        # c_map = 0.005^200 = 1e-460 underflows to 0.0; its log does not
        _, log_c_map = to_flat_variables(validate(3, 1.99, 1.001))
        assert np.isfinite(log_c_map)
        assert log_c_map == pytest.approx(200.0 * np.log(0.005), rel=1e-12)


class TestIntegrateOde:
    def test_exact_peak_is_ground_state(self):
        # the transformed explicit profile solves the flat equation, so
        # launching at its peak value must track it
        pp = validate(3, 0.0, 2.0)
        ex = derive(pp)
        d_gamma, _ = to_flat_variables(pp)
        res = integrate_ode(d_gamma, pp.p, 4.0)
        assert res.classification is Classification.GROUND_STATE
        s = res.profile.radii
        exact = (ex.a_gamma / (ex.b_gamma + ((2.0 - pp.gamma) / 2.0) ** 2 * s**2)) \
            ** (1.0 / (pp.p - 1.0))
        assert np.max(np.abs(res.profile.values - exact)) < 1e-6

    def test_overshoot_fixture(self):
        # recorded fixture: v0 = 8 at (3, 0, 2) crosses zero
        d_gamma, _ = to_flat_variables(validate(3, 0.0, 2.0))
        res = integrate_ode(d_gamma, 2.0, 8.0)
        assert res.classification is Classification.CROSSES_ZERO
        assert res.classification is not Classification.GROUND_STATE

    def test_near_one_fixture(self):
        # recorded fixture: v0 = 1.01 relaxes onto the plateau
        d_gamma, _ = to_flat_variables(validate(3, 0.0, 2.0))
        res = integrate_ode(d_gamma, 2.0, 1.01)
        assert res.classification is Classification.DIVERGES_TO_PLATEAU

    def test_below_one_classified_without_integration(self):
        d_gamma, _ = to_flat_variables(validate(3, 0.0, 2.0))
        res = integrate_ode(d_gamma, 2.0, 0.5)
        assert res.classification is Classification.DIVERGES_TO_PLATEAU
        assert res.profile is None

    def test_classify_only_shot_has_no_profile(self):
        d_gamma, _ = to_flat_variables(validate(3, 0.0, 2.0))
        for v0, want in [(8.0, Classification.CROSSES_ZERO),
                         (2.0, Classification.DIVERGES_TO_PLATEAU)]:
            res = integrate_ode(d_gamma, 2.0, v0)
            assert res.classification is want

    def test_nonpositive_energy_start_classified_without_integration(self):
        # E(v0) = v0^(2p)/(2p) - v0^(p+1)/(p+1) <= 0 up to v0 = (2p/(p+1))^(1/(p-1))
        p = 2.0
        v_star = (2.0 * p / (p + 1.0)) ** (1.0 / (p - 1.0))
        assert energy(v_star, 0.0, p) == pytest.approx(0.0, abs=1e-15)
        res = integrate_ode(3.0, p, v_star * (1.0 - 1e-12))
        assert res.classification is Classification.DIVERGES_TO_PLATEAU
        assert res.profile is None

    def test_classify_only_and_sampled_shots_agree(self):
        # shots run on the compiled integrator; the reference is solve_ivp's
        # event detection, which must class every start near the separatrix
        # alike
        for d, gamma, p in [(3, 0.5, 2.0), (4, 0.25, 1.5), (3, 1.5, 1.49)]:
            d_gamma, _ = to_flat_variables(validate(d, gamma, p))
            peak = closed_form_peak(d, gamma, p)
            for rel in np.geomspace(1e-3, 1e-10, 8):
                for v0 in (peak * (1.0 + rel), peak * (1.0 - rel)):
                    got = integrate_ode(d_gamma, p, v0).classification
                    assert got is reference_class(d_gamma, p, v0), \
                        (d, gamma, p, rel, v0)

    def test_paths_agree_with_decay_stop(self):
        # the decay floor outranks the other events here and in the reference
        d_gamma, _ = to_flat_variables(validate(3, 0.0, 2.0))
        for v0 in (1.01, 4.0 * (1.0 - 1e-6), 4.0, 4.0 * (1.0 + 1e-6), 8.0):
            got = integrate_ode(d_gamma, 2.0, v0, stop_on_decay=True)
            assert got.classification is reference_class(
                d_gamma, 2.0, v0, stop_on_decay=True), v0

    def test_profile_is_step_ends_above_floor(self):
        # the profile starts at the launch radius, and a shot stopped at the
        # decay floor keeps only the step ends above it
        d_gamma, _ = to_flat_variables(validate(3, 0.0, 2.0))
        res = integrate_ode(d_gamma, 2.0, 4.0, stop_on_decay=True)
        assert res.classification is Classification.GROUND_STATE
        s, v = res.profile.radii, res.profile.values
        assert s[0] == 1e-6 and 1e-5 < v[-1] < 1e-4
        assert 100 < s.size < 1000

    def test_integrator_failure_raises(self, monkeypatch):
        monkeypatch.setattr(shooting, "_MAX_STEPS", 5)
        with pytest.raises(ClassificationAmbiguous, match="nsteps"):
            integrate_ode(3.0, 2.0, 8.0)

    def test_rejects_nonpositive_start(self):
        for v0 in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match="initial value"):
                integrate_ode(3.0, 2.0, v0)

    def test_energy_monotone_along_trajectory(self):
        # 0.5 v'^2 - v^(p+1)/(p+1) + v^(2p)/(2p) dissipates through the
        # friction term
        d_gamma, p = 3.0, 2.0
        s0, y0 = launch(d_gamma, p, 3.0)
        sol = solve_ivp(_rhs(d_gamma, p), (s0, 50.0), y0,
                        method="DOP853", rtol=1e-10, atol=1e-12,
                        t_eval=np.linspace(s0, 50.0, 400))
        v, dv = sol.y
        E = energy(v, dv, p)
        assert np.all(np.diff(E) <= 1e-10)

    def test_classes_agree_with_energy(self):
        # every decided shot of a bisection is re-integrated here, past the
        # point where the module stops it, with this file's energy: a
        # plateau-bound one reaches E < 0 while v > 0, a crossing one reaches
        # v = 0 while E >= 0
        pp = validate(3, 0.5, 2.0)
        d_gamma, _ = to_flat_variables(pp)
        p = pp.p
        res = find_ground_state(pp, tol=1e-4)
        decided = [(v0, c) for v0, c in res.bisection_history
                   if c is not Classification.GROUND_STATE]
        assert {c for _, c in decided} == {Classification.CROSSES_ZERO,
                                           Classification.DIVERGES_TO_PLATEAU}

        def past_zero(s, y):
            return y[0] + 0.5
        past_zero.terminal = True

        def well_below_zero_energy(s, y):
            return energy(abs(y[0]), y[1], p) + 1e-3
        well_below_zero_energy.terminal = True

        for v0, c in decided:
            s0, y0 = launch(d_gamma, p, v0)
            sol = solve_ivp(_rhs(d_gamma, p), (s0, 2e3), y0, method="DOP853",
                            rtol=1e-12, atol=1e-14,
                            events=(past_zero, well_below_zero_energy))
            v, dv = sol.y
            E = energy(np.abs(v), dv, p)
            first_cross = np.argmax(v <= 0) if np.any(v <= 0) else None
            first_negative = np.argmax(E < 0) if np.any(E < 0) else None
            if c is Classification.CROSSES_ZERO:
                assert first_cross is not None, v0
                assert np.all(E[:first_cross] >= 0), v0
            else:
                assert first_negative is not None, v0
                assert np.all(v[:first_negative + 1] > 0), v0


class TestFindGroundState:
    @pytest.mark.parametrize("d,gamma,p,tol", [
        (3, 0.0, 2.0, 1e-6),
        (3, 0.5, 2.0, 1e-6),
        (4, 0.25, 1.5, 1e-4),
        (3, 0.0, 2.0, 1e-8),
        (3, 0.5, 2.0, 1e-8),
        (4, 0.25, 1.5, 1e-8),
        (3, 1.5, 1.49, 1e-8),
        (3, 1.9, 1.05, 1e-8),
        # the corners of the benchmark's shoot box
        (3, 0.2, 1.95, 1e-8),
        (3, 0.2, 2.05, 1e-8),
        (3, 0.3, 1.95, 1e-8),
        (3, 0.3, 2.05, 1e-8),
        # the peak 2.6e25, at lam = v0^(p-1) = 1.34
        (3, 1.98, 1.005, 1e-8),
    ])
    def test_recovers_closed_form_peak(self, d, gamma, p, tol):
        expected = closed_form_peak(d, gamma, p)
        res = find_ground_state(validate(d, gamma, p), tol=tol)
        assert res.classification is Classification.GROUND_STATE
        assert abs(res.v0 - expected) < tol * expected
        lo, hi = res.bracket
        assert lo < res.v0 < hi and (hi - lo) / hi <= tol
        assert lo <= expected <= hi
        if p < 1.01:
            # lam is bisected, not v0: a search in v0 took 105 shots here
            assert len(res.bisection_history) <= 60

    def test_undecided_span_wider_than_tol_raises(self, monkeypatch):
        # at (3, 0, 2.5) the starts that reach s_max = 2e3 undecided span more
        # than 1e-8 but less than 1e-6 relative; with the cap at the first
        # range, the range cannot grow
        monkeypatch.setattr(shooting, "_S_MAX_CAP", shooting._S_MAX)
        pp = validate(3, 0.0, 2.5)
        with pytest.raises(ClassificationAmbiguous, match="s_max=2000") as exc:
            find_ground_state(pp, tol=1e-8)
        assert "increase" not in str(exc.value)
        res = find_ground_state(pp, tol=1e-6)
        expected = closed_form_peak(3, 0.0, 2.5)
        assert abs(res.v0 - expected) <= 1e-6 * expected
        assert res.s_max == shooting._S_MAX

    @pytest.mark.parametrize("p", [2.5, 2.8, 2.9, 2.96, 2.99])
    def test_near_p_max_solves(self, p):
        # the separatrix decays like s^(-2/(p-1)), ever slower as p nears
        # p_max = 3, so the undecided starts need a longer range
        expected = closed_form_peak(3, 0.0, p)
        res = find_ground_state(validate(3, 0.0, p), tol=1e-8)
        assert abs(res.v0 - expected) < 1e-8 * expected
        lo, hi = res.bracket
        assert lo <= expected <= hi
        assert res.s_max > shooting._S_MAX

    def test_start_beyond_float_range_raises(self, monkeypatch):
        # a start whose peak passes the end, here moved down to 3 at
        # (3, 0, 2), is shot at the end; plateau-bound there, the search stops
        monkeypatch.setattr(shooting, "_LOG_V0_END", np.log(3.0))
        with pytest.raises(BracketNotFound, match=r"exp\(1\.1\)"):
            find_ground_state(validate(3, 0.0, 2.0))

    def test_start_moved_to_float_range_end(self, monkeypatch):
        # with the end at 5, the doubling's start 8 is shot at 5; it crosses
        # zero, and the ground state 4 is bracketed below the end
        monkeypatch.setattr(shooting, "_LOG_V0_END", np.log(5.0))
        res = find_ground_state(validate(3, 0.0, 2.0), tol=1e-8)
        starts = [v0 for v0, _ in res.bisection_history]
        assert starts[:3] == pytest.approx([2.0, 4.0, 5.0], rel=1e-15)
        assert abs(res.v0 - 4.0) < 1e-8 * 4.0
        lo, hi = res.bracket
        assert lo <= 4.0 <= hi < 5.0

    def test_final_shot_past_lam_resolution(self, monkeypatch):
        # where no final start between two adjacent floats of lam reaches the
        # decay floor, as at (3, 1.995, 1.0005), the crossing end's shot, which
        # passes it, gives the profile; here every final start strictly
        # inside the bracket is made plateau-bound
        real, crossing = shooting.integrate_ode, set()

        def fake(d_gamma, p, v0, s_max, stop_on_decay=False):
            res = real(d_gamma, p, v0, s_max=s_max, stop_on_decay=stop_on_decay)
            if res.classification is Classification.CROSSES_ZERO:
                crossing.add(v0)
            elif stop_on_decay and v0 not in crossing:
                return shooting.ShootingResult(
                    v0, Classification.DIVERGES_TO_PLATEAU, None)
            return res

        monkeypatch.setattr(shooting, "integrate_ode", fake)
        res = find_ground_state(validate(4, 0.25, 1.5), tol=1e-8)
        lo, hi = res.bracket
        v0, cls = res.bisection_history[-1]
        assert v0 == hi and cls is Classification.GROUND_STATE
        # lam = v0^(1/2) is bisected down to adjacent floats
        assert 0.0 < (hi - lo) / hi < 1e-15
        expected = closed_form_peak(4, 0.25, 1.5)
        assert abs(res.v0 - expected) < 1e-8 * expected
        assert res.profile.radii.size > 100

    def test_peak_past_float_range_raises(self):
        # at (3, 1.999, 1.0002) the peak is exp(1116.7): the search raises a
        # named error, never a v0
        with pytest.raises(CknError):
            find_ground_state(validate(3, 1.999, 1.0002))

    def test_s_max_argument_removed(self):
        with pytest.raises(TypeError):
            find_ground_state(validate(3, 0.0, 2.0), s_max=2e3)

    def test_mapped_back_profile_matches_optimizer(self):
        pp = validate(3, 0.5, 2.0)
        res = find_ground_state(pp, tol=1e-8)
        prof = res.profile
        wg = w_gamma_star(pp)
        assert np.max(np.abs(prof.values - wg(prof.radii))) < 1e-6

    def test_map_back_near_gamma_two(self):
        # r = c_map s^(2/(2-gamma)) with exponent 57 leaves the float range
        # near the launch radius; the map runs in log form and drops those
        # radii, where v = v0 to roundoff
        pp = validate(3, 1.965, 1.01)
        expected = closed_form_peak(3, 1.965, 1.01)
        res = find_ground_state(pp, tol=1e-8)
        assert abs(res.v0 - expected) < 1e-8 * expected
        lo, hi = res.bracket
        assert lo <= expected <= hi
        prof = res.profile
        assert prof.radii[0] > 0 and np.all(np.isfinite(prof.derivs))
        dev = np.max(np.abs(prof.values - w_gamma_star(pp)(prof.radii)))
        assert dev < 1e-9 * expected

    def test_transform_consistency(self):
        # the s-profile mapped back to r through log_c_map, with slopes
        # dw/dr = v' s/(expo r) in log form, lands on the closed-form
        # optimizer: values relative to the peak value, slopes relative to
        # the peak slope
        for d, gamma, p in [(3, 0.5, 2.0), (3, 0.0, 2.0), (4, 0.25, 1.5),
                            (3, 1.5, 1.49)]:
            pp = validate(d, gamma, p)
            prof = find_ground_state(pp, tol=1e-8).profile
            w = w_gamma_star(pp)
            value, slope = w(prof.radii), w.deriv(prof.radii)
            assert np.max(np.abs(prof.values - value)) <= 1e-8 * np.max(value)
            assert np.max(np.abs(prof.derivs - slope)) \
                <= 1e-8 * np.max(np.abs(slope))

    def test_uniqueness_probe(self):
        # one classification change along a logarithmic scan of v0
        pp = validate(3, 0.0, 2.0)
        d_gamma, _ = to_flat_variables(pp)
        classes = [integrate_ode(d_gamma, pp.p, float(v0)).classification
                   for v0 in np.geomspace(1.0001, 40.0, 25)]
        flips = sum(1 for a, b in zip(classes, classes[1:]) if a is not b)
        assert flips == 1

    def test_history_recorded(self):
        res = find_ground_state(validate(3, 0.0, 2.0), tol=1e-4)
        assert len(res.bisection_history) > 10
        kinds = {c for _, c in res.bisection_history}
        assert Classification.CROSSES_ZERO in kinds
