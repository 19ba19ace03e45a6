"""Ground-state computation for the radial optimality equation by shooting.

Through s = (r / c_map)^((2 - gamma)/2), in the dimension d_gamma =
2 (d - gamma)/(2 - gamma), the radial unit-multiplier equation reads
-v'' - (d_gamma - 1)/s v' + v^p = v^(2p-1), v'(0) = 0.  Driven by the double
well U(v) = v^(2p)/(2p) - v^(p+1)/(p+1), trajectories cross zero (peak v0 too
large), get trapped by the stable plateau v = 1 (too small), or ride the
separatrix down to zero, which is the unique ground state.

As p nears 1 the peak leaves every fixed scale (e^58.5 at (3, 1.98, 1.005)),
while lam = v0^(p-1) stays between about 1 and 600.  So every shot runs on
the unit-peak equation of u = v/v0 in sigma = s sqrt(lam),

    u'' = -(d_gamma - 1)/sigma u' + u^p - lam u^(2p-1),   u(0) = 1,

on scipy's compiled DOP853 (``scipy.integrate.ode``), and a bracketed search
on lam recovers the ground state.  Near it, a shot leaves the separatrix at
a radius sigma_event with sigma_event^-mu linear in |lam - lam*|, mu the
unstable exponent of the saddle the separatrix tends to; a secant on that
law places each start, and ITP's bound keeps the count near bisection's.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import ode
from scipy.optimize import brentq

from .errors import BracketNotFound, ClassificationAmbiguous, ParameterError
from .params import ProblemParams, radii_from_flat, to_flat_variables
from .profiles import RadialProfile

__all__ = [
    "Classification",
    "ShootingResult",
    "integrate_ode",
    "find_ground_state",
]

_TAYLOR_LAUNCH = 1e-6
_DECAY_FLOOR = 1e-5
_PROFILE_WIDTH = 1e-10
# first shot range of find_ground_state, grown tenfold while undecided starts
# span more than tol; past 1/eps in s a unit step no longer moves s
_S_MAX = 2e3
_S_MAX_CAP = 1.0 / np.finfo(float).eps
# step budget of a shot, far above the 2261 steps of the longest shot seen,
# at (3, 1.98, 1.005)
_MAX_STEPS = 1_000_000
# largest log v0 of a start, where the plateau u = 1/v0 is still a normal float
_LOG_V0_END = -math.log(np.finfo(float).tiny)
# a start from the departure law lies past its estimate of lam*, toward the
# far end of the bracket, by _PUSH of the estimate's distance from the near
# end, _PUSH_GROWTH times more for each model start in a row whose shot
# stayed on the near side, and by at least _PUSH_FLOOR of the target width
# in lam: just under half, so that the two shots that straddle lam* last
# leave a bracket within the target
_PUSH = 0.05
_PUSH_GROWTH = 3.0
_PUSH_FLOOR = 0.45


class Classification(str, Enum):
    CROSSES_ZERO = "CrossesZero"
    DIVERGES_TO_PLATEAU = "DivergesToPlateau"
    GROUND_STATE = "GroundState"


@dataclass
class ShootingResult:
    v0: float
    classification: Classification
    profile: RadialProfile | None
    bisection_history: list = field(default_factory=list)
    bracket: tuple[float, float] | None = None
    s_max: float | None = None
    # radius sigma, in the unit-peak variable, of the shot's terminal event
    sigma_event: float | None = None
    # starts of find_ground_state placed by the departure law and at a midpoint
    model_picks: int = 0
    midpoint_picks: int = 0


def integrate_ode(d_gamma: float, p: float, v0: float, s_max: float = _S_MAX,
                  stop_on_decay: bool = False) -> ShootingResult:
    """Integrate one shooting trajectory, in u and sigma, and classify it exactly.

    The energy E_u = u'^2/2 + lam u^(2p)/(2p) - u^(p+1)/(p+1) = E/v0^(p+1)
    falls along the trajectory, and E_u >= 0 wherever u = 0.  So one that
    reaches u = 0 crosses zero, and one whose energy drops below 0 is
    plateau-bound; both are terminal events, tested at each accepted step
    end, and where one step passes several, the first in the order decay
    floor, zero crossing, negative energy decides.  A start with
    lam <= 2p/(p+1), where E_u <= 0, is plateau-bound without integration,
    and its ``profile`` is None.  A trajectory that meets neither event
    before ``s_max`` is classed as a ground state.  With ``stop_on_decay``
    the run also stops once v drops to the decay floor, as the final shot
    of :func:`find_ground_state` does.  The step ends with v > 0 (above the
    floor, with ``stop_on_decay``) are the ``profile``, in s and v.  The
    terminal event's radius in sigma, the zero of its event function between
    the last two step ends, is ``sigma_event``; it is None for a shot that
    met no event or was not integrated.
    """
    if not 0.0 < v0 < math.inf:
        raise ParameterError(f"initial value must lie in (0, inf), got v0={v0}")
    lam = v0 ** (p - 1.0)
    if lam <= 2.0 * p / (p + 1.0):
        return ShootingResult(v0, Classification.DIVERGES_TO_PLATEAU, None)

    root = math.sqrt(lam)
    s0 = _TAYLOR_LAUNCH * root
    curv = (1.0 - lam) / (2.0 * d_gamma)
    y0 = (1.0 + curv * s0**2, 2.0 * curv * s0)
    floor, friction, power = _DECAY_FLOOR / v0, 1.0 - d_gamma, 2.0 * p - 1.0

    def rhs(s, y):
        # odd extension of the reaction term keeps fractional powers finite
        # while the crossing event is being located just below u = 0
        u, du = y
        au = abs(u)
        sign = 1.0 if u >= 0 else -1.0
        return (du, friction / s * du + sign * (au**p - lam * au**power))

    def energy(s, y):
        # E/v^2 in r = v'/v and q = v^(p-1), of E_u's sign while u > 0, as
        # the crossing event tested first ensures: no power of v0 is formed
        r, q = root * y[1] / y[0], lam * y[0] ** (p - 1.0)
        return 0.5 * r * r + q * (q / (2.0 * p) - 1.0 / (p + 1.0))

    # terminal events and their classes, in the order a falling trajectory
    # meets them; a shot that meets none before s_max is a ground state
    events = [(lambda s, y: y[0], Classification.CROSSES_ZERO),
              (energy, Classification.DIVERGES_TO_PLATEAU)]
    if stop_on_decay:
        events.insert(0, (lambda s, y: y[0] - floor, Classification.GROUND_STATE))
    # the absolute tolerance is 1e-14 of the plateau u = 1/v0, 1e-14 in v, to
    # within a factor sqrt(2): one integrator serves each power of two
    atol = math.ldexp(1e-14, -round(math.log2(v0)))
    cls, steps, sigma_event = _compiled_shot(_MAX_STEPS, atol).shoot(
        rhs, s0, y0, s_max * root, events)
    # the step end past the decay floor only detects it; the profile ends above
    sigma, u, du = steps[steps[:, 1] > (floor if stop_on_decay else 0.0)].T
    profile = RadialProfile(
        radii=sigma / root, values=v0 * u, derivs=v0 * (root * du),
        meta={"variable": "s", "derivatives": "integrator"},
    ) if sigma.size >= 2 else None
    return ShootingResult(v0, cls, profile, sigma_event=sigma_event)


def _departure_exponent(d_gamma: float, p: float) -> float:
    """Unstable exponent mu of the saddle the separatrix tends to.

    In w = sigma^a u, a = 2/(p-1), and t = log sigma the tail equation is
    autonomous, and the separatrix tends to its fixed point
    w*^(p-1) = a (a + 2 - d_gamma), a saddle whose exponents solve
    mu^2 + (d_gamma - 2 - 2a) mu - (p-1) a (a + 2 - d_gamma) = 0.  Since
    a > d_gamma - 2 on the admissible range, one root is positive, and a shot
    started dlam off the ground state leaves it where sigma^-mu ~ |dlam|.
    """
    a = 2.0 / (p - 1.0)
    b = d_gamma - 2.0 - 2.0 * a  # < 0 where a > d_gamma - 2
    return 0.5 * (math.sqrt(b * b + 4.0 * (p - 1.0) * a * (a + 2.0 - d_gamma)) - b)


class _CompiledShot:
    """Compiled DOP853 that tests the events and keeps (s, y) at step ends.

    scipy's compiled dop853 keeps a reference to the callbacks of every run,
    so one integrator and its two callbacks serve every shot of a tolerance;
    a shot only sets the right-hand side and the events they read.  Like
    dop853 itself, this is not re-entrant.
    """

    def __init__(self, max_steps: int, atol: float):
        self.solver = ode(self._rhs).set_integrator(
            "dop853", rtol=1e-12, atol=atol, nsteps=max_steps)
        self.solver.set_solout(self._solout)

    def _rhs(self, s, y):
        # on Python floats, about 3x cheaper a call than on numpy scalars
        return self.rhs(s, y.tolist())

    def _solout(self, s, y):
        y = y.tolist()
        self.steps.append((s, *y))
        for event, cls in self.events:
            if event(s, y) <= 0:
                self.hit = event, cls
                return -1
        return 0

    def shoot(self, rhs, s0, y0, s_max, events
              ) -> tuple[Classification, np.ndarray, float | None]:
        """Class of one shot, its step ends, one (s, y, y') row each, and the
        radius of its terminal event, None if it met none."""
        self.rhs, self.events = rhs, events
        self.hit = None
        self.steps = []
        self.solver.set_initial_value(y0, s0)
        with warnings.catch_warnings():
            # scipy reports a negative return code only by this warning
            warnings.filterwarnings("error", category=UserWarning,
                                    module="scipy.integrate")
            try:
                self.solver.integrate(s_max)
            except UserWarning as exc:
                raise ClassificationAmbiguous(
                    f"integrator failed: {exc}") from None
        if self.hit is None:
            return Classification.GROUND_STATE, np.array(self.steps), None
        event, cls = self.hit
        return cls, np.array(self.steps), _event_radius(
            rhs, event, *self.steps[-2:])


def _event_radius(rhs, event, start, end) -> float:
    """Zero of ``event`` between two step ends (s, y, y'), on the quintic
    Hermite interpolant of y through y, y' and y'' = rhs at both ends.

    A straight line through the two event values misplaces the zero by up to
    about 1% of the radius on DOP853's steps; this interpolant agrees with
    solve_ivp's located events to about 1e-8.
    """
    s0, y0, d0 = start
    s1, y1, d1 = end
    h = s1 - s0
    # Taylor terms at s0 plus t^3 (a + b t + c t^2), t = (s - s0)/h, matching
    # y, h y' and h^2 y'' at s1
    dy0, dy1 = h * d0, h * d1
    cy0, cy1 = h * h * rhs(s0, (y0, d0))[1], h * h * rhs(s1, (y1, d1))[1]
    r0 = y1 - y0 - dy0 - 0.5 * cy0
    r1, r2 = dy1 - dy0 - cy0, cy1 - cy0
    a = 10.0 * r0 - 4.0 * r1 + 0.5 * r2
    b = 7.0 * r1 - 15.0 * r0 - r2
    c = 6.0 * r0 - 3.0 * r1 + 0.5 * r2

    def along(t):
        y = y0 + t * (dy0 + t * (0.5 * cy0 + t * (a + t * (b + t * c))))
        dy = dy0 + t * (cy0 + t * (3.0 * a + t * (4.0 * b + t * 5.0 * c)))
        return event(s0 + t * h, (y, dy / h))

    # the interpolant meets the step ends to roundoff, which may lift the
    # event value at the second one just above 0
    return s0 + h * brentq(along, 0.0, 1.0) if along(1.0) <= 0 else s1


@functools.lru_cache(maxsize=None)
def _compiled_shot(max_steps: int, atol: float) -> _CompiledShot:
    return _CompiledShot(max_steps, atol)


def find_ground_state(params: ProblemParams, tol: float = 1e-8) -> ShootingResult:
    """Search lam = v0^(p-1) for the separatrix between the two failure modes.

    The exact energy events of :func:`integrate_ode` certify the bracket
    [lo, hi] of lam: lo is 2p/(p+1) or a plateau-bound start, hi a crossing
    one, found by doubling lam from 2.  A start past the peak exp(_LOG_V0_END)
    is shot at that end; ``BracketNotFound`` is raised if it does not cross
    zero.

    Near lam* a decided shot leaves the separatrix at sigma_event, with
    sigma_event^-mu linear in |lam - lam*| and a different slope on each
    side; mu is the unstable exponent of the separatrix's saddle
    (:func:`_departure_exponent`).  So each next start is the zero of the
    secant through the two decided shots nearest the bracket on the side of
    the latest one (failing that, on the other side), pushed toward the far
    end so that its shot lands across lam*: by ``_PUSH`` of its distance from
    the near end, ``_PUSH_GROWTH`` times more for each model start in a row
    before it whose shot stayed on the near side, and by at least
    ``_PUSH_FLOOR`` of the target width in lam.  The start is then projected
    into ITP's interval around the midpoint (n0 = 1): while every shot is
    decided, the search takes at most one shot more than bisection would to
    narrow the bracket the doubling found to the target width at its lo.
    Where no secant gives a start inside the bracket, and once a shot
    has come back undecided or ``s_max`` has grown, the start is the
    midpoint; ``model_picks`` and ``midpoint_picks`` count the two kinds.

    Starts whose shots reach ``s_max`` undecided are placed on neither side,
    and the search halves the wider gap next to their span; while that (or
    an undecided end start) spans more than tol in v0, ``s_max`` grows
    tenfold up to ``_S_MAX_CAP``.  Once 1 - (lo/hi)^(1/(p-1)) <= tol, ``v0``
    is the bracket's midpoint in lam, and the bracket is returned in v0.  The
    final shot stops at the decay floor, from an undecided start if there is
    one, else from the midpoint of a bracket narrowed down to
    ``_PROFILE_WIDTH`` (or tol, if smaller) or to lam's float resolution.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must lie in (0, inf), got tol={tol}")
    d_gamma, log_c_map = to_flat_variables(params)
    p, k, s_max = params.p, 1.0 / (params.p - 1.0), _S_MAX
    mu = _departure_exponent(d_gamma, p)
    # the target width in lam of a search without undecided shots is `scale`
    # times its lo
    scale = -math.expm1((p - 1.0) * math.log1p(-min(tol, _PROFILE_WIDTH)))

    history: list[tuple[float, Classification]] = []
    lo, hi = 2.0 * p / (p + 1.0), math.inf
    # span of the starts whose shots reached s_max undecided, empty if u_lo > u_hi
    u_lo, u_hi = math.inf, -math.inf
    # the decided shots, (class, lam, log sigma_event) in the order shot
    departed: list[tuple[Classification, float, float]] = []

    def width(a: float, b: float) -> float:
        # relative width 1 - (a/b)^(1/(p-1)) in v0 of [a, b] in lam
        return -math.expm1(-math.log1p((b - a) / a) * k)

    def shoot(lam: float, final: bool) -> ShootingResult:
        nonlocal lo, hi, u_lo, u_hi
        res = integrate_ode(d_gamma, p, lam**k, s_max=s_max, stop_on_decay=final)
        history.append((res.v0, res.classification))
        if res.classification is Classification.CROSSES_ZERO:
            hi = lam
        elif res.classification is Classification.DIVERGES_TO_PLATEAU:
            lo = lam
        else:
            u_lo, u_hi = min(u_lo, lam), max(u_hi, lam)
            return res
        if res.sigma_event is not None:  # None for a start not integrated
            departed.append((res.classification, lam, math.log(res.sigma_event)))
        return res

    def model_start(budget: float,
                    misses: int) -> tuple[float, Classification] | None:
        # the start from the departure law and the side of the secant it
        # came from, or None; it lies in ITP's interval, so that its shot
        # leaves a bracket no wider than `budget`
        mid, reach = 0.5 * (lo + hi), budget - 0.5 * (hi - lo)
        crossing = Classification.CROSSES_ZERO
        plateau = Classification.DIVERGES_TO_PLATEAU
        # the side of the latest decided shot first
        latest_crossed = departed[-1][0] is crossing
        for side in (crossing, plateau) if latest_crossed else (plateau, crossing):
            shots = [(lam, log_s) for c, lam, log_s in departed if c is side][-2:]
            if len(shots) < 2:
                continue
            # zero of the line through (lam, +-sigma_event^-mu) of the side's
            # two latest shots, lam2 the near end, from the log of their ratio
            (lam1, log1), (lam2, log2) = shots
            ratio = mu * (log2 - log1)
            if not ratio > 0.0:
                continue
            zero = lam2 + (lam2 - lam1) * math.exp(-ratio) / -math.expm1(-ratio)
            push = max(_PUSH * _PUSH_GROWTH**misses * abs(zero - lam2),
                       _PUSH_FLOOR * scale * lo)
            start = zero + push if side is plateau else zero - push
            start = min(max(start, mid - reach), mid + reach)
            if lo < start < hi:
                return start, side
        return None

    lam, at_end = 2.0, False
    while hi == math.inf:
        at_end = at_end or math.log(lam) * k >= _LOG_V0_END
        lam = math.exp(_LOG_V0_END / k) if at_end else lam
        shoot(lam, final=False)
        if not at_end:
            lam *= 2.0
        elif hi == math.inf:
            if lo == lam or 10.0 * s_max > _S_MAX_CAP:
                raise BracketNotFound(
                    f"no zero-crossing start up to the peak v0 = "
                    f"exp({_LOG_V0_END:.1f}), past which 1/v0 is not a normal float")
            # an undecided end start is shot again on a longer range
            s_max, u_lo, u_hi = 10.0 * s_max, math.inf, -math.inf

    # ITP's bound with n0 = 1: the width a shot may leave halves with each
    # shot, from the target width times the least power of two that covers
    # the bracket
    target = scale * lo
    budget = math.ldexp(target, max(0, math.ceil(math.log2((hi - lo) / target))))
    # model starts in a row whose shot stayed on the side of their secant
    misses = model_picks = midpoint_picks = 0
    while True:
        undecided = u_lo <= u_hi
        if undecided and width(u_lo, u_hi) > tol:
            if 10.0 * s_max > _S_MAX_CAP:
                raise ClassificationAmbiguous(
                    f"starts in [{u_lo**k:.9g}, {u_hi**k:.9g}] reach "
                    f"s_max={s_max:g} with neither a zero crossing nor a "
                    f"negative energy, a span wider than tol={tol:g}")
            # [lo, hi] stays certified: only the undecided starts depend on
            # the range
            s_max *= 10.0
            u_lo, u_hi, undecided = math.inf, -math.inf, False
        gap = width(lo, hi)
        final = gap <= tol and (undecided or gap <= _PROFILE_WIDTH)
        a, b = lo, hi
        if undecided and not final:
            a, b = (lo, u_lo) if u_lo - lo >= hi - u_hi else (u_hi, hi)
        pick = None
        if not (final or undecided or s_max > _S_MAX):
            pick = model_start(budget, misses)
        if final and undecided:
            # an undecided start tracks the ground state up to s_max, and so
            # does its re-run, which stops at the decay floor
            start = u_lo
        elif pick is None:
            start, midpoint_picks = 0.5 * (a + b), midpoint_picks + 1
        else:
            start, model_picks = pick[0], model_picks + 1
        budget *= 0.5
        if final and not a < start < b:
            start = hi  # past lam's float resolution; it passes the floor too
        elif not a < start < b:
            raise ClassificationAmbiguous(
                f"bracket [{lo!r}, {hi!r}] of lam = v0^(p-1) cannot be split "
                f"further before the ground state is resolved to tol={tol:g}")
        best_ground = shoot(start, final)
        if pick is not None:
            misses = misses + 1 if best_ground.classification is pick[1] else 0
        if final and best_ground.classification is Classification.GROUND_STATE:
            break
    v0 = (0.5 * (lo + hi)) ** k

    sprof = best_ground.profile
    keep, radii, derivs = radii_from_flat(params, sprof.radii, sprof.derivs)
    profile = RadialProfile(
        radii=radii[keep], values=sprof.values[keep], derivs=derivs[keep],
        tail_exponent=(2.0 - params.gamma) / (p - 1.0),
        meta={"variable": "r", "v0": v0, "d_gamma": d_gamma,
              "log_c_map": log_c_map, "derivatives": "integrator"},
    )
    return ShootingResult(v0=v0, classification=Classification.GROUND_STATE,
                          profile=profile, bisection_history=history,
                          bracket=(lo**k, hi**k), s_max=s_max,
                          model_picks=model_picks, midpoint_picks=midpoint_picks)
