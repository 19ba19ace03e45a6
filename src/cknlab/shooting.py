"""Ground-state computation for the radial optimality equation by shooting.

The radial unit-multiplier equation is rewritten through s = (r / c_map)^
((2 - gamma)/2) in an effective dimension d_gamma = 2 (d - gamma)/(2 - gamma),
where it becomes

    -v'' - (d_gamma - 1)/s v' + v^p = v^(2p-1),   v'(0) = 0.

Trajectories fall into three classes driven by the double-well structure of
U(v) = v^(2p)/(2p) - v^(p+1)/(p+1): they either cross zero (initial value too
large), get trapped by the stable plateau at v = 1 (too small), or ride the
separatrix down to zero, which is the unique ground state.  Bisection on the
initial value recovers it.

Every shot runs on scipy's compiled DOP853 (``scipy.integrate.ode``), which
tests the class events at each accepted step end and keeps the step ends as
the sampled profile.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import ode

from .errors import BracketNotFound, ClassificationAmbiguous, ParameterError
from .params import ProblemParams, radii_from_flat, to_flat_variables
from .profiles import LOG_FLOAT_MAX as _LOG_FLOAT_MAX, RadialProfile

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


def _rhs(d_gamma: float, p: float):
    # odd extension of the reaction term keeps fractional powers finite while
    # the crossing event is being located just below v = 0
    def rhs(s, y):
        v, dv = y
        av = abs(v)
        sign = 1.0 if v >= 0 else -1.0
        reaction = sign * (av**p - av ** (2 * p - 1))
        return (dv, -(d_gamma - 1.0) / s * dv + reaction)
    return rhs


def integrate_ode(d_gamma: float, p: float, v0: float, s_max: float = _S_MAX,
                  stop_on_decay: bool = False) -> ShootingResult:
    """Integrate one shooting trajectory and classify it exactly.

    The energy E = v'^2/2 + v^(2p)/(2p) - v^(p+1)/(p+1) obeys
    dE/ds = -(d_gamma - 1)/s v'^2 <= 0, and E >= 0 wherever v = 0.  So a
    trajectory that reaches v = 0 crosses zero, and one whose energy drops
    below 0 can never reach v = 0 and is plateau-bound; both are terminal
    events.  A start with E(v0) <= 0, which holds for every v0 <= 1, is
    plateau-bound without integration, and its ``profile`` is None.  A
    trajectory that meets neither event before ``s_max`` is classed as a
    ground state: on [0, s_max] it cannot be told apart from one.

    With ``stop_on_decay`` the run also terminates once v drops to the decay
    floor; this is what :func:`find_ground_state` uses for its final shot.
    The shot runs on the compiled DOP853, which tests the events at each
    accepted step end; where one step passes several events, the first in
    the order decay floor, zero crossing, negative energy decides the class.
    The step ends with v > 0 are the sampled ``profile``, in the variable s;
    with ``stop_on_decay``, those with v above the decay floor.
    """
    if not 0.0 < v0 < math.inf:
        raise ParameterError(f"initial value must lie in (0, inf), got v0={v0}")
    # E(v0) = v0^(p+1) (v0^(p-1)/(2p) - 1/(p+1)) <= 0, tested without v0^(2p)
    if v0 ** (p - 1.0) <= 2.0 * p / (p + 1.0):
        return ShootingResult(v0, Classification.DIVERGES_TO_PLATEAU, None)

    s0 = _TAYLOR_LAUNCH
    curv = (v0**p - v0 ** (2 * p - 1)) / (2.0 * d_gamma)
    y0 = (v0 + curv * s0**2, 2.0 * curv * s0)

    def crossed(s, y):
        return y[0]

    def energy(s, y):
        av = abs(y[0])
        return 0.5 * y[1] ** 2 + av ** (2 * p) / (2 * p) - av ** (p + 1) / (p + 1)

    def decayed(s, y):
        return y[0] - _DECAY_FLOOR

    # terminal events and their classes, in the order a falling trajectory
    # meets them; a shot that meets none before s_max is a ground state
    events = [(crossed, Classification.CROSSES_ZERO),
              (energy, Classification.DIVERGES_TO_PLATEAU)]
    if stop_on_decay:
        events.insert(0, (decayed, Classification.GROUND_STATE))
    cls, steps = _compiled_shot(_MAX_STEPS).shoot(_rhs(d_gamma, p), s0, y0,
                                                  s_max, events)
    # the step end past the decay floor only detects it; the profile ends above
    s, v, dv = steps[steps[:, 1] > (_DECAY_FLOOR if stop_on_decay else 0.0)].T
    profile = None
    if s.size >= 2:
        profile = RadialProfile(radii=s, values=v, derivs=dv,
                                meta={"variable": "s", "derivatives": "integrator"})
    return ShootingResult(v0, cls, profile)


class _CompiledShot:
    """Compiled DOP853 that tests the events and keeps (s, v, v') at step ends.

    scipy's compiled dop853 keeps a reference to the callbacks of every run,
    so one integrator and its two callbacks serve every shot; a shot only
    sets the right-hand side and the events they read.  Like dop853 itself,
    this is not re-entrant.
    """

    def __init__(self, max_steps: int):
        self.solver = ode(self._rhs).set_integrator(
            "dop853", rtol=1e-12, atol=1e-14, nsteps=max_steps)
        self.solver.set_solout(self._solout)

    def _rhs(self, s, y):
        # on Python floats, about 3x cheaper a call than on numpy scalars
        return self.rhs(s, y.tolist())

    def _solout(self, s, y):
        self.steps.append((s, y[0], y[1]))
        for event, cls in self.events:
            if event(s, y) <= 0:
                self.hit = cls
                return -1
        return 0

    def shoot(self, rhs, s0, y0, s_max, events) -> tuple[Classification, np.ndarray]:
        """Class of one shot and its step ends, one (s, v, v') row each."""
        self.rhs, self.events = rhs, events
        self.hit = Classification.GROUND_STATE
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
        return self.hit, np.array(self.steps)


@functools.lru_cache(maxsize=None)
def _compiled_shot(max_steps: int) -> _CompiledShot:
    return _CompiledShot(max_steps)


def find_ground_state(params: ProblemParams, tol: float = 1e-8) -> ShootingResult:
    """Bisect the initial value to the separatrix between the two failure modes.

    Every shot is classified by the exact energy events of
    :func:`integrate_ode`, so the bracket [lo, hi] is certified: lo is a
    plateau-bound start and hi a crossing one, and the ground state lies
    between them.  The first hi is found by doubling the start from 2 up to
    2^60, then squaring it until v0^(2p) would leave the float range
    (``BracketNotFound``); a bracket with hi > 4 lo, which only squaring
    leaves, is bisected geometrically.  Starts whose shots reach ``s_max``
    with neither event cannot be placed on either side; the bisection
    halves the wider gap next to their span.  While that span is wider
    than tol * hi, ``s_max`` grows tenfold from ``_S_MAX`` and the span is
    forgotten; past ``_S_MAX_CAP`` that raises ``ClassificationAmbiguous``.
    ``v0`` is returned, at the bracket midpoint, once hi - lo <= tol * hi,
    with the ``s_max`` reached.

    The final shot stops at the decay floor, and its profile is returned.
    Every crossing shot passes the floor, so the final shot starts at an
    undecided start if there is one, and otherwise at the midpoint of a
    bracket bisected down to ``_PROFILE_WIDTH`` (or ``tol``, if smaller).
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must lie in (0, inf), got tol={tol}")
    d_gamma, log_c_map = to_flat_variables(params)
    p = params.p
    s_max = _S_MAX

    history: list[tuple[float, Classification]] = []
    lo, hi = 1.0, math.inf
    # span of the starts whose shots reached s_max undecided; empty while
    # u_lo > u_hi
    u_lo, u_hi = math.inf, -math.inf

    def shoot(v0: float, final: bool) -> ShootingResult:
        nonlocal lo, hi, u_lo, u_hi
        res = integrate_ode(d_gamma, p, v0, s_max=s_max, stop_on_decay=final)
        history.append((v0, res.classification))
        if res.classification is Classification.CROSSES_ZERO:
            hi = v0
        elif res.classification is Classification.DIVERGES_TO_PLATEAU:
            lo = v0
        else:
            u_lo, u_hi = min(u_lo, v0), max(u_hi, v0)
        return res

    v0 = 2.0
    while hi == math.inf:
        if 2.0 * p * math.log(v0) >= _LOG_FLOAT_MAX:
            raise BracketNotFound(
                f"no zero-crossing initial value found below v0={v0:.6g}, "
                f"where v0^(2p) leaves the float range")
        shoot(v0, final=False)
        v0 = 2.0 * v0 if v0 < 2.0**60 else v0 * v0

    while True:
        if u_hi - u_lo > tol * hi:
            if 10.0 * s_max > _S_MAX_CAP:
                raise ClassificationAmbiguous(
                    f"starts in [{u_lo:.9g}, {u_hi:.9g}] reach s_max={s_max:g} "
                    f"with neither a zero crossing nor a negative energy, a "
                    f"span wider than tol={tol:g}")
            # [lo, hi] stays certified: only the undecided starts depend on
            # the range
            s_max *= 10.0
            u_lo, u_hi = math.inf, -math.inf
        undecided = u_lo <= u_hi
        final = hi - lo <= tol * hi and (undecided or hi - lo <= _PROFILE_WIDTH * hi)
        a, b = lo, hi
        if undecided and not final:
            a, b = (lo, u_lo) if u_lo - lo >= hi - u_hi else (u_hi, hi)
        # an undecided start tracks the ground state up to s_max, and so does
        # its re-run, which stops at the decay floor
        start = (u_lo if final and undecided
                 else math.sqrt(a) * math.sqrt(b) if hi > 4.0 * lo
                 else 0.5 * (a + b))
        if not a < start < b:
            raise ClassificationAmbiguous(
                f"bracket [{lo!r}, {hi!r}] cannot be split further in floating "
                f"point before the ground state is resolved to tol={tol:g}")
        best_ground = shoot(start, final)
        if final and best_ground.classification is Classification.GROUND_STATE:
            break
    v0 = 0.5 * (lo + hi)

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
                          bracket=(lo, hi), s_max=s_max)
