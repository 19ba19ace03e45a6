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
from .params import ProblemParams, derive
from .profiles import RadialProfile

__all__ = [
    "Classification",
    "ShootingResult",
    "to_flat_variables",
    "integrate_ode",
    "find_ground_state",
]

_TAYLOR_LAUNCH = 1e-6
_DECAY_FLOOR = 1e-5
_PROFILE_WIDTH = 1e-10
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


def to_flat_variables(params: ProblemParams) -> tuple[float, float]:
    """Effective dimension and log radius scale of the flattening map.

    Returns (d_gamma, log_c_map) with r = c_map * s^(2/(2-gamma)), that is
    log r = log_c_map + (2/(2-gamma)) log s.  The scale itself,
    c_map = ((2-gamma)/2)^(2/(2-gamma)), underflows to 0 for gamma >= 1.99,
    so its log is returned.
    """
    g = params.gamma
    d_gamma = derive(params).d_gamma
    log_c_map = 2.0 / (2.0 - g) * math.log((2.0 - g) / 2.0)
    return d_gamma, log_c_map


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


def integrate_ode(d_gamma: float, p: float, v0: float, s_max: float = 2e3,
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


def find_ground_state(params: ProblemParams, tol: float = 1e-8,
                      s_max: float = 2e3) -> ShootingResult:
    """Bisect the initial value to the separatrix between the two failure modes.

    Every shot is classified by the exact energy events of
    :func:`integrate_ode`, so the bracket [lo, hi] is certified: lo is a
    plateau-bound start and hi a crossing one, and the ground state lies
    between them.  Starts whose shots reach ``s_max`` with neither event
    cannot be placed on either side; the bisection halves the wider gap
    next to their span.  ``v0`` is returned, at the bracket midpoint, once
    hi - lo <= tol * hi; a span wider than that raises
    ``ClassificationAmbiguous``.

    The final shot stops at the decay floor, and its profile is returned.
    Every crossing shot passes the floor, so the final shot starts at an
    undecided start if there is one, and otherwise at the midpoint of a
    bracket bisected down to ``_PROFILE_WIDTH`` (or ``tol``, if smaller).
    """
    if not _TAYLOR_LAUNCH < s_max < math.inf:
        raise ParameterError(f"s_max must lie in ({_TAYLOR_LAUNCH}, inf), beyond "
                             f"the launch radius, got s_max={s_max}")
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must lie in (0, inf), got tol={tol}")
    d_gamma, log_c_map = to_flat_variables(params)
    p = params.p

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
    for _ in range(60):
        shoot(v0, final=False)
        if hi < math.inf:
            break
        v0 *= 2.0
    else:
        raise BracketNotFound("no zero-crossing initial value found while doubling")

    while True:
        if u_hi - u_lo > tol * hi:
            raise ClassificationAmbiguous(
                f"starts in [{u_lo:.9g}, {u_hi:.9g}] reach s_max={s_max:g} with "
                f"neither a zero crossing nor a negative energy, a span wider "
                f"than tol={tol:g}; increase s_max")
        undecided = u_lo <= u_hi
        final = hi - lo <= tol * hi and (undecided or hi - lo <= _PROFILE_WIDTH * hi)
        a, b = lo, hi
        if undecided and not final:
            a, b = (lo, u_lo) if u_lo - lo >= hi - u_hi else (u_hi, hi)
        # an undecided start tracks the ground state up to s_max, and so does
        # its re-run, which stops at the decay floor
        start = u_lo if final and undecided else 0.5 * (a + b)
        if not a < start < b:
            raise ClassificationAmbiguous(
                f"bracket [{lo!r}, {hi!r}] cannot be split further in floating "
                f"point before the ground state is resolved to tol={tol:g}")
        best_ground = shoot(start, final)
        if final and best_ground.classification is Classification.GROUND_STATE:
            break
    v0 = 0.5 * (lo + hi)

    # map the s-profile back to the physical radius in log form, since
    # r = c_map s^expo underflows near the launch radius as gamma nears 2:
    # log r = log_c_map + expo log s, and
    # dw/dr = v'(s) / (dr/ds) = v' s / (expo r)
    sprof = best_ground.profile
    g = params.gamma
    expo = 2.0 / (2.0 - g)
    radii = np.exp(log_c_map + expo * np.log(sprof.radii))
    # radii below the normal float range, and slopes beyond it, lie where
    # v = v0 to roundoff; those points are dropped
    with np.errstate(divide="ignore", over="ignore"):
        derivs = sprof.derivs * sprof.radii / (expo * radii)
    keep = (radii >= np.finfo(float).tiny) & np.isfinite(derivs)
    profile = RadialProfile(
        radii=radii[keep], values=sprof.values[keep], derivs=derivs[keep],
        tail_exponent=(2.0 - g) / (params.p - 1.0),
        meta={"variable": "r", "v0": v0, "d_gamma": d_gamma,
              "log_c_map": log_c_map, "derivatives": "integrator"},
    )
    return ShootingResult(v0=v0, classification=Classification.GROUND_STATE,
                          profile=profile, bisection_history=history,
                          bracket=(lo, hi))
