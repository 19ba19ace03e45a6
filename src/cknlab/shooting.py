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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

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
    """Effective dimension and radius scale of the flattening map.

    Returns (d_gamma, c_map) with r = c_map * s^(2/(2-gamma)).
    """
    g = params.gamma
    d_gamma = derive(params).d_gamma
    c_map = ((2.0 - g) / 2.0) ** (2.0 / (2.0 - g))
    return d_gamma, c_map


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
                  n_sample: int = 2000, stop_on_decay: bool = False) -> ShootingResult:
    """Integrate one shooting trajectory and classify it exactly.

    The energy E = v'^2/2 + v^(2p)/(2p) - v^(p+1)/(p+1) obeys
    dE/ds = -(d_gamma - 1)/s v'^2 <= 0, and E >= 0 wherever v = 0.  So a
    trajectory that reaches v = 0 crosses zero, and one whose energy drops
    below 0 can never reach v = 0 and is plateau-bound; both are terminal
    events.  A start with E(v0) <= 0, which holds for every v0 <= 1, is
    plateau-bound without integration.  A trajectory that meets neither event
    before ``s_max`` is classed as a ground state: on [0, s_max] it cannot be
    told apart from one.

    With ``stop_on_decay`` the run also terminates once v drops to the decay
    floor; this is what :func:`find_ground_state` uses for its final shot.
    ``n_sample`` points on a geometric grid sample the profile; with 0 the
    shot only classifies and ``profile`` is None.
    """
    if v0 <= 0:
        raise ValueError(f"initial value must be positive, got {v0}")
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

    events = (crossed, energy, decayed) if stop_on_decay else (crossed, energy)
    for event in events:
        event.terminal = True
        event.direction = -1.0
    sol = solve_ivp(_rhs(d_gamma, p), (s0, s_max), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, events=events,
                    t_eval=np.geomspace(s0, s_max, n_sample))
    if not sol.success:
        raise ClassificationAmbiguous(f"integrator failed: {sol.message}")

    profile = None
    keep = sol.y[0] > 0 if n_sample else []
    if np.count_nonzero(keep) >= 2:
        profile = RadialProfile(radii=sol.t[keep], values=sol.y[0][keep],
                                derivs=sol.y[1][keep],
                                meta={"variable": "s", "derivatives": "integrator"})

    if sol.t_events[0].size:
        return ShootingResult(v0, Classification.CROSSES_ZERO, profile)
    if sol.t_events[1].size:
        return ShootingResult(v0, Classification.DIVERGES_TO_PLATEAU, profile)
    return ShootingResult(v0, Classification.GROUND_STATE, profile)


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

    Only the final shot samples the profile, stopping at the decay floor.
    Every crossing shot passes the floor, so the final shot starts at an
    undecided start if there is one, and otherwise at the midpoint of a
    bracket bisected down to ``_PROFILE_WIDTH`` (or ``tol``, if smaller).
    """
    if not _TAYLOR_LAUNCH < s_max < math.inf:
        raise ParameterError(f"s_max must lie in ({_TAYLOR_LAUNCH}, inf), beyond "
                             f"the launch radius, got s_max={s_max}")
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must lie in (0, inf), got tol={tol}")
    d_gamma, c_map = to_flat_variables(params)
    p = params.p

    history: list[tuple[float, Classification]] = []
    lo, hi = 1.0, math.inf
    # span of the starts whose shots reached s_max undecided; empty while
    # u_lo > u_hi
    u_lo, u_hi = math.inf, -math.inf

    def shoot(v0: float, final: bool) -> ShootingResult:
        nonlocal lo, hi, u_lo, u_hi
        res = integrate_ode(d_gamma, p, v0, s_max=s_max,
                            n_sample=2000 if final else 0, stop_on_decay=final)
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

    # map the s-profile back to the physical radius, including the slope:
    # r = c s^(2/(2-gamma))  gives  dw/dr = v'(s) / (dr/ds)
    sprof = best_ground.profile
    g = params.gamma
    expo = 2.0 / (2.0 - g)
    radii = c_map * sprof.radii**expo
    dr_ds = c_map * expo * sprof.radii ** (expo - 1.0)
    profile = RadialProfile(
        radii=radii, values=sprof.values,
        derivs=sprof.derivs / dr_ds,
        tail_exponent=(2.0 - g) / (params.p - 1.0),
        meta={"variable": "r", "v0": v0, "d_gamma": d_gamma, "c_map": c_map,
              "derivatives": "integrator"},
    )
    return ShootingResult(v0=v0, classification=Classification.GROUND_STATE,
                          profile=profile, bisection_history=history,
                          bracket=(lo, hi))
