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
_DECAY_THRESHOLD = 1e-4
_PLATEAU_GUARD_S = 10.0


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
    """Integrate one shooting trajectory and classify it.

    Initial values v0 <= 1 are classified as plateau-bound without
    integration: there the reaction term v^p - v^(2p-1) is nonnegative, so the
    trajectory can only move up toward the stable plateau and never decays.
    The same phase-plane fact classifies any trajectory that turns around
    (v' > 0) while 0 < v < 1.

    With ``stop_on_decay`` the run terminates once v drops one decade below
    the decay threshold while tracking the algebraic separatrix slope; this is
    what :func:`find_ground_state` uses for its final, fully converged shot.
    """
    if v0 <= 0:
        raise ValueError(f"initial value must be positive, got {v0}")
    if v0 <= 1.0:
        return ShootingResult(v0=v0,
                              classification=Classification.DIVERGES_TO_PLATEAU,
                              profile=None)

    s0 = _TAYLOR_LAUNCH
    curv = (v0**p - v0 ** (2 * p - 1)) / (2.0 * d_gamma)
    y0 = (v0 + curv * s0**2, 2.0 * curv * s0)

    def crossed(s, y):
        return y[0]
    crossed.terminal = True
    crossed.direction = -1.0

    def rebound(s, y):
        # v' turning positive while v > 1 beyond the guard radius: trapped
        if s < _PLATEAU_GUARD_S or y[0] < 1.0:
            return -1.0
        return y[1]
    rebound.terminal = True
    rebound.direction = 1.0

    decay_floor = _DECAY_THRESHOLD / 10.0

    def decayed(s, y):
        return y[0] - decay_floor
    decayed.terminal = True
    decayed.direction = -1.0

    events = (crossed, rebound, decayed) if stop_on_decay else (crossed, rebound)
    s_eval = np.geomspace(s0, s_max, n_sample)
    sol = solve_ivp(_rhs(d_gamma, p), (s0, s_max), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, events=events, t_eval=s_eval)
    if not sol.success:
        raise ClassificationAmbiguous(f"integrator failed: {sol.message}")

    s_arr, v_arr, dv_arr = sol.t, sol.y[0], sol.y[1]
    keep = v_arr > 0
    profile = None
    if keep.sum() >= 2:
        profile = RadialProfile(radii=s_arr[keep],
                                values=np.maximum(v_arr[keep], 0.0),
                                derivs=dv_arr[keep],
                                meta={"variable": "s", "derivatives": "integrator"})

    if sol.t_events[0].size:
        return ShootingResult(v0, Classification.CROSSES_ZERO, profile)
    if sol.t_events[1].size:
        return ShootingResult(v0, Classification.DIVERGES_TO_PLATEAU, profile)
    if stop_on_decay and sol.t_events[2].size:
        s_ev = float(sol.t_events[2][0])
        v_ev, dv_ev = sol.y_events[2][0]
        # the separatrix decays like s^(-2/(p-1)); a plunge toward a zero
        # crossing moves far faster than that and is handed back for a full run
        slope_ratio = abs(dv_ev) * s_ev * (p - 1.0) / (2.0 * v_ev)
        if 0.2 <= slope_ratio <= 5.0:
            return ShootingResult(v0, Classification.GROUND_STATE, profile)
        return integrate_ode(d_gamma, p, v0, s_max=s_max, n_sample=n_sample,
                             stop_on_decay=False)

    v_end, dv_end = v_arr[-1], dv_arr[-1]
    tail = s_arr >= s_arr[-1] / 10.0
    monotone = bool(np.all(np.diff(v_arr[tail]) < 0))
    if v_end < _DECAY_THRESHOLD and monotone:
        return ShootingResult(v0, Classification.GROUND_STATE, profile)
    if dv_end > 0.0 and v_end < 1.0:
        # turned around inside the well basin: plateau-bound
        return ShootingResult(v0, Classification.DIVERGES_TO_PLATEAU, profile)
    if v_end > 0.5:
        return ShootingResult(v0, Classification.DIVERGES_TO_PLATEAU, profile)
    raise ClassificationAmbiguous(
        f"trajectory from v0={v0} ended at v={v_end:.3e} without a clear class; "
        f"increase s_max"
    )


def find_ground_state(params: ProblemParams, tol: float = 1e-8,
                      s_max: float = 2e3) -> ShootingResult:
    """Bisect the initial value to the separatrix between the two failure modes.

    The bracket is [plateau side, crossing side]; bisection tightens it well
    past ``tol`` so that the final trajectory tracks the ground state into its
    decaying tail, then the result is reported at the bracket midpoint.
    """
    if not _TAYLOR_LAUNCH < s_max < math.inf:
        raise ParameterError(f"s_max must lie in ({_TAYLOR_LAUNCH}, inf), beyond "
                             f"the launch radius, got s_max={s_max}")
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must lie in (0, inf), got tol={tol}")
    d_gamma, c_map = to_flat_variables(params)
    p = params.p

    history: list[tuple[float, Classification]] = []

    def classify(v0: float) -> Classification:
        res = integrate_ode(d_gamma, p, v0, s_max=s_max)
        history.append((v0, res.classification))
        return res.classification

    lo, hi = 1.0 + 1e-9, 2.0
    for _ in range(60):
        c = classify(hi)
        if c is Classification.CROSSES_ZERO:
            break
        lo = hi
        hi *= 2.0
    else:
        raise BracketNotFound("no zero-crossing initial value found while doubling")

    target_width = max(tol * 1e-4, 4.0 * np.finfo(float).eps)
    while (hi - lo) / hi > target_width:
        mid = 0.5 * (lo + hi)
        res = integrate_ode(d_gamma, p, mid, s_max=s_max)
        history.append((mid, res.classification))
        if res.classification is Classification.CROSSES_ZERO:
            hi = mid
        else:
            lo = mid
    v0 = 0.5 * (lo + hi)
    # final shot at the converged midpoint, terminated inside the decay regime
    # before the unstable mode can pollute the tail
    best_ground = integrate_ode(d_gamma, p, v0, s_max=s_max, stop_on_decay=True)
    history.append((v0, best_ground.classification))
    if best_ground.classification is not Classification.GROUND_STATE:
        raise ClassificationAmbiguous(
            "bisection converged but the midpoint trajectory did not decay; "
            "increase s_max"
        )

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
                          profile=profile, bisection_history=history)
