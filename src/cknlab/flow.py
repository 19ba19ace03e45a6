"""Conservative finite-volume solver for the weighted fast-diffusion flow.

The rescaled equation is a continuity law for the weighted density,
d/dt (v r^(d-1-gamma)) + d/dr (r^(d-1) v d/dr psi) = 0, psi = v^(m-1) -
r^(2-gamma).  In s = r^alpha, alpha = (2-gamma)/2, it is the gamma = 0 law in
the real dimension d_gamma = 2(d-gamma)/(2-gamma) (Bonforte-Dolbeault-
Muratori-Nazaret, KRM 10, 2017): r^(d-1-gamma) dr = s^(d_gamma-1) ds / alpha,
r^(d-1) |d/dr psi|^2 dr = alpha s^(d_gamma-1) |d/ds psi|^2 ds and r^(2-gamma)
= s^2.  So one mesh in s serves every gamma; times, densities and masses keep
their meaning in r.  The scheme stores cell averages against exact cell
integrals of s^(d_gamma-1), moves mass through faces with harmonic-mean
mobility against the full potential drop, and conserves the weighted mass to
roundoff by construction.  The stationary profile has constant discrete
potential, hence exactly zero flux: it is a fixed point of the scheme, not
merely an approximate one.  The same face terms define the discrete Fisher
information, which makes the semi-discrete energy identity dF/dt = -I exact.

Time steps are TR-BDF2, a Crank-Nicolson stage followed by a BDF2 stage, each
solved by Newton's method on the analytic tridiagonal Jacobian of the face
fluxes, so the step size follows the decay of the free energy instead of a
stability bound.  Each Newton system goes straight to LAPACK's tridiagonal
solver dgtsv: at a few hundred cells a general banded-solver wrapper costs
more than the elimination itself.

An initial datum must be positive in every cell.  The harmonic mobility
moves no mass into an empty cell, so a compactly supported datum would stay
frozen, where the true fast-diffusion flow (m < 1) fills all space at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq

from .errors import (AmplitudeOverflow, DecayWindowTooShort, NegativeDensity,
                     ParameterError, RootNotBracketed, StepFailure)
from .params import validate_m
from .profiles import LOG_FLOAT_MAX, AnalyticProfile, RadialProfile
from .quadrature import sphere_area

__all__ = [
    "FlowMesh",
    "FlowState",
    "stationary_profile",
    "make_state",
    "step",
    "free_energy",
    "fisher_information",
    "run_decay",
    "DecaySeries",
    "fit_decay_rate",
]


@dataclass(frozen=True, eq=False)
class FlowMesh:
    """Cell mesh on s = r^alpha in [0, s_out] with exact weighted cell volumes."""

    d_gamma: float
    alpha: float
    area: float                                # measure prefactor |S^(d-1)|/alpha
    edges: np.ndarray
    centers: np.ndarray = field(init=False)
    radii: np.ndarray = field(init=False)      # r = s^(1/alpha) at the centers
    vol_w: np.ndarray = field(init=False)      # int_cell s^(d_gamma-1) ds
    face_area: np.ndarray = field(init=False)  # alpha^2 s^(d_gamma-1) at faces
    dx_face: np.ndarray = field(init=False)    # center-to-center spacing
    inv_dx_face: np.ndarray = field(init=False)  # 1 / dx_face
    potential: np.ndarray = field(init=False)  # s^2 at the centers
    cap: float = field(init=False)             # face velocity cap
    # B, B^m and m B^(m-1) at the centers by stationary parameters and m
    stationary_terms: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        e, dg = np.asarray(self.edges, dtype=float), self.d_gamma
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "centers", 0.5 * (e[1:] + e[:-1]))
        object.__setattr__(self, "radii", self.centers ** (1.0 / self.alpha))
        vol_w = (e[1:] ** dg - e[:-1] ** dg) / dg
        # a cell of volume 0 holds no mass and leaves the Newton system
        # singular; a subnormal volume still holds its share
        bad = np.count_nonzero(~((vol_w > 0.0) & (vol_w < math.inf)))
        if bad:
            raise AmplitudeOverflow(f"the weighted volumes of {bad} cells are 0 "
                                    f"or not finite at d_gamma = {dg:g}: "
                                    f"s^d_gamma leaves the float range")
        object.__setattr__(self, "vol_w", vol_w)
        object.__setattr__(self, "face_area", self.alpha**2 * e[1:-1] ** (dg - 1.0))
        object.__setattr__(self, "dx_face", np.diff(self.centers))
        object.__setattr__(self, "inv_dx_face", 1.0 / self.dx_face)
        object.__setattr__(self, "potential", self.centers ** 2.0)
        # 50x the largest drift speed 2 s_out; only a near-vacuum tail reaches it
        object.__setattr__(self, "cap", 50.0 * 2.0 * float(e[-1]))

    @classmethod
    def graded(cls, d: int, gamma: float, n_cells: int = 400,
               r_out: float = 25.0, C: float = 1.0) -> "FlowMesh":
        """Cells uniform in z = log(1 + s^2/C) on s in [0, s_out = r_out^alpha].

        The edges s = sqrt(C expm1(z)) are uniform in s^2 inside the scale
        sqrt(C) of the stationary state (C + s^2)^(1/(m-1)), where it holds
        its mass, and geometric beyond it.  The mobility of the thin outer
        tail grows like s^2, so cells must widen at least linearly with s or
        the stiffness of the tail outgrows that of the core.
        """
        if n_cells < 2 or not 0.0 < r_out < math.inf:
            raise ParameterError(f"a flow mesh needs n_cells >= 2 and r_out in "
                                 f"(0, inf), got n_cells={n_cells}, r_out={r_out}")
        alpha = 1.0 - gamma / 2.0
        s_out = r_out ** alpha
        z = np.linspace(0.0, math.log1p(s_out * s_out / C), n_cells + 1)
        return cls((d - gamma) / alpha, alpha, sphere_area(d) / alpha,
                   np.sqrt(C * np.expm1(z)))


@dataclass(frozen=True, eq=False)
class FlowState:
    """Weighted density on a flow mesh at one time, positive in every cell.

    A state is never modified (``step`` returns a new one), so its face terms
    are computed once and shared by the time step and the Fisher information.
    """

    time: float
    mesh: FlowMesh
    density: np.ndarray
    m: float

    def __post_init__(self):
        object.__setattr__(self, "density", np.asarray(self.density, dtype=float))
        if not (self.density > 0.0).all():  # a NaN cell fails the test too
            raise NegativeDensity("a flow density must be positive in every cell")

    @property
    def mass(self) -> float:
        return self.mesh.area * float(np.sum(self.mesh.vol_w * self.density))

    @cached_property
    def faces(self) -> _Faces:
        """Face velocity, flux and flux derivatives (see _face_terms)."""
        return _face_terms(self.mesh, self.density, self.m)


def _stationary(C: float, m: float, alpha: float) -> AnalyticProfile:
    """Stationary state (C + r^(2 alpha))^(1/(m-1)), a Barenblatt profile
    with peak C^(1/(m-1))."""
    k = 1.0 / (1.0 - m)
    return AnalyticProfile(log_peak=-k * math.log(C), b=C, c=2.0 * alpha, k=k)


def stationary_profile(m: float, gamma: float, d: int, M: float) -> AnalyticProfile:
    """Stationary state with prescribed weighted mass; its ``b`` is C.

    The mass is mass(1) C^((d-gamma)/(2 alpha) - 1/(1-m)), a negative power,
    so C is explicit; AmplitudeOverflow if C or its peak leaves the float range.
    """
    validate_m(d, gamma, m)
    if not 0.0 < M < math.inf:
        raise ParameterError(f"target mass must be finite and positive, got {M}")
    alpha = 1.0 - gamma / 2.0
    expo = (d - gamma) / (2.0 * alpha) - 1.0 / (1.0 - m)
    log_C = (math.log(M)
             - _stationary(1.0, m, alpha).log_moment(1.0, d, gamma)) / expo
    if not abs(log_C) < LOG_FLOAT_MAX:
        raise AmplitudeOverflow(f"the stationary constant C = exp({log_C:.1f}) "
                                f"leaves the float range")
    return _stationary(math.exp(log_C), m, alpha)


def make_state(u0, m: float, gamma: float, d: int, n_cells: int = 400,
               r_out: float = 25.0) -> FlowState:
    """Sample an initial datum onto a flow mesh sized from its stationary state.

    u0, a callable of r or a RadialProfile (interpolated linearly), is
    sampled at the cell centers of the mesh at C = 1, and then of the mesh at
    the stationary C of the mass held there (within 1% of the fixed point at
    mass 50).  Raises ParameterError unless every cell is finite and
    positive and a RadialProfile spans the centers of the second mesh.
    """
    validate_m(d, gamma, m)
    C = 1.0
    for sized in (False, True):
        mesh = FlowMesh.graded(d, gamma, n_cells, r_out, C)
        r = mesh.radii
        if isinstance(u0, RadialProfile):
            if sized and not u0.radii[0] <= r[0] <= r[-1] <= u0.radii[-1]:
                raise ParameterError(
                    f"the initial datum spans r in [{u0.radii[0]:.6g}, "
                    f"{u0.radii[-1]:.6g}], which must cover the cell "
                    f"centers at r in [{r[0]:.6g}, {r[-1]:.6g}]")
            v = np.interp(r, u0.radii, u0.values)
        else:
            v = np.asarray(u0(r), dtype=float)
        bad = ~(np.isfinite(v) & (v > 0.0))
        if np.any(bad):
            first = int(np.argmax(bad))
            raise ParameterError(
                f"the initial datum must be finite and positive in every cell, "
                f"since no mass enters an empty cell while the flow fills all "
                f"space at once: {int(bad.sum())} of {v.size} cells are not, "
                f"the first at r={r[first]:.6g} holding {float(v[first])!r}")
        state = FlowState(time=0.0, mesh=mesh, density=v, m=m)
        C = stationary_profile(m, gamma, d, state.mass).b
    return state


class _Faces(NamedTuple):
    u: np.ndarray        # capped face velocity, d psi / dr
    flux: np.ndarray     # face_area * harmonic-mean mobility * u, outward
    d_left: np.ndarray   # d flux / d (left cell density)
    d_right: np.ndarray  # d flux / d (right cell density)


def _face_terms(mesh: FlowMesh, v: np.ndarray, m: float) -> _Faces:
    """Face fluxes of a density and their derivatives in the two neighbors.

    v is positive, as in every FlowState.  The velocity is capped at
    mesh.cap.  The derivatives are those of mobility * u with d psi/dv =
    (m-1) v^(m-2); a capped face gets zero derivatives.
    """
    vl, vr = v[:-1], v[1:]
    vm = v ** (m - 1.0)
    psi = vm - mesh.potential
    u = (psi[1:] - psi[:-1]) * mesh.inv_dx_face
    rough = None
    if not np.abs(u).max() < mesh.cap:
        rough = ~(np.abs(u) < mesh.cap)
        u = np.clip(u, -mesh.cap, mesh.cap)
    # mobility / vl and mobility / vr of the harmonic mean 2 vl vr / (vl + vr)
    mean = 0.5 * (vl + vr)
    ml, mr = vr / mean, vl / mean
    # d mobility / d vl = (mobility / vl)^2 / 2 and d u / d vl =
    # (1 - m) vl^(m-2) / dx, and symmetrically in vr
    au = mesh.face_area * u
    k = (1.0 - m) * mesh.face_area * mesh.inv_dx_face
    d_left = ml * (0.5 * ml * au + k * vm[:-1])
    d_right = mr * (0.5 * mr * au - k * vm[1:])
    if rough is not None:
        d_left[rough] = 0.0
        d_right[rough] = 0.0
    return _Faces(u, au * (ml * vl), d_left, d_right)


def _divergence(flux: np.ndarray) -> np.ndarray:
    """Net outflow of each cell: its right face flux minus its left one."""
    div = np.zeros(flux.size + 1)
    div[:-1] = flux
    div[1:] -= flux
    return div


# Newton solve of one implicit stage: iteration cap, and the tolerance on the
# Newton update measured in the weighted L1 norm relative to the mass
_NEWTON_ITERS = 12
_NEWTON_TOL = 1e-12
# a step whose Newton solve fails is split in two halves, at most this deep
_MAX_SPLITS = 8
# TR-BDF2 stage fraction: the trapezoidal stage ends at t + _GAMMA dt.  This
# value gives both stages the same coefficient _GAMMA dt / 2 on div(v), since
# (1 - _GAMMA)/(2 - _GAMMA) = _GAMMA/2
_GAMMA = 2.0 - math.sqrt(2.0)


def _newton_update(state: FlowState, target: np.ndarray, c: float,
                   v: np.ndarray, faces: _Faces) -> tuple[np.ndarray, float]:
    """Undamped Newton update of the implicit stage vol v + c div(v) = target.

    The Jacobian vol + c d(div)/dv is tridiagonal, and each column of the
    Jacobian of div sums to zero, so the update moves no weighted mass
    beyond the mismatch sum(target) - sum(vol v), which every stage target
    makes zero.  Returns the update and its size relative to the mass.
    """
    vol = state.mesh.vol_w
    resid = vol * v + c * _divergence(faces.flux) - target
    c_left, upper = c * faces.d_left, c * faces.d_right
    diag = vol.copy()
    diag[:-1] += c_left
    diag[1:] -= upper
    # every argument is a temporary, so dgtsv may overwrite them all
    *_, delta, info = dgtsv(-c_left, diag, upper, -resid, True, True, True, True)
    if info > 0:
        raise StepFailure(f"singular Newton system at t={state.time:.6g}")
    # array methods skip the np.sum wrapper, which at this size costs more
    # than the sum itself
    return delta, float((vol * np.abs(delta)).sum() / (vol * v).sum())


def _solve_stage(state: FlowState, target: np.ndarray, c: float,
                 v: np.ndarray, faces: _Faces) -> tuple[np.ndarray, _Faces]:
    """Newton's method for vol v + c div(v) = target, from v with its faces.

    Returns the first iterate whose own update is below _NEWTON_TOL of the
    mass, with its faces; that update is not applied, so it costs no face
    evaluation.  Raises StepFailure when an update leaves a cell
    non-positive, or when none of _NEWTON_ITERS updates is that small.
    """
    for _ in range(_NEWTON_ITERS):
        delta, size = _newton_update(state, target, c, v, faces)
        if size <= _NEWTON_TOL:
            return v, faces
        v = v + delta
        if not (v > 0.0).all():
            raise StepFailure(f"a Newton update leaves the density non-positive "
                              f"at t={state.time:.6g}")
        faces = _face_terms(state.mesh, v, state.m)
    raise StepFailure(f"Newton did not converge in {_NEWTON_ITERS} iterations "
                      f"at t={state.time:.6g}")


def _tr_bdf2(state: FlowState, dt: float) -> FlowState:
    """One TR-BDF2 step: a Crank-Nicolson stage, then a BDF2 stage.

    With h = _GAMMA dt / 2, the trapezoidal stage solves
    v - v_n + h/vol (div(v) + div(v_n)) = 0 for v_g at t + _GAMMA dt, and
    the BDF2 stage solves v + h/vol div(v) = w v_g + (1 - w) v_n at t + dt.
    Both targets carry the mass of v_n, and at a stationary state both
    residuals vanish, so the stationary state stays a fixed point.  The
    faces of the returned Newton iterate become the faces of the new state.
    """
    vol, v_n = state.mesh.vol_w, state.density
    h = 0.5 * _GAMMA * dt
    v_g, faces_g = _solve_stage(
        state, vol * v_n - h * _divergence(state.faces.flux), h, v_n, state.faces)
    w = 1.0 / (_GAMMA * (2.0 - _GAMMA))
    v, faces = _solve_stage(state, vol * (w * v_g + (1.0 - w) * v_n), h,
                            v_g, faces_g)
    new = FlowState(time=state.time + dt, mesh=state.mesh, density=v,
                    m=state.m)
    # seed the cached property: these are the faces of v
    new.__dict__["faces"] = faces
    return new


def _advance(state: FlowState, dt: float, splits: int) -> FlowState:
    try:
        return _tr_bdf2(state, dt)
    except StepFailure as exc:
        if splits == 0:
            raise StepFailure(f"{exc}; smallest step tried {dt:.3e}") from exc
    half = _advance(state, 0.5 * dt, splits - 1)
    return _advance(half, 0.5 * dt, splits - 1)


def step(state: FlowState, dt: float) -> FlowState:
    """Advance the weighted density by dt with one TR-BDF2 step.

    TR-BDF2 (Bank et al., IEEE Trans. CAD 4, 1985) is second order like
    Crank-Nicolson, and L-stable: Crank-Nicolson alone leaves the stiff
    modes of rough data ringing at steps far above their decay time, and
    they then swamp the Fisher information.  Where a Newton stage fails (a
    singular system, a non-positive update, no convergence), the step is
    taken as two half steps, recursively, down to dt / 2^_MAX_SPLITS.
    Raises StepFailure when even those fail.
    """
    return _advance(state, dt, _MAX_SPLITS)


def free_energy(state: FlowState, stationary: AnalyticProfile) -> float:
    """Relative entropy of the density against the stationary profile, whose
    terms at the cell centers are sampled once per mesh, profile and m."""
    mesh, v, m = state.mesh, state.density, state.m
    key = (stationary.log_peak, stationary.b, stationary.c, stationary.k, m)
    terms = mesh.stationary_terms.get(key)
    if terms is None:
        B = stationary(mesh.radii)
        terms = mesh.stationary_terms[key] = (B, B**m, m * B ** (m - 1.0))
    B, B_m, dB_m = terms
    integrand = v**m - B_m - dB_m * (v - B)
    return mesh.area / (m - 1.0) * float(np.sum(integrand * mesh.vol_w))


def fisher_information(state: FlowState) -> float:
    """Discrete weighted Fisher information matching the scheme dissipation.

    Uses the same harmonic face mobility and (capped) face velocity as the
    update, so the semi-discrete identity dF/dt = -I holds exactly wherever
    the velocity cap is inactive.
    """
    mesh, m = state.mesh, state.m
    faces = state.faces
    contrib = faces.flux * faces.u * mesh.dx_face
    return m / (1.0 - m) * mesh.area * float(np.sum(contrib))


# a free energy below this fraction of the mass is roundoff: in a run at
# mass 50 it settles near 1e-15 and changes sign from row to row
_F_ROUNDOFF = 1e-12


@dataclass
class DecaySeries:
    t: np.ndarray
    F: np.ndarray
    I: np.ndarray
    mass: np.ndarray
    dt: np.ndarray
    stationary: AnalyticProfile
    final: FlowState

    def identity_residuals(self) -> np.ndarray:
        """|dF/dt + I| at midpoints, relative to the midpoint I.

        An interval on which |F| stays within _F_ROUNDOFF of the mass is at
        roundoff: there dF/dt and I are noise, and its residual is 0.
        """
        dF = np.diff(self.F) / np.diff(self.t)
        I_mid = 0.5 * (self.I[1:] + self.I[:-1])
        res = np.abs(dF + I_mid) / np.maximum(I_mid, 1e-300)
        F_end = np.maximum(np.abs(self.F[1:]), np.abs(self.F[:-1]))
        res[F_end <= _F_ROUNDOFF * self.mass[0]] = 0.0
        return res


def _stationary_for_state(state: FlowState) -> AnalyticProfile:
    """Stationary profile mass-matched through the mesh's own mass sum.

    The flow conserves the discrete weighted mass, so the free energy must be
    measured against the member of the stationary family with that same
    discrete mass; matching through the continuum integral instead would
    leave a spurious quadrature-sized energy floor at the end of every run.
    The mesh mass decreases strictly in C.  Its root is bracketed on log C,
    widening [-1, 1] by 2 per side until the signs differ, and refined by
    brentq; the lower end stops where the peak C^(1/(m-1)) reaches the end of
    the float range, and a root beyond it raises AmplitudeOverflow.
    """
    mesh, m = state.mesh, state.m
    lo_end = (m - 1.0) * LOG_FLOAT_MAX

    def f(log_C):
        B = _stationary(math.exp(log_C), m, mesh.alpha)(mesh.radii)
        return mesh.area * float(np.sum(B * mesh.vol_w)) - state.mass

    lo, hi = max(-1.0, lo_end), 1.0
    while not f(lo) > 0:
        if lo == lo_end:
            raise AmplitudeOverflow("the stationary peak leaves the float range")
        lo = max(lo - 2.0, lo_end)
    while not f(hi) < 0:
        hi += 2.0
        if hi > 400:
            raise RootNotBracketed("no upper bracket for the stationary constant")
    log_C = brentq(f, lo, hi, xtol=1e-14, rtol=8.0 * np.finfo(float).eps)
    return _stationary(math.exp(log_C), m, mesh.alpha)


# step budget of run_decay; a run that needs more has stalled
_MAX_STEPS = 2_000_000
# step control of run_decay: the first step, the fraction of the decay time
# F/I one step may span, and the growth allowed from one step to the next
_DT0 = 1e-4
_DECAY_FRACTION = 0.02
_GROWTH = 1.1


def run_decay(u0, m: float, gamma: float, T: float, d: int = 3,
              n_cells: int = 400, r_out: float = 25.0,
              record_every: int = 1) -> DecaySeries:
    """Evolve an initial datum to time T, tracking energy and dissipation.

    A step spans at most _DECAY_FRACTION of the current decay time F/I, grows
    by at most _GROWTH over the previous step, starting from _DT0, and never
    exceeds T/64, so even a stationary start (F = I = 0) produces a resolved
    series.  F/I counts only where F is above roundoff, _F_ROUNDOFF of the
    mass.  The step follows accuracy, not stability: ten steps stay well
    under the decay time, so a series sampled every ten steps still resolves
    dF/dt = -I.
    """
    if not 0.0 < T < math.inf:
        raise ParameterError(f"final time T must lie in (0, inf), got T={T}")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    state = make_state(u0, m, gamma, d, n_cells=n_cells, r_out=r_out)
    stat = _stationary_for_state(state)
    F, I = free_energy(state, stat), fisher_information(state)
    rows = [(state.time, F, I, state.mass, 0.0)]  # t, F, I, mass, dt
    steps, h_grow, floor = 0, _DT0, _F_ROUNDOFF * state.mass
    while state.time < T:
        decay_time = F / I if F > floor and I > 0.0 else math.inf
        h = min(_DECAY_FRACTION * decay_time, h_grow, T / 64.0, T - state.time)
        state = step(state, h)
        F, I = free_energy(state, stat), fisher_information(state)
        steps += 1
        if steps % record_every == 0 or state.time >= T:
            rows.append((state.time, F, I, state.mass, h))
        if steps >= _MAX_STEPS:
            raise StepFailure(f"exceeded {_MAX_STEPS} steps before reaching T={T}")
        h_grow = _GROWTH * h
    return DecaySeries(*map(np.array, zip(*rows)), stationary=stat, final=state)


def fit_decay_rate(series: DecaySeries) -> float:
    """Least-squares slope of -log F over the window F/F(0) in [1e-3, 1e-1],
    without the rows at roundoff, where F is within _F_ROUNDOFF of the mass."""
    F, F0 = series.F, series.F[0]
    mask = (F > _F_ROUNDOFF * series.mass[0]) & (F <= 1e-1 * F0) & (F >= 1e-3 * F0)
    if mask.sum() < 8:
        raise DecayWindowTooShort(f"{mask.sum()} rows in the fit window, 8 needed")
    return -float(np.polyfit(series.t[mask], np.log(F[mask]), 1)[0])
