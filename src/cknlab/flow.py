"""Conservative finite-volume solver for the weighted fast-diffusion flow.

The rescaled equation is a continuity law for the weighted density,

    d/dt (v r^(d-1-gamma)) + d/dr (r^(d-1) v d/dr psi) = 0,
    psi = v^(m-1) - r^(2-gamma),

so the scheme stores cell averages against exact cell integrals of the
weight, moves mass through faces with harmonic-mean mobility against the
full potential drop, and conserves the weighted mass to roundoff by
construction.  The
stationary profile has constant discrete potential, hence exactly zero flux:
it is a fixed point of the scheme, not merely an approximate one.  The same
face terms define the discrete Fisher information, which makes the
semi-discrete energy identity dF/dt = -I exact as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import CFLViolation, NegativeDensity, ParameterError, RootNotBracketed
from .params import ProblemParams, validate_m
from .profiles import AnalyticProfile, RadialProfile
from .quadrature import sphere_area

__all__ = [
    "FlowMesh",
    "FlowState",
    "stationary_profile",
    "make_state",
    "step",
    "stable_dt",
    "free_energy",
    "fisher_information",
    "run_decay",
    "DecaySeries",
    "self_similar_map",
    "fit_decay_rate",
]


@dataclass(frozen=True)
class FlowMesh:
    """Cell mesh on [0, r_out] with exact weighted cell volumes."""

    d: int
    gamma: float
    edges: np.ndarray
    centers: np.ndarray = field(init=False)
    vol_w: np.ndarray = field(init=False)      # int_cell r^(d-1-gamma) dr
    face_area: np.ndarray = field(init=False)  # r^(d-1) at interior faces
    dx_face: np.ndarray = field(init=False)    # center-to-center spacing

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "centers", 0.5 * (e[1:] + e[:-1]))
        wexp = self.d - self.gamma
        object.__setattr__(self, "vol_w",
                           (e[1:] ** wexp - e[:-1] ** wexp) / wexp)
        object.__setattr__(self, "face_area", e[1:-1] ** (self.d - 1.0))
        object.__setattr__(self, "dx_face", np.diff(self.centers))

    @classmethod
    def uniform(cls, d: int, gamma: float, n_cells: int = 400,
                r_out: float = 25.0) -> "FlowMesh":
        return cls(d=d, gamma=gamma,
                   edges=np.linspace(0.0, r_out, n_cells + 1))

    @classmethod
    def graded(cls, d: int, gamma: float, n_cells: int = 400,
               r_out: float = 25.0) -> "FlowMesh":
        """Uniform core patch continued by a geometric tail.

        A quarter of the cells, at least 8, resolve the core [0, 1] uniformly;
        beyond it the cell width grows geometrically.  The mobility of the
        thin outer tail grows like r^(2-gamma), so cells must widen at least
        linearly with r or the tail dominates the stability bound and the
        explicit update parks the tail on the stability edge, where it rings
        instead of relaxing.
        """
        n_core = max(8, int(round(0.25 * n_cells)))
        n_tail = n_cells - n_core
        if n_tail < 1:
            raise ParameterError(f"a graded mesh needs more cells than its "
                                 f"{n_core} core cells, got n_cells={n_cells}")
        if not 1.0 < r_out < math.inf:
            raise ParameterError(f"r_out must lie in (1.0, inf), beyond the "
                                 f"core radius, got r_out={r_out}")
        core = np.linspace(0.0, 1.0, n_core + 1)
        ratio = r_out ** (1.0 / n_tail)
        tail = ratio ** np.arange(1, n_tail + 1)
        return cls(d=d, gamma=gamma, edges=np.concatenate([core, tail]))


@dataclass(frozen=True)
class FlowState:
    """Weighted density on a flow mesh at one time.

    A state is never modified (``step`` returns a new one), so its face terms
    and stability bound are computed once and shared by the time step, the
    flux and the Fisher information.
    """

    time: float
    mesh: FlowMesh
    density: np.ndarray
    m: float
    params: ProblemParams

    def __post_init__(self):
        object.__setattr__(self, "density", np.asarray(self.density, dtype=float))
        if np.any(self.density < 0):
            raise NegativeDensity("initial density has negative cells")

    @property
    def mass(self) -> float:
        area = sphere_area(self.mesh.d)
        return area * float(np.sum(self.mesh.vol_w * self.density))

    @cached_property
    def faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Face velocity and harmonic-mean mobility (see _face_terms)."""
        return _face_terms(self)

    @cached_property
    def dt_limit(self) -> float:
        """Explicit stability bound: linearized diffusion CFL plus positivity.

        The diffusion part linearizes the face flux in the cell value: the
        relaxation rate of cell i is sum over its faces of
        area * mobility * |d psi / d v| / (dx * weighted volume), with the
        potential derivative (1-m) v^(m-2) taken at the smaller neighbor (the
        stiffer side).  The drift part adds area * |d/dr r^(2-gamma)| / volume.
        A current-drain positivity bound is intersected so that large transients
        can never empty a cell in one step.
        """
        mesh, v, m = self.mesh, self.density, self.m
        u, v_face = self.faces

        vl, vr = v[:-1], v[1:]
        v_small = np.minimum(vl, vr)
        # essentially empty cells move no mass (flux <= 2 v^m area/dx) but would
        # dominate the linearized rate; they are frozen out of the bound
        live = v_small > 1e-30
        with np.errstate(divide="ignore", over="ignore"):
            dpsi_dv = np.where(live, (1.0 - m) * v_small ** (m - 2.0), 0.0)
        diff_rate = mesh.face_area * np.minimum(v_face, v_small) * dpsi_dv \
            / mesh.dx_face
        r_f = mesh.edges[1:-1]
        drift_rate = mesh.face_area * (2.0 - mesh.gamma) * r_f ** (1.0 - mesh.gamma)
        face_rate = diff_rate + drift_rate
        lam = np.zeros_like(v)
        lam[:-1] += face_rate
        lam[1:] += face_rate
        lam /= mesh.vol_w
        dt_lin = 1.0 / float(np.max(lam)) if np.max(lam) > 0 else math.inf

        rate = mesh.face_area * v_face * np.abs(u)
        out = np.zeros_like(v)
        np.add.at(out, np.where(u > 0.0, np.arange(u.size), np.arange(1, v.size)),
                  rate)
        cell_mass = v * mesh.vol_w
        with np.errstate(divide="ignore", invalid="ignore"):
            per_cell = np.where(out > 0.0, cell_mass / out, np.inf)
        dt_pos = float(np.min(per_cell))
        return min(dt_lin, dt_pos)


def _stationary(C: float, m: float, gamma: float) -> AnalyticProfile:
    """Stationary state (C + r^(2-gamma))^(1/(m-1)), a Barenblatt profile."""
    return AnalyticProfile(amplitude=1.0, b=C, c=2.0 - gamma, k=1.0 / (1.0 - m))


def stationary_profile(m: float, gamma: float, d: int, M: float) -> AnalyticProfile:
    """Stationary state with prescribed weighted mass; its ``b`` is C.

    The profile, hence its weighted mass, decreases strictly in C (the
    exponent 1/(m-1) is negative), so mass(C) = M has exactly one root.
    """
    validate_m(d, gamma, m)
    if M <= 0:
        raise ParameterError(f"target mass must be positive, got {M}")
    C = _solve_log_C(lambda C: _stationary(C, m, gamma).moment(1.0, d, gamma), M)
    return _stationary(C, m, gamma)


def _solve_log_C(mass_of_C, M: float) -> float:
    """The stationary constant C > 0 with mass_of_C(C) = M.

    mass_of_C must decrease strictly in C.  The root is bracketed on log C,
    widening [-1, 1] by 2 per side until the signs differ, and refined by
    brentq.
    """
    def f(logC):
        return mass_of_C(math.exp(logC)) - M

    lo, hi = -1.0, 1.0
    while not f(lo) > 0:
        lo -= 2.0
        if lo < -400:
            raise RootNotBracketed("no lower bracket for the stationary constant")
    while not f(hi) < 0:
        hi += 2.0
        if hi > 400:
            raise RootNotBracketed("no upper bracket for the stationary constant")
    return math.exp(brentq(f, lo, hi, xtol=1e-14, rtol=8.0 * np.finfo(float).eps))


def make_state(u0, m: float, gamma: float, d: int, n_cells: int = 400,
               r_out: float = 25.0, mesh: FlowMesh | None = None) -> FlowState:
    """Sample an initial datum onto a flow mesh.

    u0 may be a callable of r or a RadialProfile (interpolated linearly).
    """
    params = validate_m(d, gamma, m)
    if mesh is None:
        mesh = FlowMesh.graded(d, gamma, n_cells=n_cells, r_out=r_out)
    if isinstance(u0, RadialProfile):
        v = np.interp(mesh.centers, u0.radii, u0.values)
    else:
        v = np.asarray(u0(mesh.centers), dtype=float)
    return FlowState(time=0.0, mesh=mesh, density=v, m=m, params=params)


def _potential(v: np.ndarray, centers: np.ndarray, m: float,
               gamma: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        vm = np.where(v > 0.0, v ** (m - 1.0), np.inf)
    return vm - centers ** (2.0 - gamma)


def _face_terms(state: FlowState):
    """Face velocity and harmonic-mean mobility for the current density.

    The harmonic mean vanishes whenever either neighbor is empty, so no flux
    ever enters a vacuum cell and the infinite potential there never meets a
    nonzero mobility.  The velocity is capped at _default_cap(mesh).
    """
    mesh, v = state.mesh, state.density
    cap = _default_cap(mesh)
    psi = _potential(v, mesh.centers, state.m, mesh.gamma)
    dpsi = psi[1:] - psi[:-1]
    with np.errstate(invalid="ignore"):
        u = dpsi / mesh.dx_face
    vl, vr = v[:-1], v[1:]
    both = vl * vr
    v_face = np.where(both > 0.0, 2.0 * both / (vl + vr), 0.0)
    u = np.where(v_face == 0.0, 0.0, np.clip(u, -cap, cap))
    u = np.where(np.isnan(u), 0.0, u)
    return u, v_face


def stable_dt(state: FlowState, safety: float = 0.4) -> float:
    """Explicit time step, a safety fraction of the bound ``state.dt_limit``."""
    return safety * state.dt_limit


def _default_cap(mesh: FlowMesh) -> float:
    # 50x the largest drift speed on the mesh; only near-vacuum cells with
    # exploding v^(m-1) ever reach it
    return 50.0 * (2.0 - mesh.gamma) * float(mesh.edges[-1]) ** (1.0 - mesh.gamma)


def step(state: FlowState, dt: float) -> FlowState:
    """One conservative explicit update of the weighted density."""
    mesh, v = state.mesh, state.density
    limit = state.dt_limit
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:.3e} exceeds the stability bound {limit:.3e}")
    u, v_face = state.faces
    flux = mesh.face_area * v_face * u
    div = np.zeros_like(v)
    div[:-1] += flux
    div[1:] -= flux
    v_new = v - dt * div / mesh.vol_w
    if np.any(v_new < 0.0):
        worst = float(np.min(v_new))
        raise NegativeDensity(f"limiter failure, most negative cell {worst:.3e}")
    return replace(state, time=state.time + dt, density=v_new)


def free_energy(state: FlowState, stationary: AnalyticProfile) -> float:
    """Relative entropy of the density against the stationary profile."""
    mesh, v, m = state.mesh, state.density, state.m
    B = stationary(mesh.centers)
    with np.errstate(divide="ignore"):
        vm = np.where(v > 0, v**m, 0.0)
    integrand = vm - B**m - m * B ** (m - 1.0) * (v - B)
    area = sphere_area(mesh.d)
    return area / (m - 1.0) * float(np.sum(integrand * mesh.vol_w))


def fisher_information(state: FlowState) -> float:
    """Discrete weighted Fisher information matching the scheme dissipation.

    Uses the same harmonic face mobility and (capped) face velocity as the
    update, so the semi-discrete identity dF/dt = -I holds exactly wherever
    the velocity cap is inactive.
    """
    mesh, m = state.mesh, state.m
    u, v_face = state.faces
    area = sphere_area(mesh.d)
    contrib = mesh.face_area * v_face * u * u * mesh.dx_face
    return m / (1.0 - m) * area * float(np.sum(contrib))


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
        """|dF/dt + I| at midpoints, relative to the midpoint I."""
        dF = np.diff(self.F) / np.diff(self.t)
        I_mid = 0.5 * (self.I[1:] + self.I[:-1])
        return np.abs(dF + I_mid) / np.maximum(I_mid, 1e-300)

    def to_csv(self) -> str:
        lines = ["t,F,I,mass,dt"]
        for k in range(self.t.size):
            lines.append(",".join(repr(float(x)) for x in
                                  (self.t[k], self.F[k], self.I[k],
                                   self.mass[k], self.dt[k])))
        return "\n".join(lines) + "\n"


def _stationary_for_state(state: FlowState) -> AnalyticProfile:
    """Stationary profile mass-matched through the mesh's own mass sum.

    The flow conserves the discrete weighted mass, so the free energy must be
    measured against the member of the stationary family with that same
    discrete mass; matching through the continuum integral instead would
    leave a spurious quadrature-sized energy floor at the end of every run.
    """
    mesh, m = state.mesh, state.m
    area = sphere_area(mesh.d)

    def mesh_mass(C):
        B = _stationary(C, m, mesh.gamma)(mesh.centers)
        return area * float(np.sum(B * mesh.vol_w))

    return _stationary(_solve_log_C(mesh_mass, state.mass), m, mesh.gamma)


# step budget of run_decay; a run that needs more has stalled
_MAX_STEPS = 2_000_000


def run_decay(u0, m: float, gamma: float, T: float, d: int = 3,
              n_cells: int = 400, r_out: float = 25.0,
              record_every: int = 1) -> DecaySeries:
    """Evolve an initial datum to time T, tracking energy and dissipation.

    Each step takes the adaptive stability bound, never more than T/64, so
    even a stationary start produces a resolved series.
    """
    if not 0.0 < T < math.inf:
        raise ParameterError(f"final time T must lie in (0, inf), got T={T}")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    state = make_state(u0, m, gamma, d, n_cells=n_cells, r_out=r_out)
    stat = _stationary_for_state(state)
    ts, Fs, Is, masses, dts = [], [], [], [], []

    def record(s: FlowState, used_dt: float):
        ts.append(s.time)
        Fs.append(free_energy(s, stat))
        Is.append(fisher_information(s))
        masses.append(s.mass)
        dts.append(used_dt)

    record(state, 0.0)
    steps = 0
    while state.time < T:
        h = min(stable_dt(state), T / 64.0, T - state.time)
        state = step(state, h)
        steps += 1
        if steps % record_every == 0 or state.time >= T:
            record(state, h)
        if steps >= _MAX_STEPS:
            raise CFLViolation(f"exceeded {_MAX_STEPS} steps before reaching T={T}")
    return DecaySeries(t=np.array(ts), F=np.array(Fs), I=np.array(Is),
                       mass=np.array(masses), dt=np.array(dts),
                       stationary=stat, final=state)


def fit_decay_rate(series: DecaySeries) -> float:
    """Least-squares slope of -log F over the window F/F(0) in [1e-3, 1e-1]."""
    F0 = series.F[0]
    mask = (series.F > 0) & (series.F <= 1e-1 * F0) & (series.F >= 1e-3 * F0)
    if mask.sum() < 8:
        raise ValueError("decay window too short to fit a rate")
    t, logF = series.t[mask], np.log(series.F[mask])
    slope = np.polyfit(t, logF, 1)[0]
    return -float(slope)


def self_similar_map(profile: RadialProfile, params: ProblemParams, m: float,
                     t: float, direction: str = "to_selfsim") -> RadialProfile:
    """Map between the physical frame and the self-similar frame.

    The expansion factor R(t) = [1 + (2-gamma)(d-gamma)(m - m_c) t]^(1/((d -
    gamma)(m - m_c))) relates a physical-frame density u at time t to the
    rescaled density v at time log(R)/(2-gamma) through
    u(t, x) = R^(gamma-d) v(tau, x/R).  Both directions are exact inverses.
    """
    d, g = params.d, params.gamma
    m_c = (d - 2.0) / (d - g)
    if m == m_c:
        raise ValueError("the map is singular at the extinction exponent")
    a = (d - g) * (m - m_c)
    R = (1.0 + (2.0 - g) * a * t) ** (1.0 / a)
    tau = math.log(R) / (2.0 - g)
    if direction == "to_selfsim":
        radii = profile.radii / R
        values = profile.values * R ** (d - g)
        meta = dict(profile.meta, frame="selfsim", tau=tau, R=R)
    elif direction == "to_physical":
        radii = profile.radii * R
        values = profile.values * R ** (g - d)
        meta = dict(profile.meta, frame="physical", t=t, R=R)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return RadialProfile(radii=radii, values=values,
                         tail_exponent=profile.tail_exponent, meta=meta)
