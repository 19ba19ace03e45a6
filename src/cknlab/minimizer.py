"""Radial best constants by direct constrained minimization in the flat variable.

The energy G[w] = 0.5 |grad w|^2 + (p+1)^(-1) |w|_(p+1,gamma)^(p+1) is
minimized over nonnegative radial profiles with the weighted L^(2p) mass held
fixed.  The solver works in s = (r/c_map)^alpha, alpha = (2-gamma)/2,
c_map = alpha^(1/alpha), the map of shooting and the sector spectra.  There
every weight gamma is the gamma = 0 problem in the real dimension
d_gamma = 2(d-gamma)/(2-gamma) (Bonforte-Dolbeault-Muratori-Nazaret, KRM 10,
2017): X = |w'|_2^2, Y = |w|_(p+1,gamma)^(p+1) and the mass are
K = |S^(d-1)| alpha^(d_gamma-1) times their integrals against
s^(d_gamma-1) ds, and the exponents of the quotient and of J are the same for
both triples, so every result maps back by K.

The flat problem is normalized at the unit-peak optimizer
u(s) = (1 + s^2/a)^(-1/(p-1)), a the flat a_gamma, dilated to a given mass,
so no amplitude a^(1/(p-1)) is formed.  Its geometric grid ends where the
integrands of X, Y and the mass of that candidate shed TAIL_SHARE each.  The
mass constraint is a pure power of a norm, so every iterate is rescaled to
the exact mass.  The Hessian of the Lagrangian is tridiagonal, so each level
of a coarse-to-fine ladder is solved by damped Newton on its bordered (KKT)
system, one banded solve per step.  Piecewise-linear gradients with exact
cell moments of the measure keep the discretization bias of the quotient far
below the solver tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import betaln

from .errors import AmplitudeOverflow, GridTooCoarse, NoDescent, ParameterError
from .params import (ProblemParams, derive, kappa, scaling_exponents,
                     to_flat_variables)
from .profiles import AnalyticProfile, RadialProfile, tail_bounds, w_star
from .quadrature import sphere_area

__all__ = [
    "MinimizationReport",
    "minimize_radial",
    "best_constant_radial",
    "hs_upper_bound",
]


#: Largest admissible |dilation_balance| at the discrete minimizer.  A true
#: minimizer is stationary under dilation, so the balance vanishes up to
#: discretization error; it stays below 1e-4 wherever the grid holds the
#: profile's transition and reaches 1e-2 where the domain truncates it.
DILATION_BALANCE_MAX = 1e-3

#: Damped Newton on each ladder level.  The Levenberg weight starts at
#: NEWTON_LAM_START: with 1e-6 the first cold-start steps at (4, 1.5, 1.1)
#: jump to the constant profile, a local minimum of the discrete problem.  A
#: level that needs a weight above NEWTON_LAM_MAX, or more than
#: NEWTON_MAX_STEPS steps, raises NoDescent.  A level has converged once a
#: step changes the energy by at most NEWTON_ENERGY_RTOL and no node by more
#: than NEWTON_STEP_RTOL, both relative.
NEWTON_LAM_START = 1e-2
NEWTON_LAM_MAX = 1e12
NEWTON_MAX_STEPS = 200
NEWTON_ENERGY_RTOL = 1e-15
NEWTON_STEP_RTOL = 1e-10


@dataclass
class MinimizationReport:
    best_quotient: float
    best_profile: RadialProfile
    iterations: int
    gradient_norm: float
    reference: float
    J: float
    mass: float
    dilation_balance: float
    err_estimate: float
    s_min: float
    s_max: float


class _Flat:
    """The flat problem at a mass in r (None: unit peak), computed in logs.

    Its candidate amp (1 + (s/scale)^2)^(-k), k = 1/(p-1), is the optimizer of
    that mass.  Its measure is (s/scale)^(d_gamma-1) ds, whose powers stay in
    the float range, so K = |S^(d-1)| (alpha scale)^(d_gamma-1).
    """

    def __init__(self, params: ProblemParams, mass: float | None):
        d_g, p = derive(params).d_gamma, params.p
        self.d_gamma, self.p, k = d_g, p, 1.0 / (p - 1.0)
        log_a = math.log(2.0 * (d_g - p * (d_g - 2.0)) * k * k)
        # K at scale 1, and the integral of u^(2p) s^(d_g-1), u the unit-peak
        # optimizer (1 + s^2/a)^(-k): a^(d_g/2) int t^(d_g-1) (1 + t^2)^(-2pk)
        log_k1 = math.log(sphere_area(params.d)) \
            + (d_g - 1.0) * math.log(1.0 - params.gamma / 2.0)
        log_u = betaln(0.5 * d_g, 2.0 * p * k - 0.5 * d_g) - math.log(2.0) \
            + 0.5 * d_g * log_a
        # the optimizer amp u(s/lam), lam = amp^(-(p-1)/2), has the mass in r
        # amp^(2p) lam^(d_g) exp(log_k1 + log_u)
        log_M, log_amp = log_k1 + log_u, 0.0
        if mass is not None:
            log_M = math.log(mass)
            log_amp = (log_M - log_k1 - log_u) / (2.0 * p - 0.5 * d_g * (p - 1.0))
        log_scale = 0.5 * log_a - 0.5 * (p - 1.0) * log_amp
        log_K = log_k1 + (d_g - 1.0) * log_scale
        if max(map(abs, (log_K, log_M, log_M - log_K, log_amp, log_scale))) > 700:
            raise AmplitudeOverflow(f"the map back to r needs K = exp({log_K:.1f})"
                                    f" and the mass exp({log_M:.1f})")
        self.amp, self.scale = math.exp(log_amp), math.exp(log_scale)
        self.mass, self.K = math.exp(log_M - log_K), math.exp(log_K)
        # the integrands of X, Y and the mass of the candidate, in s/scale
        self.s_min, self.s_max = tail_bounds(self.scale, [
            (d_g + 2.0, 2.0 * k + 2.0), (d_g, (p + 1.0) * k), (d_g, 2.0 * p * k)])

    def candidate(self, s: np.ndarray) -> np.ndarray:
        return self.amp * np.exp(-np.log1p((s / self.scale) ** 2)
                                 / (self.p - 1.0))


class _Discretization:
    """n geometric nodes on [s_min, s_max], lumped masses, gradient weights.

    A profile is constant below s_min and falls linearly from its last node
    to 0 at the next geometric node, so the discrete problem restricts the
    one on the whole line; the constant profile is no competitor.
    """

    def __init__(self, flat: _Flat, n: int):
        self.flat, self.p = flat, flat.p
        self.s = np.geomspace(flat.s_min, flat.s_max, n)
        d_g, t = flat.d_gamma, self.s / flat.scale
        # the first cell reaches down to s = 0: a constant-value closure
        edges = np.concatenate([[0.0], 0.5 * (t[1:] + t[:-1]), [t[-1]]])
        self.m = flat.scale * np.diff(edges**d_g) / d_g
        nodes = np.append(t, t[-1] ** 2 / t[-2])
        c = np.diff(nodes**d_g) / d_g / (flat.scale * np.diff(nodes) ** 2)
        self.c, self.c_end = c[:-1], c[-1]  # cells, and the fall to 0
        self.c_full = c.copy()  # diagonal of the stiffness matrix
        self.c_full[1:] += self.c

    def stiffness_apply(self, w: np.ndarray) -> np.ndarray:
        dw = w[1:] - w[:-1]
        out = np.zeros_like(w)
        out[:-1] -= self.c * dw
        out[1:] += self.c * dw
        out[-1] += self.c_end * w[-1]
        return 2.0 * out

    def functionals(self, w: np.ndarray):
        p = self.p
        X = float(np.sum(self.c * (w[1:] - w[:-1]) ** 2)
                  + self.c_end * w[-1] ** 2)
        Y = float(np.sum(self.m * np.abs(w) ** (p + 1)))
        mass = float(np.sum(self.m * np.abs(w) ** (2 * p)))
        return X, Y, mass


def _quotient(params: ProblemParams, X: float, Y: float, mass: float) -> float:
    """Interpolation quotient from X = |w'|_2^2, Y = |w|_(p+1,gamma)^(p+1) and
    mass = |w|_(2p,gamma)^(2p) of one profile, discrete or exact."""
    p, vt = params.p, derive(params).vartheta
    return X ** (vt / 2.0) * Y ** ((1.0 - vt) / (p + 1.0)) \
        / mass ** (1.0 / (2.0 * p))


def _at_mass(disc: _Discretization, w: np.ndarray, target_mass: float):
    """The mass-rescaled profile t w and its energy 0.5 X + Y/(p+1), with
    t = (M / mass(w))^(1/(2p)); the energy is inf if w has no mass."""
    p = disc.p
    X, Y, mass = disc.functionals(w)
    if mass <= 0.0:
        return w, math.inf
    t = (target_mass / mass) ** (1.0 / (2.0 * p))
    return t * w, 0.5 * t * t * X + t ** (p + 1) * Y / (p + 1.0)


def _kkt(disc: _Discretization, w: np.ndarray, target_mass: float):
    """Residual, mass gradient and Hessian diagonal of the Lagrangian
    0.5 X + Y/(p+1) - mu (mass - M) at a mass-rescaled iterate w.

    mu = (X + Y)/(2p M) is the multiplier that makes the residual orthogonal
    to w.  The Hessian is tridiagonal: its off-diagonal bands are -disc.c.
    """
    p, m = disc.p, disc.m
    X, Y, _ = disc.functionals(w)
    mu = (X + Y) / (2.0 * p * target_mass)
    wp = w ** (p - 1.0)
    wq = w ** (2.0 * p - 2.0)
    g = 2.0 * p * m * wq * w
    resid = 0.5 * disc.stiffness_apply(w) + m * wp * w - mu * g
    diag = disc.c_full + p * m * wp - 2.0 * p * (2.0 * p - 1.0) * mu * m * wq
    return resid, g, diag


def _newton(disc: _Discretization, w0: np.ndarray, target_mass: float):
    """Damped Newton on the bordered (KKT) system of one ladder level.

    Each step solves (H + lam D) [a, b] = [resid, g] with one banded solve,
    takes the multiplier step d_mu = g.a / g.b from the Schur complement,
    clips w - a + d_mu b to w >= 0 and rescales it to the exact mass.
    D = 2 c_full + m is the diagonal scale of the graded grid.  A step is
    accepted only if the mass-normalized energy does not rise; lam shrinks
    tenfold on acceptance and grows tenfold on rejection.  Returns the
    mass-rescaled minimizer and the number of steps taken.
    """
    w, G = _at_mass(disc, np.maximum(w0, 0.0), target_mass)
    if G == math.inf:
        raise NoDescent(f"the start profile has no mass on the {w.size}-node "
                        f"level")
    shift = 2.0 * disc.c_full + disc.m
    ab = np.zeros((3, w.size))
    ab[0, 1:] = -disc.c
    ab[2, :-1] = -disc.c
    lam = NEWTON_LAM_START
    resid, g, diag = _kkt(disc, w, target_mass)
    for step in range(1, NEWTON_MAX_STEPS + 1):
        ab[1] = diag + lam * shift
        a, b = solve_banded((1, 1), ab, np.column_stack([resid, g])).T
        clipped = np.maximum(w - a + (g @ a) / (g @ b) * b, 0.0)
        trial, G_trial = _at_mass(disc, clipped, target_mass)
        settled = abs(G_trial - G) <= NEWTON_ENERGY_RTOL * G and \
            np.max(np.abs(trial - w)) <= NEWTON_STEP_RTOL * np.max(w)
        accepted = G_trial <= G
        if accepted:
            w, G, lam = trial, G_trial, lam / 10.0
        if settled:
            return w, step
        if accepted:
            resid, g, diag = _kkt(disc, w, target_mass)
        else:
            lam *= 10.0
            if lam > NEWTON_LAM_MAX:
                raise NoDescent(f"no descent step from energy {G} on the "
                                f"{w.size}-node level: the damping passed "
                                f"{NEWTON_LAM_MAX:.0e}")
    raise NoDescent(f"no convergence in {NEWTON_MAX_STEPS} Newton steps on "
                    f"the {w.size}-node level")


def _solve(disc: _Discretization, start_fn, target_mass: float):
    """Coarse-to-fine continuation on the ladder n -> n//2 + 1 -> ... <= 128.

    The ladder has at least two levels; its second-finest level is the
    Richardson coarse grid, whose minimum energy G_coarse is returned too.
    Each level is one damped Newton solve started from the interpolated
    coarser minimizer, so only the coarsest level sees the start profile.
    """
    n_fine = disc.s.size
    sizes = [n_fine, n_fine // 2 + 1]
    while sizes[-1] > 128:
        sizes.append(sizes[-1] // 2 + 1)
    sizes.reverse()

    total_it = 0
    level = w = None
    for n in sizes:
        coarse, w_coarse = level, w
        level = disc if n == n_fine else _Discretization(disc.flat, n)
        if w is None:
            w0 = np.asarray(start_fn(level.s), dtype=float)
        else:
            w0 = np.interp(np.log(level.s), np.log(coarse.s), w)
        w, nit = _newton(level, w0, target_mass)
        total_it += nit
    _, G_coarse = _at_mass(coarse, w_coarse, target_mass)
    _, G = _at_mass(disc, w, target_mass)

    # projected gradient of the mass-normalized energy, which at a
    # mass-rescaled w is the KKT residual: free components as is, active
    # bound only if pushing in
    grad = _kkt(disc, w, target_mass)[0]
    pg = np.where(w > 0, grad, np.minimum(grad, 0.0))
    return w, G, float(np.max(np.abs(pg))), total_it, G_coarse


def minimize_radial(params: ProblemParams, n: int = 1024,
                    solver_tol: float = 1e-4, mass: float | None = None,
                    start: str = "warm") -> MinimizationReport:
    """Minimize the constrained energy over nonnegative radial grid profiles.

    The flat problem is solved on n nodes at the mass in r ``mass``, by
    default the unit-peak optimizer's.  start: 'warm' begins at 1.2 x the
    candidate, 'cold' at a Gaussian bump; both must reach the same minimum.
    The report carries, in r, the quotient at the discrete minimizer, the
    quotient at the grid-sampled candidate as reference and a two-grid
    Richardson error estimate, whose coarse grid is the ladder's
    second-finest level (n//2 + 1 nodes); s_min and s_max are the grid ends.

    Two guards turn a wrong minimum into GridTooCoarse: the Richardson
    estimate must stay within solver_tol * J, and |dilation_balance| within
    DILATION_BALANCE_MAX.  The second catches a domain that truncates the
    profile's transition, which both Richardson grids share.
    """
    if n < 3:
        raise ParameterError(f"grid n must be >= 3 so that the coarse level "
                             f"n//2 + 1 is coarser, got n={n}")
    if not 0.0 < solver_tol < math.inf:
        raise ParameterError(f"solver_tol must be finite and > 0, "
                             f"got {solver_tol}")
    if mass is not None and not 0.0 < mass < math.inf:
        raise ParameterError(f"mass must be finite and > 0, got {mass}")
    if start not in ("warm", "cold"):
        raise ParameterError(f"start must be 'warm' or 'cold', got {start!r}")
    p, theta = params.p, derive(params).theta_gamma
    flat = _Flat(params, mass)
    disc, K, M = _Discretization(flat, n), flat.K, flat.mass

    if start == "warm":
        start_fn = lambda s: 1.2 * flat.candidate(s)  # noqa: E731
    else:
        start_fn = lambda s: np.exp(-((s / flat.scale) ** 2))  # noqa: E731

    w_hat, G, pgnorm, nit, G_c = _solve(disc, start_fn, M)

    X, Y, mass_h = disc.functionals(w_hat)
    quot = _quotient(params, K * X, K * Y, K * mass_h)

    # reference: the candidate, evaluated with the same discrete functionals
    cand, G_ref = _at_mass(disc, flat.candidate(disc.s), M)
    Xc, Yc, _ = disc.functionals(cand)
    ref_quot = _quotient(params, K * Xc, K * Yc, K * M)

    if G > G_ref * (1.0 + 10.0 * solver_tol):
        raise NoDescent(
            f"minimum {G} stalled above the explicit candidate {G_ref}"
        )

    J = K * G / (K * M) ** theta
    A, B = scaling_exponents(params)
    balance = (0.5 * A * X - B * Y / (p + 1)) / G

    J_c = K * G_c / (K * M) ** theta
    err_est = abs(J - J_c) / 3.0
    if err_est > solver_tol * abs(J):
        raise GridTooCoarse(
            f"Richardson estimate {err_est:.3e} exceeds "
            f"{solver_tol:.1e} * J = {solver_tol * abs(J):.3e}"
        )
    if abs(balance) > DILATION_BALANCE_MAX:
        raise GridTooCoarse(
            f"dilation balance {balance:.3e} exceeds {DILATION_BALANCE_MAX:.0e}: "
            f"the grid [{flat.s_min:g}, {flat.s_max:g}] in s does not hold "
            f"the minimizer's profile"
        )

    # log r = log c_map + log(s)/alpha, as shooting maps back; radii past
    # the float range are dropped
    with np.errstate(over="ignore", under="ignore"):
        radii = np.exp(to_flat_variables(params)[1]
                       + np.log(disc.s) / (1.0 - params.gamma / 2.0))
    keep = (radii >= np.finfo(float).tiny) & np.isfinite(radii)
    if np.count_nonzero(keep) < 2:
        raise AmplitudeOverflow("the radii of the grid leave the float range")
    profile = RadialProfile(
        radii=radii[keep], values=w_hat[keep],
        tail_exponent=(2.0 - params.gamma) / (p - 1.0),
        meta={"start": start, "mass": K * M},
    )
    return MinimizationReport(
        best_quotient=quot, best_profile=profile, iterations=nit,
        gradient_norm=K * pgnorm, reference=ref_quot, J=J, mass=K * M,
        dilation_balance=balance, err_estimate=err_est, s_min=flat.s_min,
        s_max=flat.s_max,
    )


def best_constant_radial(params: ProblemParams) -> tuple[float, float]:
    """Radial best constant and energy constant from the explicit optimizer.

    Returns (C_star, J) with C_star the reciprocal of the quotient at the
    explicit profile, from its exact moments, and J = kappa * C_star^(-2 p theta).
    """
    ex = derive(params)
    d, g, p = params.d, params.gamma, params.p
    w = w_star(params)
    c_star = 1.0 / _quotient(params, w.gradient_moment(d),
                             w.moment(p + 1.0, d, g), w.moment(2.0 * p, d, g))
    J = kappa(params) * c_star ** (-2.0 * p * ex.theta_gamma)
    return c_star, J


def critical_constant(d: int, gamma: float) -> float:
    """Best constant of the single-norm endpoint inequality.

    For gamma in [0, 2) the endpoint exponent is p = (d - gamma)/(d - 2) and
    the explicit radial optimizer (1 + r^(2-gamma))^(-1/(p-1)) gives the
    constant in closed form; at gamma = 2 it degenerates to the classical
    Hardy value 2/(d - 2).
    """
    if not (0.0 <= gamma <= 2.0):
        raise ValueError(f"gamma must lie in [0, 2], got {gamma}")
    if gamma == 2.0:
        return 2.0 / (d - 2.0)
    p_crit = (d - gamma) / (d - 2.0)
    w = AnalyticProfile(amplitude=1.0, b=1.0, c=2.0 - gamma,
                        k=1.0 / (p_crit - 1.0))
    return w.moment(2.0 * p_crit, d, gamma) ** (1.0 / (2.0 * p_crit)) \
        / math.sqrt(w.gradient_moment(d))


def hs_upper_bound(params: ProblemParams) -> float:
    """Upper bound on the best constant through the critical-exponent endpoint.

    The interpolation of the weighted norms through the critical exponent
    bounds the best constant by critical_constant^vartheta.  Raises if the
    bound fails against the radial constant (it never should).
    """
    ex = derive(params)
    bound = critical_constant(params.d, params.gamma) ** ex.vartheta
    c_star, _ = best_constant_radial(params)
    if c_star > bound * (1.0 + 1e-12):
        raise AssertionError(
            f"radial constant {c_star} exceeds interpolation bound {bound}"
        )
    return bound
