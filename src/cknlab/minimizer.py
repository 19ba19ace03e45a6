"""Radial best constants by direct constrained minimization on a graded grid.

The energy G[w] = 0.5 |grad w|^2 + (p+1)^(-1) |w|_(p+1,gamma)^(p+1) is
minimized over nonnegative grid profiles with the weighted L^(2p) mass held
fixed.  The mass constraint is a pure power of a norm, so every iterate is
rescaled to the exact mass.  The Hessian of the Lagrangian is tridiagonal, so
each level of a coarse-to-fine ladder is solved by damped Newton on its
bordered (KKT) system, one banded solve per step.

Discrete functionals use piecewise-linear gradients with exact cell moments of
the power weights, which keeps the discretization bias of the quotient at the
minimizer far below the solver tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import GridTooCoarse, NoDescent, ParameterError
from .params import (ProblemParams, check_radial_bounds, derive, kappa,
                     scaling_exponents)
from .profiles import (AnalyticProfile, RadialProfile, barenblatt_mass,
                       dilate_to_mass, w_gamma_star, w_star)
from .quadrature import sphere_area

__all__ = [
    "GridConfig",
    "MinimizationReport",
    "discretize",
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


@dataclass(frozen=True)
class GridConfig:
    n: int = 1024
    r_min: float = 1e-3
    r_max: float = 1e3

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"a grid needs at least 2 nodes, got n={self.n}")
        check_radial_bounds(self.r_min, self.r_max)


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
    grid: GridConfig
    err_estimate: float


class _Discretization:
    """Grid, lumped weighted masses and gradient weights for one parameter set."""

    def __init__(self, params: ProblemParams, grid: GridConfig):
        d, g = params.d, params.gamma
        self.params = params
        self.grid = grid
        self.r = np.geomspace(grid.r_min, grid.r_max, grid.n)
        area = sphere_area(d)
        edges = np.concatenate([[grid.r_min],
                               0.5 * (self.r[1:] + self.r[:-1]),
                               [grid.r_max]])
        wexp = d - g
        m = (edges[1:] ** wexp - edges[:-1] ** wexp) / wexp
        m[0] += grid.r_min**wexp / wexp  # constant-value closure down to r = 0
        self.m = area * m
        cell = (self.r[1:] ** d - self.r[:-1] ** d) / d
        self.c = area * cell / (self.r[1:] - self.r[:-1]) ** 2
        self.c_full = np.zeros(grid.n)  # diagonal of the stiffness matrix
        self.c_full[:-1] += self.c
        self.c_full[1:] += self.c

    def stiffness_apply(self, w: np.ndarray) -> np.ndarray:
        dw = w[1:] - w[:-1]
        out = np.zeros_like(w)
        out[:-1] -= self.c * dw
        out[1:] += self.c * dw
        return 2.0 * out

    def functionals(self, w: np.ndarray, p: float):
        X = float(np.sum(self.c * (w[1:] - w[:-1]) ** 2))
        Y = float(np.sum(self.m * np.abs(w) ** (p + 1)))
        mass = float(np.sum(self.m * np.abs(w) ** (2 * p)))
        return X, Y, mass

    def rescaled(self, w: np.ndarray, target_mass: float):
        """(t, t^2 X, t^(p+1) Y, mass(w)) with t = (M / mass(w))^(1/(2p))."""
        p = self.params.p
        X, Y, mass = self.functionals(w, p)
        t = (target_mass / mass) ** (1.0 / (2.0 * p)) if mass > 0.0 else math.inf
        return t, t * t * X, t ** (p + 1) * Y, mass


def discretize(params: ProblemParams, grid: GridConfig) -> _Discretization:
    return _Discretization(params, grid)


def _quotient(params: ProblemParams, X: float, Y: float, mass: float) -> float:
    """Interpolation quotient from X = |w'|_2^2, Y = |w|_(p+1,gamma)^(p+1) and
    mass = |w|_(2p,gamma)^(2p) of one profile, discrete or exact."""
    p, vt = params.p, derive(params).vartheta
    return X ** (vt / 2.0) * Y ** ((1.0 - vt) / (p + 1.0)) \
        / mass ** (1.0 / (2.0 * p))


def _at_mass(disc: _Discretization, w: np.ndarray, target_mass: float):
    """The mass-rescaled profile t w and its energy 0.5 X + Y/(p+1), with
    t = (M / mass(w))^(1/(2p)); the energy is inf if w has no mass."""
    t, Xh, Yh, mass = disc.rescaled(w, target_mass)
    if mass <= 0.0:
        return w, math.inf
    return t * w, 0.5 * Xh + Yh / (disc.params.p + 1.0)


def _kkt(disc: _Discretization, w: np.ndarray, target_mass: float):
    """Residual, mass gradient and Hessian diagonal of the Lagrangian
    0.5 X + Y/(p+1) - mu (mass - M) at a mass-rescaled iterate w.

    mu = (X + Y)/(2p M) is the multiplier that makes the residual orthogonal
    to w.  The Hessian is tridiagonal: its off-diagonal bands are -disc.c.
    """
    p, m = disc.params.p, disc.m
    X, Y, _ = disc.functionals(w, p)
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
    grid = disc.grid
    sizes = [grid.n, grid.n // 2 + 1]
    while sizes[-1] > 128:
        sizes.append(sizes[-1] // 2 + 1)
    sizes.reverse()

    total_it = 0
    level = w = None
    for n in sizes:
        coarse, w_coarse = level, w
        level = disc if n == grid.n else _Discretization(
            disc.params, GridConfig(n=n, r_min=grid.r_min, r_max=grid.r_max))
        if w is None:
            w0 = np.asarray(start_fn(level.r), dtype=float)
        else:
            w0 = np.interp(np.log(level.r), np.log(coarse.r), w)
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


def minimize_radial(params: ProblemParams, grid: GridConfig | None = None,
                    solver_tol: float = 1e-4, mass: float | None = None,
                    start: str = "warm") -> MinimizationReport:
    """Minimize the constrained energy over nonnegative radial grid profiles.

    start: 'warm' begins at 1.2 x the explicit optimizer, 'cold' at a Gaussian
    bump; both must reach the same minimum.  The report carries the quotient
    at the discrete minimizer, the quotient at the grid-sampled explicit
    optimizer as reference, and a two-grid Richardson error estimate; its
    coarse grid is the ladder's second-finest level (n//2 + 1 nodes).

    Two guards turn a wrong minimum into GridTooCoarse: the Richardson
    estimate must stay within solver_tol * J, and |dilation_balance| within
    DILATION_BALANCE_MAX.  The second catches a domain that truncates the
    profile's transition, which both Richardson grids share.
    """
    grid = grid or GridConfig()
    if grid.n < 3:
        raise ParameterError(f"grid n must be >= 3 so that the coarse level "
                             f"n//2 + 1 is coarser, got n={grid.n}")
    if not 0.0 < solver_tol < math.inf:
        raise ParameterError(f"solver_tol must be finite and > 0, "
                             f"got {solver_tol}")
    if mass is not None and not 0.0 < mass < math.inf:
        raise ParameterError(f"mass must be finite and > 0, got {mass}")
    if start not in ("warm", "cold"):
        raise ParameterError(f"start must be 'warm' or 'cold', got {start!r}")
    ex = derive(params)
    p = params.p
    disc = discretize(params, grid)
    target_mass = barenblatt_mass(params) if mass is None else mass

    wg = w_gamma_star(params)
    if start == "warm":
        start_fn = lambda r: 1.2 * wg(r)  # noqa: E731
    else:
        start_fn = lambda r: np.exp(-(r**2))  # noqa: E731

    w_hat, G, pgnorm, nit, G_c = _solve(disc, start_fn, target_mass)

    X, Y, mass_h = disc.functionals(w_hat, p)
    quot = _quotient(params, X, Y, mass_h)

    # reference candidate: the explicit optimizer dilated to the same mass,
    # evaluated with the same discrete functionals
    cand = dilate_to_mass(params, target_mass)(disc.r)
    _, Xc, Yc, _ = disc.rescaled(cand, target_mass)
    G_ref = 0.5 * Xc + Yc / (p + 1)
    ref_quot = _quotient(params, Xc, Yc, target_mass)

    if G > G_ref * (1.0 + 10.0 * solver_tol):
        raise NoDescent(
            f"minimum {G} stalled above the explicit candidate {G_ref}"
        )

    J = G / target_mass**ex.theta_gamma
    A, B = scaling_exponents(params)
    balance = (0.5 * A * X - B * Y / (p + 1)) / G

    J_c = G_c / target_mass**ex.theta_gamma
    err_est = abs(J - J_c) / 3.0
    if err_est > solver_tol * abs(J):
        raise GridTooCoarse(
            f"Richardson estimate {err_est:.3e} exceeds "
            f"{solver_tol:.1e} * J = {solver_tol * abs(J):.3e}"
        )
    if abs(balance) > DILATION_BALANCE_MAX:
        raise GridTooCoarse(
            f"dilation balance {balance:.3e} exceeds {DILATION_BALANCE_MAX:.0e}: "
            f"the grid [{grid.r_min:g}, {grid.r_max:g}] does not hold the "
            f"minimizer's profile"
        )

    profile = RadialProfile(
        radii=disc.r, values=w_hat,
        tail_exponent=(2.0 - params.gamma) / (p - 1.0),
        meta={"start": start, "mass": target_mass},
    )
    return MinimizationReport(
        best_quotient=quot, best_profile=profile, iterations=nit,
        gradient_norm=pgnorm, reference=ref_quot, J=J, mass=target_mass,
        dilation_balance=balance, grid=grid, err_estimate=err_est,
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
