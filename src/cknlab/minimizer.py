"""Radial best constants by direct constrained minimization in the flat variable.

The energy G[w] = 0.5 |grad w|^2 + (p+1)^(-1) |w|_(p+1,gamma)^(p+1) is
minimized over positive radial profiles with the weighted L^(2p) mass held
fixed.  The solver works in s = (r/c_map)^alpha, alpha = (2-gamma)/2,
c_map = alpha^(1/alpha), the map of shooting and the sector spectra.  There
every weight gamma is the gamma = 0 problem in the real dimension
d_gamma = 2(d-gamma)/(2-gamma) (Bonforte-Dolbeault-Muratori-Nazaret, KRM 10,
2017): X = |w'|_2^2, Y = |w|_(p+1,gamma)^(p+1) and the mass are
K = |S^(d-1)| alpha^(d_gamma-1) times their integrals against
s^(d_gamma-1) ds, and the exponents of the quotient and of J are the same for
both triples, so every result maps back by a power of K, taken in logs.

The unknowns are the nodal phi = log w of a profile linear in log s on each
cell of a geometric grid, so X, Y and the mass are exact integrals of a
positive function: the discrete quotient bounds the radial minimum from
above.  The mass is a shift of phi and the grid dilates with the profile, so
the problem is solved once, at the mass of the unit-peak optimizer.  Each
level of a coarse-to-fine ladder is solved by damped Newton on the bordered
(KKT) system of the tridiagonal Hessian, one tridiagonal solve per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import AmplitudeOverflow, GridTooCoarse, NoDescent, ParameterError
from .params import (ProblemParams, derive, kappa, radii_from_flat,
                     scaling_exponents)
from .profiles import (RadialProfile, quotient, quotient_from_logs, tail_bounds,
                       w_star)
from .quadrature import log_beta_integral, sphere_area

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

#: Damped Newton on each ladder level, from the Levenberg weight
#: NEWTON_LAM_START.  A level that needs a weight above NEWTON_LAM_MAX, or
#: more than NEWTON_MAX_STEPS steps, raises NoDescent; from the cold start the
#: coarsest level takes up to about 700.  See _newton for NEWTON_ENERGY_RTOL
#: and NEWTON_STEP_RTOL: energies carry 1e-14 rounding.
NEWTON_LAM_START = 1e-2
NEWTON_LAM_MAX = 1e12
NEWTON_MAX_STEPS = 1000
NEWTON_ENERGY_RTOL = 1e-15
NEWTON_STEP_RTOL = 1e-10

# Taylor coefficients of int_0^1 v^2 exp(-y v) dv for y < 0.1, highest first
_J2_SERIES = [(-1.0) ** k / (math.factorial(k) * (k + 3)) for k in range(9, -1, -1)]


@dataclass
class MinimizationReport:
    """In r; J is extrapolated, best_quotient is not (see minimize_radial)."""

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
    """The flat problem at the mass of its unit-peak optimizer, in logs.

    The optimizer (1 + (s/scale)^2)^(-k), k = 1/(p-1), scale = sqrt(a), has
    a log Beta integral as mass: no amplitude a^k is formed.  The measure is
    (s/scale)^(d_gamma-1) ds, so log_K = log(|S^(d-1)| (alpha scale)^(d_gamma-1)).
    """

    def __init__(self, params: ProblemParams):
        d_g, p = derive(params).d_gamma, params.p
        self.d_gamma, self.p, k = d_g, p, 1.0 / (p - 1.0)
        a = derive(ProblemParams(d_g, 0.0, p)).a_gamma
        # K at scale 1, and the integral of u^(2p) s^(d_g-1), u = (1 + s^2/a)^(-k)
        log_k1 = math.log(sphere_area(params.d)) \
            + (d_g - 1.0) * math.log(1.0 - params.gamma / 2.0)
        self.log_mass = log_k1 + log_beta_integral(d_g, a, 2.0, 2.0 * p * k)
        self.log_K = log_k1 + 0.5 * (d_g - 1.0) * math.log(a)
        log_flat = self.log_mass - self.log_K
        if max(abs(self.log_mass), abs(log_flat)) > 700:
            raise AmplitudeOverflow(f"the mass exp({self.log_mass:.1f}) in r or "
                                    f"exp({log_flat:.1f}) in s leaves the float range")
        self.scale, self.mass = math.sqrt(a), math.exp(log_flat)
        # the optimizer's integrands of X, Y, mass in t = s/scale, times the
        # closures' relative errors t^2/(1 + t^2) at s_min, 1/(1 + t^2) at s_max
        pairs = np.array([(d_g + 2.0, 2.0 * k + 3.0), (d_g, (p + 1.0) * k + 1.0),
                          (d_g, 2.0 * p * k + 1.0)])
        self.s_min = tail_bounds(self.scale, pairs + [2.0, 0.0])[0]
        self.s_max = tail_bounds(self.scale, pairs)[1]

    def log_candidate(self, s: np.ndarray) -> np.ndarray:
        return -np.log1p((s / self.scale) ** 2) / (self.p - 1.0)


def _moments(y: np.ndarray):
    """J_j = int_0^1 v^j exp(-y v) dv for j = 0, 1, 2, at y >= 0."""
    e = np.exp(-y)
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = -np.expm1(-y) / y
        j1 = (j0 - e) / y
        j2 = (2.0 * j1 - e) / y
    small = y < 0.1
    ys, es = y[small], e[small]
    j2[small] = series = np.polyval(_J2_SERIES, ys)
    j1[small] = 0.5 * (ys * series + es)
    j0[small] = ys * j1[small] + es
    return j0, j1, j2


class _Discretization:
    """n geometric nodes on [s_min, s_max] carrying phi = log w.

    phi is linear in log s on each cell; the profile is constant below s_min
    and continues past s_max as the optimizer's tail (s/s_max)^(-2/(p-1)),
    whose integrals are finite for every p < p_max.  Row j of X, Y and the
    mass integrates exp(a_j phi + offset_j), X's times beta^2 = phi'^2.
    """

    def __init__(self, flat: _Flat, n: int):
        self.flat, p, d_g = flat, flat.p, flat.d_gamma
        self.p, sigma = p, 2.0 / (p - 1.0)
        self.s = np.geomspace(flat.s_min, flat.s_max, n)
        log_t = np.log(self.s / flat.scale)
        self.h = h = (log_t[-1] - log_t[0]) / (n - 1)
        self.a = np.array([2.0, p + 1.0, 2.0 * p])
        b = np.array([d_g - 2.0, d_g, d_g])
        pre = np.log([h / flat.scale, h * flat.scale, h * flat.scale])
        self.offset = b[:, None] * log_t + pre[:, None]
        # the integrals below s_min (no gradient) and past s_max, per unit of
        # the end node's cell integrand
        self.closures = np.array([[0.0, 1.0, 1.0], [sigma**2, 1.0, 1.0]]).T \
            / (h * np.array([b, self.a * sigma - b]).T)

    def terms(self, phi: np.ndarray):
        """Row exponents E at the nodes, per cell exp(E) at its larger end and
        the fall y from it, and the rows' integrals below s_min and past s_max."""
        E = self.a[:, None] * phi + self.offset
        left, right = E[:, :-1], E[:, 1:]
        return E, np.exp(np.maximum(left, right)), np.abs(right - left), \
            self.closures * np.exp(E[:, [0, -1]])

    def functionals(self, phi: np.ndarray):
        _, top, y, ends = self.terms(phi)
        # exprel(-y) = (1 - exp(-y))/y, 1 at y = 0
        cells = top * np.divide(np.expm1(-y), -y, out=np.ones_like(y),
                                where=y > 0.0)
        cells[0] *= ((phi[1:] - phi[:-1]) / self.h) ** 2
        X, Y, mass = cells.sum(axis=1) + ends.sum(axis=1)
        return X, Y, mass


def _at_mass(disc: _Discretization, phi: np.ndarray, target_mass: float):
    """phi shifted to the mass M and its energy 0.5 X + Y/(p+1): the mass of
    phi + c is exp(2pc) times that of phi."""
    p = disc.p
    X, Y, mass = disc.functionals(phi)
    c = (np.log(target_mass) - np.log(mass)) / (2.0 * p)
    return phi + c, 0.5 * np.exp(2.0 * c) * X \
        + np.exp((p + 1.0) * c) * Y / (p + 1.0)


def _kkt(disc: _Discretization, phi: np.ndarray, target_mass: float):
    """Residual, mass gradient and the Hessian's diagonal and off-diagonal of
    the Lagrangian 0.5 X + Y/(p+1) - mu (mass - M) in phi, at a shifted iterate.

    mu = (X + Y)/(2p M) makes the residual sum to 0, orthogonal to the shift,
    so it is the gradient of the mass-normalized energy.
    """
    p, h, a = disc.p, disc.h, disc.a
    E, top, y, ends = disc.terms(phi)
    j0, j1, j2 = _moments(y)
    # each cell's integrals against 1 - u, u and u(1 - u), u = 0 at the left
    # node, from the moments about its larger end; those against (1 - u)^2
    # and u^2 are the first two less the third
    i0, left = top * j0, np.where(E[:, 1:] >= E[:, :-1], j1, j0 - j1)
    ints = top * np.array([left, j0 - left, j1 - j2])
    beta = (phi[1:] - phi[:-1]) / h
    X = beta**2 @ i0[0] + ends[0].sum()
    mu = (X + i0[1].sum() + ends[1].sum()) / (2.0 * p * target_mass)

    # a_j times the rows' weights; X's beta^2 adds slope and stiffness terms
    wa = a * np.array([0.5, 1.0 / (p + 1.0), -mu])
    cw = np.empty_like(i0)
    cw[0], cw[1:] = wa[0] * beta**2, wa[1:, None]
    gl, gr = np.einsum("jm,kjm->km", cw, ints[:2])
    cw *= a[:, None]
    hl, hr, hlr = np.einsum("jm,kjm->km", cw, ints)
    stiff = i0[0] / h**2
    slope = beta * h * stiff
    # the closures below s_min and past s_max act on the end nodes
    resid, diag, g = np.zeros((3, phi.size))
    resid[[0, -1]], diag[[0, -1]], g[[0, -1]] = wa @ ends, (wa * a) @ ends, ends[2]
    resid[:-1] += gl - slope
    resid[1:] += gr + slope
    diag[:-1] += hl - hlr + stiff - 4.0 * beta * ints[0, 0] / h
    diag[1:] += hr - hlr + stiff + 4.0 * beta * ints[1, 0] / h
    g[:-1] += ints[0, 2]
    g[1:] += ints[1, 2]
    return resid, 2.0 * p * g, diag, \
        hlr - stiff + 2.0 * beta * (ints[0, 0] - ints[1, 0]) / h


def _newton(disc: _Discretization, phi0: np.ndarray, target_mass: float,
            lam: float = NEWTON_LAM_START):
    """Damped Newton on the bordered (KKT) system of one ladder level.

    Each step solves (H + lam |diag H|) [a, b] = [resid, g] by LAPACK's
    tridiagonal dgtsv, takes the multiplier step d_mu = g.a / g.b from the
    Schur complement, caps phi - a + d_mu b node by node and shifts it to the
    exact mass.  It is accepted only if the system is regular and the energy
    does not rise; lam shrinks tenfold on acceptance and grows tenfold on
    rejection.  The level has converged once a step changes the energy to
    first order by at most NEWTON_ENERGY_RTOL and either moves no node by more
    than NEWTON_STEP_RTOL of the peak or is rejected: the energy's rounding
    cannot then tell it from phi.  Returns phi, its energy, the steps and lam.
    """
    phi, G = _at_mass(disc, phi0, target_mass)
    resid, g, diag, off = _kkt(disc, phi, target_mass)
    for step in range(1, NEWTON_MAX_STEPS + 1):
        # a node whose integrals all underflow has a zero row: it stays put
        scale = np.where(diag == 0.0, 1.0, np.abs(diag))
        *_, ab, info = dgtsv(off, diag + lam * scale, off,
                             np.array([resid, g]).T)
        a, b = ab.T
        # a trial past the float range has the energy inf or NaN: rejected
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # below a cliff in phi the energy grows linearly in the drop, and
            # the Newton step is unbounded: no node moves down by more than 1
            # or up by more than 1 or to the level of its higher neighbour
            mirror = np.concatenate(([phi[1]], phi, [phi[-2]]))
            rise = np.maximum(np.maximum(mirror[:-2], mirror[2:]) - phi, 1.0)
            d = np.minimum(np.maximum(-a + (g @ a) / (g @ b) * b, -1.0), rise)
            trial, G_trial = _at_mass(disc, phi + d, target_mass)
            move = trial - phi
        accepted = not info and G_trial <= G
        settled = not info and abs(resid @ move) <= NEWTON_ENERGY_RTOL * G \
            and (not accepted or np.max(np.abs(move) * np.exp(phi - phi.max()))
                 <= NEWTON_STEP_RTOL)
        if accepted:
            phi, G, lam = trial, G_trial, lam / 10.0
        if settled:
            return phi, G, step, lam
        if accepted:
            resid, g, diag, off = _kkt(disc, phi, target_mass)
        else:
            lam *= 10.0
            if lam > NEWTON_LAM_MAX:
                raise NoDescent(f"no descent step from energy {G} on the "
                                f"{phi.size}-node level: the damping passed "
                                f"{NEWTON_LAM_MAX:.0e}")
    raise NoDescent(f"no convergence in {NEWTON_MAX_STEPS} Newton steps on "
                    f"the {phi.size}-node level")


def _solve(disc: _Discretization, start_fn, target_mass: float):
    """Coarse-to-fine continuation on the ladder n -> n//2 + 1 -> ... <= 128.

    The ladder has at least two levels; the minimum energy G_coarse of the
    second-finest is returned too.  Each level is one damped Newton solve
    from the coarser minimizer, interpolated, and the damping it ended with.
    """
    n_fine = disc.s.size
    sizes = [n_fine, n_fine // 2 + 1]
    while sizes[-1] > 128:
        sizes.append(sizes[-1] // 2 + 1)
    sizes.reverse()

    total_it, lam = 0, NEWTON_LAM_START
    level = phi = G = None
    for n in sizes:
        coarse, G_coarse = level, G
        level = disc if n == n_fine else _Discretization(disc.flat, n)
        phi0 = start_fn(level.s) if phi is None else np.interp(
            np.log(level.s), np.log(coarse.s), phi)
        phi, G, nit, lam = _newton(level, phi0, target_mass, lam)
        total_it += nit
    grad = _kkt(disc, phi, target_mass)[0]
    return phi, G, float(np.max(np.abs(grad)) / G), total_it, G_coarse


def minimize_radial(params: ProblemParams, n: int = 1024,
                    solver_tol: float = 1e-4,
                    start: str = "warm") -> MinimizationReport:
    """Minimize the constrained energy over positive radial grid profiles.

    The flat problem is solved on n nodes at the mass of the unit-peak
    optimizer, the report's mass.  start: 'warm' begins at the optimizer,
    'cold' at the Gaussian bump exp(-(s/scale)^2); both must reach the same
    minimum.  The report carries, in r, the quotient of the discrete
    minimizer, an upper bound on 1/C*, and of the grid-sampled optimizer as
    reference.  Its J is not the discrete minimum energy, whose h^2 error at
    (3, 0, 2) on 512 nodes is 1.4e-5, but the Richardson extrapolation from
    it and the minimum on the ladder's second-finest level (n//2 + 1 nodes);
    err_estimate is the size of that correction.  s_min and s_max are the
    grid ends, and gradient_norm is the largest |dG/d phi_i| / G of the
    mass-normalized G.

    GridTooCoarse is raised where err_estimate exceeds solver_tol * J, or
    |dilation_balance| or its terms at the grid's ends DILATION_BALANCE_MAX,
    as where the window truncates the profile's transition.
    """
    if n < 3:
        raise ParameterError(f"grid n must be >= 3 so that the coarse level "
                             f"n//2 + 1 is coarser, got n={n}")
    if not 0.0 < solver_tol < math.inf:
        raise ParameterError(f"solver_tol must be finite and > 0, "
                             f"got {solver_tol}")
    if start not in ("warm", "cold"):
        raise ParameterError(f"start must be 'warm' or 'cold', got {start!r}")
    p, theta = params.p, derive(params).theta_gamma
    flat = _Flat(params)
    disc, M = _Discretization(flat, n), flat.mass

    start_fn = flat.log_candidate if start == "warm" \
        else lambda s: -((s / flat.scale) ** 2)

    phi, G, gnorm, nit, G_c = _solve(disc, start_fn, M)

    X, Y, mass_h = disc.functionals(phi)
    quot = quotient_from_logs(params, *(np.log([X, Y, mass_h]) + flat.log_K))

    # reference: the optimizer on the same grid, its energy shifted as in _at_mass
    Xc, Yc, mass_c = disc.functionals(flat.log_candidate(disc.s))
    ref_quot = quotient_from_logs(params,
                                  *(np.log([Xc, Yc, mass_c]) + flat.log_K))
    c = math.log(M / mass_c) / (2.0 * p)
    G_ref = 0.5 * math.exp(2.0 * c) * Xc + math.exp((p + 1.0) * c) * Yc / (p + 1.0)

    if G > G_ref * (1.0 + 10.0 * solver_tol):
        raise NoDescent(
            f"minimum {G} stalled above the explicit candidate {G_ref}"
        )

    A, B = scaling_exponents(params)
    balance = (0.5 * A * X - B * Y / (p + 1)) / G
    # at a stationary phi the balance sums the kinks of phi times weights; the
    # terms at s_min and s_max, the closures' kinks, may cancel in the sum.
    # Each is kink (mean slope exp(E_X)/h -/+ the closure's gradient), and A
    # and B are alpha times their flat values
    E, _, _, ends = disc.terms(phi)
    closure = (disc.a * [0.5, 1.0 / (p + 1.0), -(X + Y) / (2.0 * p * M)]) \
        @ ends
    (first, last), sigma = np.diff(phi)[[0, -1]] / disc.h, 2.0 / (p - 1.0)
    at_ends = (1.0 - params.gamma / 2.0) / G * np.array([first, -sigma - last]) \
        * (0.5 * np.array([first, last - sigma]) * np.exp(E[0, [0, -1]])
           / disc.h + [-1.0, 1.0] * closure)

    # the minimum energies of the two finest levels, Richardson-extrapolated
    J_n, J_c = math.exp(flat.log_K * (1.0 - theta)) * np.array([G, G_c]) / M**theta
    J, err_est = J_n + (J_n - J_c) / 3.0, abs(J_n - J_c) / 3.0
    if err_est > solver_tol * abs(J):
        raise GridTooCoarse(
            f"Richardson estimate {err_est:.3e} exceeds "
            f"{solver_tol:.1e} * J = {solver_tol * abs(J):.3e}"
        )
    if max(abs(balance), *abs(at_ends)) > DILATION_BALANCE_MAX:
        raise GridTooCoarse(
            f"dilation balance {balance:.3e} ({at_ends[0]:.3e}, {at_ends[1]:.3e} at "
            f"the ends) exceeds {DILATION_BALANCE_MAX:.0e}: the grid [{flat.s_min:g},"
            f" {flat.s_max:g}] in s does not hold the minimizer's profile"
        )

    mass = math.exp(flat.log_mass)
    # radii past the float range are dropped
    keep, radii, _ = radii_from_flat(params, disc.s)
    if np.count_nonzero(keep) < 2:
        raise AmplitudeOverflow("the radii of the grid leave the float range")
    profile = RadialProfile(
        radii=radii[keep], values=np.exp(phi[keep]),
        tail_exponent=(2.0 - params.gamma) / (p - 1.0),
        meta={"start": start, "mass": mass},
    )
    return MinimizationReport(
        best_quotient=quot, best_profile=profile, iterations=nit,
        gradient_norm=gnorm, reference=ref_quot, J=J, mass=mass,
        dilation_balance=balance, err_estimate=err_est, s_min=disc.s[0],
        s_max=disc.s[-1],
    )


def best_constant_radial(params: ProblemParams) -> tuple[float, float]:
    """Radial best constant and energy constant from the explicit optimizer.

    Returns (C_star, J) with C_star the reciprocal of the quotient at the
    explicit profile, from its exact moments, and J = kappa * C_star^(-2 p theta).
    """
    c_star = 1.0 / quotient(w_star(params), params)
    J = kappa(params) * c_star ** (-2.0 * params.p * derive(params).theta_gamma)
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
    w = w_star(ProblemParams(d, gamma, p_crit))
    return math.exp(w.log_moment(2.0 * p_crit, d, gamma) / (2.0 * p_crit)
                    - 0.5 * w.log_gradient_moment(d))


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
