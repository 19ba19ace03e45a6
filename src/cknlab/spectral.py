"""Linearized stability analysis around the explicit optimizer, sector by sector.

Perturbations decompose over spherical-harmonic sectors.  Under s = r^alpha,
alpha = (2-gamma)/2, and the dilation r = c_map s^(1/alpha) with
c_map = alpha^(1/alpha), the optimizer (a/(b + r^(2-gamma)))^(1/(p-1)) at
weight gamma and its sector-ell linearization are the gamma = 0 ones in the
real dimension d_gamma = 2 (d-gamma)/(2-gamma) at the real sector ell/alpha:
ell (ell+d-2)/alpha^2 = (ell/alpha)(ell/alpha + d_gamma - 2).  So every solve
is a gamma = 0 problem on a grid in s (s = r at gamma = 0).  One builder
assembles the sector pencils (A, B), in a real dimension d, of

    A(f) = int omega (f'^2 + ell (ell + d - 2) f^2 / s^2) s^(d-1) ds
           + int V f^2 s^(d-1) ds,        B(f) = int rho f^2 s^(d-1) ds.

The linearization around the gamma = 0 optimizer w (``assemble``) has
omega = 1, V = p w^(p-1) - (2p-1) w^(2p-2) and rho = (2p-1) w^(2p-2); 0 marks
marginal stability, and at gamma = 0 the translation mode sits exactly at 0
in sector 1.  The weighted spectral-gap (Hardy-Poincare) quotient has
omega = w^(2p), V = 0 and rho = w^(3p-1).  Radial (ell = 0) operators carry
the zero-mean constraint that removes the mass direction.  Every weight is
a power exp(q log u) of the unit-peak optimizer u = w/w(0) times a power of
a/b = w(0)^(p-1), since w(0) leaves the float range near p = 1: the
zero-mean weight is u^(2p-1), and the Hardy-Poincare forms, over w(0)^(2p),
have omega = u^(2p) and rho = (a/b) u^(3p-1).

Every solve sizes its own geometric grid of n nodes in s: its ends are the
TAIL_SHARE quantiles (``profiles.tail_bounds``) of the integrands of the
optimizer and of the sought eigenfunction, at the optimizer's scale sqrt(b).
The measure is (s/s_c)^(d-1), s_c = sqrt(s_min s_max), which stays in the
float range in any real dimension d; it scales both forms alike.
Discretization is piecewise-linear finite elements with per-cell Gauss
quadrature: the forms stay symmetric and tridiagonal, and the discrete
eigenvalues are variational upper bounds.  An operator holds each form as
its two bands, and its start: the model eigenfunction its builder sized the
grid for, on the interior nodes.  Every eigensolve works on the bands alone
with LAPACK's tridiagonal kernels: inverse iteration on the positive
definite A - SHIFT B (dpttrf, dpttrs) from the start, then
Rayleigh-quotient iteration on A - lambda B (dgtsv).  A Sturm count
(dstebz) on the equilibrated A - sigma B certifies, by Sylvester's law of
inertia, that no eigenvalue lies below the one returned.  The zero-mean
constraint is imposed exactly, through bordered (KKT) systems, never by a
penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs, dstebz

from .errors import (AmplitudeOverflow, DimensionTooSmall, EigenSolverFailure,
                     ParameterError, POutOfRange, SingularMass)
from .params import ProblemParams, derive, validate
from .profiles import LOG_FLOAT_MAX, AnalyticProfile, RadialProfile, tail_bounds

__all__ = ["SectorOperator", "assemble", "lowest_eigenvalue", "sector_min",
           "hardy_poincare_gap", "gamma_sweep"]

# 4-point Gauss-Legendre on [0, 1]
_GL_X = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                               0.3399810435848563, 0.8611363115940526]))
_GL_W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                        0.6521451548625461, 0.3478548451374538])
# products of a cell's falling and rising hats at the Gauss nodes, weighted:
# the columns give the left diagonal, right diagonal and off-diagonal entry
_GL_HATS = _GL_W[:, None] * np.column_stack(
    [(1.0 - _GL_X) ** 2, _GL_X ** 2, (1.0 - _GL_X) * _GL_X])

# shift of the inverse iteration, a strict lower bound of every pencil
# spectrum here: A - SHIFT B is the positive definite form a for the sector
# pencils (a - b, b), and numerator plus denominator for the Hardy-Poincare
# quotient
SHIFT = -1.0

# smallest grid a sector solve accepts: about two nodes per decade of the
# seven-decade grid at (3, 0, 2).  Coarser grids leave the profile's
# transition unresolved: the radial sector there reads 3.8e3 at 3 nodes and
# 0.69 at 16, for 0.238
MIN_NODES = 16

# inverse iteration on A - SHIFT B hands over to Rayleigh-quotient iteration
# once its Rayleigh quotient moves by at most this share of lambda - SHIFT
SETTLE = 1e-3
# Rayleigh-quotient iteration stops once lambda moves by at most this
# share of lambda - SHIFT; it converges cubically, so the step before moved
# lambda to rounding level
RQI_TOL = 1e-10
# step caps: over 1620 solves (d = 3..8, gamma up to 1.98, p at 5, 50 and
# 95% of its range, ell = 0..3 and Hardy-Poincare operators, n = 400, 2000
# and 8000) inverse iteration from the model start took at most 5 steps and
# Rayleigh-quotient iteration at most 4; from a random start, which an
# operator built by hand may carry, they took up to 122 and 10, since
# Rayleigh-quotient iteration can wander through a dense spectrum
INVERSE_MAX_STEPS = 200
RQI_MAX_STEPS = 50
# a lambda is certified when no pencil eigenvalue lies below
# lambda - CERT_GAP max(1, |lambda|)
CERT_GAP = 1e-9
# width of the bisection bracket, relative to lambda - SHIFT, when a
# certificate fails
BISECT_TOL = 4e-14


def _grid(scale: float, pairs, n: int) -> np.ndarray:
    """n geometric nodes between the tail_bounds of the integrand pairs."""
    if n < MIN_NODES:
        raise ParameterError(f"a sector solve needs a grid of at least "
                             f"{MIN_NODES} nodes, got {n}")
    return np.geomspace(*tail_bounds(scale, pairs), n)


def _gauss_nodes(r: np.ndarray) -> np.ndarray:
    """The Gauss nodes of grid r, one row per cell: where weights are sampled."""
    h = np.diff(r)
    return r[:-1, None] + h[:, None] * _GL_X[None, :]


def _tri_mass(r: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal FE mass matrix for int f g weight(r) dr: (diag, off).

    weight holds the weight's values at _gauss_nodes(r).
    """
    h = np.diff(r)
    d_l, d_r, off = ((weight @ _GL_HATS) * h[:, None]).T
    diag = np.zeros(r.size)
    diag[:-1] += d_l
    diag[1:] += d_r
    return diag, off


def _tri_grad(r: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal FE stiffness for int f' g' weight(r) dr, weight at _gauss_nodes(r)."""
    coeff = (weight @ _GL_W) / np.diff(r)
    diag = np.zeros(r.size)
    diag[:-1] += coeff
    diag[1:] += coeff
    return diag, -coeff


def _load(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The full-grid mass matrix applied to the constants, outer node dropped."""
    return diag[:-1] + off + np.append(0.0, off[:-1])


def _apply(bands, x: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with bands (diag, off) times x."""
    diag, off = bands
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


@dataclass(eq=False)
class SectorOperator:
    """Discretized linearization in one spherical-harmonic sector.

    stiffness and mass_matrix hold the symmetric tridiagonal forms A and B
    on the interior nodes (the outer Dirichlet node dropped) as their
    (diagonal, off-diagonal) bands; start holds the first iterate of the
    eigensolve on the same nodes.
    """

    ell: float  # sector of the gamma = 0 problem, ell/alpha
    grid: np.ndarray
    stiffness: tuple[np.ndarray, np.ndarray]
    mass_matrix: tuple[np.ndarray, np.ndarray]
    start: np.ndarray  # the model eigenfunction, scaled to unit max
    constraints: list = field(default_factory=list)  # [] or [c], c^T f = 0

    def rayleigh(self, f: np.ndarray) -> float:
        """Rayleigh quotient of the pencil; 0 means marginal stability."""
        return (float(f @ _apply(self.stiffness, f))
                / float(f @ _apply(self.mass_matrix, f)))


def _sector_pencils(r: np.ndarray, d: float, ells, log_starts, rho,
                    omega=None, potential=None,
                    constraint=None) -> list[SectorOperator]:
    """The pencils (A, B) of the module docstring on grid r (its s), one per ell.

    ell >= 0 may be real.  log_starts holds, per ell, the log of the model
    eigenfunction at the nodes r, which is scaled to unit max before its
    exp: a model such as t^2000 leaves the float range, its start does not.
    The weights are their values at _gauss_nodes(r); omega None means 1,
    potential None means 0.  The measure is
    (r/r_c)^(d-1), r_c the geometric centre of the grid, so the centrifugal
    band carries 1/r_c^2.  The ell = 0 operator carries the load vector of
    the constraint weight (rho, from its own bands, when None), the discrete
    zero-mean condition int constraint f r^(d-1) dr = 0.  Each band is
    assembled once for all sectors.  The outer boundary is Dirichlet (its
    node is dropped), the inner one natural.
    """
    r_c = math.sqrt(r[0] * r[-1])
    x = _gauss_nodes(r) / r_c
    # past the float range the measure makes B infinite, which the mass
    # check below would report as singular; x^(d-3) stays below it past x = 1
    log_top = (d - 1.0) * math.log(x.max())
    if log_top > LOG_FLOAT_MAX:
        raise AmplitudeOverflow(f"the measure (s/s_c)^(d_gamma-1) reaches "
                                f"exp({log_top:.1f}) at the grid's outer end, "
                                f"past the float range, at d_gamma = {d:g}")
    measure = x ** (d - 1.0)

    def measured(weight):
        return measure if weight is None else weight * measure

    diag_a, off_a = _tri_grad(r, measured(omega))
    if potential is not None:
        diag_v, off_v = _tri_mass(r, measured(potential))
        diag_a, off_a = diag_a + diag_v, off_a + off_v
    if max(ells) > 0:
        centrifugal = x ** (d - 3.0)
        diag_c, off_c = _tri_mass(r, centrifugal if omega is None
                                  else omega * centrifugal)
    diag_b, off_b = _tri_mass(r, measured(rho))
    if np.any(diag_b <= 0.0) or not np.all(np.isfinite(diag_b)):
        raise SingularMass("weight underflow produced a singular mass matrix")
    if 0 in ells:
        load = _load(*((diag_b, off_b) if constraint is None else
                       _tri_mass(r, measured(constraint))))
    mass = (diag_b[:-1], off_b[:-1])
    ops = []
    for ell, log_start in zip(ells, log_starts):
        diag, off, lam = diag_a, off_a, ell * (ell + d - 2.0) / (r_c * r_c)
        if ell:
            diag, off = diag + lam * diag_c, off + lam * off_c
        log_start = log_start[:-1]
        ops.append(SectorOperator(ell=ell, grid=r, mass_matrix=mass,
                                  stiffness=(diag[:-1], off[:-1]),
                                  start=np.exp(log_start - log_start.max()),
                                  constraints=[] if ell else [load]))
    return ops


def _unit_optimizer(flat: ProblemParams, x: np.ndarray):
    """(log u(x), a/b) for the optimizer w of a gamma = 0 triple, u = w/w(0)
    its unit-peak form and a/b = w(0)^(p-1)."""
    ex = derive(flat)
    u = AnalyticProfile(log_peak=0.0, b=ex.b_gamma, c=2.0, k=1.0 / (flat.p - 1.0))
    return u.log(x), ex.a_gamma / ex.b_gamma


def assemble(params: ProblemParams, ell: int, n: int = 2000) -> SectorOperator:
    """Sector-ell operator around the explicit optimizer, on n nodes in s.

    It is the gamma = 0 operator in the dimension D = d_gamma at the sector
    ell' = ell/alpha (module docstring); in the radial sector the zero-mean
    condition weighs f by w^(2p-1).  The grid holds the integrands of the
    optimizer and those of an eigenfunction that goes like s^ell' at 0 and
    like s^(-nu) at infinity, nu (nu - (D-2)) = p a + ell' (ell' + D - 2),
    where the potential is p a/s^2 and rho decays faster.  Raises
    ParameterError for ell < 0 and for n < MIN_NODES.  The solve starts from
    that eigenfunction, t^ell' (1 + t^2)^(-sigma) below.
    """
    if ell < 0:
        raise ParameterError(f"sector index ell must be >= 0, got {ell}")
    p, alpha = params.p, 1.0 - params.gamma / 2.0
    d_g, ell_f, k = derive(params).d_gamma, ell / alpha, 1.0 / (p - 1.0)
    flat = ProblemParams(d_g, 0.0, p)
    ex = derive(flat)
    half = 0.5 * (d_g - 2.0)
    nu = half + math.sqrt(half * half + p * ex.a_gamma
                          + ell_f * (ell_f + d_g - 2.0))
    # the eigenfunction as t^ell' (1 + t^2)^(-sigma): its B and gradient
    # integrands, the latter t^(2 ell' + D - 3) near 0, or t^(D+1) if ell' = 0
    sigma = 0.5 * (nu + ell_f)
    grad = ((2.0 * ell_f + d_g - 2.0, 2.0 * sigma) if ell_f > 0
            else (d_g + 2.0, 2.0 * sigma + 2.0))
    s = _grid(math.sqrt(ex.b_gamma), [
        (d_g + 2.0, 2.0 * k + 2.0), (d_g, (p + 1.0) * k), (d_g, 2.0 * p * k),
        (2.0 * ell_f + d_g, 2.0 * sigma + 2.0), grad], n)
    # log u once for every weight: w^(p-1) = (a/b) u^(p-1); the zero-mean
    # weight is u^(2p-1), w^(2p-1) over its peak: a constant factor keeps
    # the constraint
    log_u, ab = _unit_optimizer(flat, _gauss_nodes(s))
    u_2p2 = np.exp((2.0 * p - 2.0) * log_u)
    log_t = np.log(s / math.sqrt(ex.b_gamma))
    (op,) = _sector_pencils(
        s, d_g, [ell_f],
        [ell_f * log_t - sigma * np.logaddexp(0.0, 2.0 * log_t)],
        potential=(p * ab * np.exp((p - 1.0) * log_u)
                   - (2.0 * p - 1.0) * ab * ab * u_2p2),
        rho=(2.0 * p - 1.0) * ab * ab * u_2p2,
        constraint=np.exp((2.0 * p - 1.0) * log_u) if ell == 0 else None)
    return op


def _scaled(op: SectorOperator, scale: np.ndarray,
            sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The bands of D (A - sigma B) D, D = diag(scale).

    With scale = diag(A - SHIFT B)^(-1/2) its entries are of order 1,
    where those of A and B span as many decades as the measure does.
    """
    (a_diag, a_off), (b_diag, b_off) = op.stiffness, op.mass_matrix
    return ((a_diag - sigma * b_diag) * scale * scale,
            (a_off - sigma * b_off) * scale[:-1] * scale[1:])


def _solve_shifted(op: SectorOperator, scale: np.ndarray, c, sigma: float,
                   z: np.ndarray) -> np.ndarray:
    """y with (A - sigma B) y + c mu = z and c^T y = 0 (c None: no border).

    LAPACK's dgtsv solves the scaled D (A - sigma B) D, which may be
    indefinite, for z and c together; the border then costs one division.
    """
    diag, off = _scaled(op, scale, sigma)
    rhs = scale[:, None] * np.column_stack([z] if c is None else [z, c])
    *_, y, info = dgtsv(off, diag, off, rhs, False, True, False, True)
    if info > 0:
        raise EigenSolverFailure(f"A - lambda B is singular at lambda = {sigma!r}")
    y *= scale[:, None]
    if c is None:
        return y[:, 0]
    y0, y1 = y.T
    return y0 - y1 * ((c @ y0) / (c @ y1))


def _iterate(solve, quotient, mass, lam: float, x: np.ndarray, tol: float,
             max_steps: int):
    """Inverse iteration x <- solve(lam, B x), B-normalized, lam <- quotient(x).

    It stops once lam moves by at most tol (lam - SHIFT) and returns
    (lam, x).  A solve that ignores lam is plain inverse iteration; one
    that shifts by lam is Rayleigh-quotient iteration.
    """
    for _ in range(max_steps):
        y = solve(lam, _apply(mass, x))
        if not np.all(np.isfinite(y)):
            raise EigenSolverFailure("an eigensolver iterate is not finite")
        # near an eigenvalue y is huge: scale it to unit max before its B-norm
        y /= np.max(np.abs(y))
        x = y / math.sqrt(float(y @ _apply(mass, y)))
        new = quotient(x)
        if abs(new - lam) <= tol * (new - SHIFT):
            return new, x
        lam = new
    raise EigenSolverFailure(f"the eigensolver iteration did not settle in "
                             f"{max_steps} steps")


def _equilibration(op: SectorOperator) -> np.ndarray:
    """diag(A - SHIFT B)^(-1/2): the scale under which the bands are of order 1."""
    (a_diag, _), (b_diag, _) = op.stiffness, op.mass_matrix
    return 1.0 / np.sqrt(a_diag - SHIFT * b_diag)


def _count_below(op: SectorOperator, sigma: float) -> int:
    """Number of pencil eigenvalues below sigma on c^T x = 0.

    By Sylvester's law of inertia it is the number of negative eigenvalues
    of M = D (A - sigma B) D, D = _equilibration(op), which LAPACK's dstebz
    counts by Sturm sequences: on (-2 g, 0], g a Gershgorin bound, with a
    tolerance wider than the interval, so that it counts and does not
    bisect.  A constraint adds Haynsworth's term for the border
    c_tilde = D c, scaled to unit max: -1 unless c_tilde^T M^-1 c_tilde > 0.
    Unscaled, that quantity can sit near 1e-40 and take the wrong sign.  A
    singular M counts as one eigenvalue below sigma.
    """
    scale = _equilibration(op)
    diag, off = _scaled(op, scale, sigma)
    ring = np.abs(off)
    g = float(np.max(np.abs(diag) + np.append(ring, 0.0) + np.append(0.0, ring)))
    below, *_, info = dstebz(diag, off, 1, -2.0 * g, 0.0, 0, 0, 4.0 * g, b"E")
    if info != 0:
        raise EigenSolverFailure(f"dstebz failed to count at sigma = {sigma!r}")
    if not op.constraints:
        return int(below)
    c_tilde = scale * op.constraints[0]
    c_tilde /= np.max(np.abs(c_tilde))
    *_, x, info = dgtsv(off, diag, off, c_tilde, False, True, False, False)
    if info > 0:
        return max(int(below), 1)
    return int(below) if float(c_tilde @ x) > 0.0 else int(below) - 1


def _certificate_shift(lam: float) -> float:
    """lambda - CERT_GAP max(1, |lambda|): lambda is certified when no pencil
    eigenvalue lies below it."""
    return lam - CERT_GAP * max(1.0, abs(lam))


def lowest_eigenvalue(op: SectorOperator):
    """Smallest pencil eigenvalue on the subspace orthogonal to the constraint.

    Returns (lambda_min, eigenprofile) with the eigenprofile normalized in
    the mass-matrix norm and stored on the operator grid (outer Dirichlet
    node reattached as zero).  One path serves every operator, on the bands
    alone:

    1. LAPACK's dpttrf factors K = A - SHIFT B as L D L^T.  A pivot of D
       that is not positive means SHIFT is not below the pencil spectrum:
       EigenSolverFailure, not a wrong eigenvalue.  Inverse iteration with
       K from op.start, the model eigenfunction the grid was sized for,
       runs until its Rayleigh quotient settles (SETTLE).  A constraint c
       enters through the bordered system [[K, c], [c^T, 0]], solved by
       its scalar Schur complement
       s = c^T K^-1 c, x = K^-1 z - (K^-1 c / s) c^T K^-1 z, so every
       iterate satisfies c^T x = 0.
    2. Rayleigh-quotient iteration solves A - lambda B, bordered by c, with
       LAPACK's dgtsv until lambda moves by at most RQI_TOL (lambda - SHIFT).
       Each Rayleigh quotient is summed through the factor of K.
    3. A certificate counts the pencil eigenvalues below
       lambda - CERT_GAP max(1, |lambda|) by Sturm sequences
       (``_count_below``).  If any lies there, the iteration has found a
       higher eigenvalue: bisection on the same count brackets the lowest
       one to BISECT_TOL, and inverse and Rayleigh-quotient iteration from
       the bracket's lower end find it, certified again.

    Every returned eigenvalue has passed its certificate; where none passes,
    s is not positive and finite or an iterate is not finite, the solve
    raises EigenSolverFailure (ParameterError for two constraints or more).
    The start is part of the operator, so repeated runs give the same digits.
    """
    if len(op.constraints) > 1:
        raise ParameterError(f"a sector operator carries at most one "
                             f"constraint, got {len(op.constraints)}")
    mass = op.mass_matrix
    n = mass[0].size
    (a_diag, a_off), (b_diag, b_off) = op.stiffness, mass
    fac_diag, fac_off, info = dpttrf(a_diag - SHIFT * b_diag, a_off - SHIFT * b_off)
    if info > 0:
        raise EigenSolverFailure(
            f"A - SHIFT B is not positive definite at SHIFT = {SHIFT}: "
            f"dpttrf pivot {info} of {n} is not positive")
    scale, root = _equilibration(op), np.sqrt(fac_diag)

    def quotient(x):
        # x^T K x / x^T B x of a B-normalized x, with x^T K x summed as
        # sum (D_i^(1/2) (L^T x)_i)^2 through the factor: positive terms
        # only, so no cancellation between the bands of A
        lx = x.copy()
        lx[:-1] += fac_off * x[1:]
        lx *= root
        return SHIFT + float(lx @ lx)

    c = kcs = None
    if op.constraints:
        # K^-1 c / s once, with c as assembled: a rescaled c would hide an
        # underflowed s behind a grid-limited eigenvalue
        c = op.constraints[0]
        kc = dpttrs(fac_diag, fac_off, c)[0]
        schur = float(c @ kc)
        if not 0.0 < schur < math.inf:
            raise EigenSolverFailure(
                f"the Schur complement c^T K^-1 c of the constraint is "
                f"{schur!r}, not positive and finite")
        kcs = kc / schur

    def solve(_, z):
        # K^-1 z, bordered by the constraint
        x = dpttrs(fac_diag, fac_off, z)[0]
        return x if c is None else x - kcs * (c @ x)

    shifted = partial(_solve_shifted, op, scale, c)

    def iterate(settle):
        # inverse iteration by settle, then Rayleigh-quotient iteration
        lam, x = _iterate(settle, quotient, mass, math.inf, op.start, SETTLE,
                          INVERSE_MAX_STEPS)
        return _iterate(shifted, quotient, mass, lam, x, RQI_TOL,
                        RQI_MAX_STEPS)

    lam, x = iterate(solve)
    if _count_below(op, _certificate_shift(lam)):
        # a higher eigenvalue: bracket the lowest by the same count
        lo, hi = SHIFT, _certificate_shift(lam)
        while hi - lo > BISECT_TOL * (hi - SHIFT):
            mid = 0.5 * (lo + hi)
            if _count_below(op, mid):
                hi = mid
            else:
                lo = mid
        lam, x = iterate(lambda _, z: shifted(lo, z))
        if _count_below(op, _certificate_shift(lam)):
            raise EigenSolverFailure(
                f"no certified lowest eigenvalue: pencil eigenvalues lie "
                f"below {lam!r} also after bisection")
    vec = np.append(x, 0.0)
    return lam, RadialProfile(radii=op.grid, values=vec,
                              meta={"ell": op.ell, "eigenvalue": lam})


def sector_min(params: ProblemParams, ell: int, n: int = 2000) -> float:
    """Lowest eigenvalue of sector ell around the explicit optimizer.

    In the radial sector the mass direction is projected out.  Raises
    ParameterError for n < MIN_NODES and for ell < 0.
    """
    return lowest_eigenvalue(assemble(params, ell, n))[0]


def _hardy_poincare_pencils(d: float, p: float, n: int) -> list[SectorOperator]:
    """Sectors 0 and 1 of the Hardy-Poincare quotient on one grid in s.

    One grid serves both, since coordinate_correlation reads sector 0's B.
    It holds the gradient and B integrands of the coordinate s (sector 1) and
    of s^2 (sector 0), the polynomial eigenfunctions of the quotient
    (Denzler-McCann, ARMA 175, 2005) that start the solves.  d is real:
    d > 2 and 1 < p < d/(d-2), else ParameterError.
    """
    if not d > 2.0:
        raise DimensionTooSmall(f"d must be > 2, got {d}")
    if not 1.0 < p < d / (d - 2.0):
        raise POutOfRange(f"p must lie in the open interval (1, {d / (d - 2.0)}) "
                          f"= (1, d/(d - 2)) for d={d}; got {p}")
    flat = ProblemParams(float(d), 0.0, float(p))
    k = 1.0 / (p - 1.0)
    s = _grid(math.sqrt(derive(flat).b_gamma), [
        (d, 2.0 * p * k), (d + 2.0, (3.0 * p - 1.0) * k),
        (d + 4.0, (3.0 * p - 1.0) * k), (d + 2.0, 2.0 * p * k)], n)
    log_u, ab = _unit_optimizer(flat, _gauss_nodes(s))
    log_s = np.log(s)
    return _sector_pencils(s, d, (0, 1), (2.0 * log_s, log_s),
                           omega=np.exp(2.0 * p * log_u),
                           rho=ab * np.exp((3.0 * p - 1.0) * log_u))


def hardy_poincare_gap(d: float, p: float, n: int = 2000):
    """Constrained Rayleigh minimum of the weighted spectral-gap quotient.

    Minimizes int |grad f|^2 w0^(2p) dx / int f^2 w0^(3p-1) dx over functions
    orthogonal to the constants in the w0^(3p-1) inner product, where w0 is
    the unweighted explicit optimizer in the real dimension d > 2.  The
    search space decomposes over sectors; the radial sector carries the
    orthogonality constraint while in sector ell = 1 it holds automatically,
    and higher sectors are dominated.  Returns (gap, info) where info holds
    the minimizing sector, the radial part of the minimizer and its
    correlation with the coordinate function.
    """
    ops = _hardy_poincare_pencils(d, p, n)
    results = {op.ell: lowest_eigenvalue(op) for op in ops}

    sector = min(results, key=lambda k: results[k][0])
    gap, prof = results[sector]

    # correlation of the minimizer with the coordinate function in the
    # denominator inner product (meaningful for the ell = 1 sector)
    B = ops[0].mass_matrix
    coord = ops[0].grid[:-1]
    v = prof.values[:-1]
    Bc = _apply(B, coord)
    corr = abs(float(v @ Bc)) / math.sqrt(float(coord @ Bc)
                                          * float(v @ _apply(B, v)))
    return gap, {"sector": sector, "eigenprofile": prof,
                  "by_sector": {k: results[k][0] for k in results},
                  "coordinate_correlation": corr}


def gamma_sweep(d: int, p: float, gamma_grid, ell: int = 1, n: int = 2000):
    """Lowest sector eigenvalue around the explicit optimizer along gamma.

    Each point solves on its own n-node grid, whose ends move continuously
    with gamma, so the curve is a continuous function of gamma.  Returns a
    list of (gamma, lambda_min) pairs.
    """
    return [(float(g), sector_min(validate(d, float(g), p), ell, n))
            for g in gamma_grid]
