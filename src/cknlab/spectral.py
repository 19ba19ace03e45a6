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
quadrature: the forms stay symmetric and tridiagonal, and the
discrete eigenvalues are variational upper bounds.  The shift-invert solve
works on their bands alone: LAPACK's dpttrf factors the positive definite
tridiagonal A - SHIFT B, dpttrs solves with it, and B is applied by its two
bands.  Constraints are imposed exactly, through the bordered (KKT) system
of the shift-invert solve, never by penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import (DimensionTooSmall, EigenSolverFailure, ParameterError,
                     POutOfRange, SingularMass)
from .params import ProblemParams, derive, validate
from .profiles import AnalyticProfile, RadialProfile, tail_bounds

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

# shift of the shift-invert solve, a strict lower bound of every pencil
# spectrum here: A - SHIFT B is the positive definite form a for the sector
# pencils (a - b, b), and numerator plus denominator for the Hardy-Poincare
# quotient
SHIFT = -1.0

# smallest grid a sector solve accepts: about two nodes per decade of the
# seven-decade grid at (3, 0, 2).  Coarser grids leave the profile's
# transition unresolved: the radial sector there reads 3.8e3 at 3 nodes and
# 0.69 at 16, for 0.238
MIN_NODES = 16


def _grid(scale: float, pairs, n: int) -> np.ndarray:
    """n geometric nodes between the tail_bounds of the integrand pairs."""
    if n < MIN_NODES:
        raise ParameterError(f"a sector solve needs a grid of at least "
                             f"{MIN_NODES} nodes, got {n}")
    return np.geomspace(*tail_bounds(scale, pairs), n)


def _tri_mass(r: np.ndarray, weight) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal FE mass matrix for int f g weight(r) dr: (diag, off)."""
    h = np.diff(r)
    x = r[:-1, None] + h[:, None] * _GL_X[None, :]
    d_l, d_r, off = ((weight(x) @ _GL_HATS) * h[:, None]).T
    diag = np.zeros(r.size)
    diag[:-1] += d_l
    diag[1:] += d_r
    return diag, off


def _tri_grad(r: np.ndarray, weight) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal FE stiffness for int f' g' weight(r) dr."""
    h = np.diff(r)
    x = r[:-1, None] + h[:, None] * _GL_X[None, :]
    coeff = (weight(x) @ _GL_W) / h
    diag = np.zeros(r.size)
    diag[:-1] += coeff
    diag[1:] += coeff
    return diag, -coeff


def _tri_sparse(diag: np.ndarray, off: np.ndarray) -> sp.csc_matrix:
    """Sparse symmetric tridiagonal from full-grid bands, Dirichlet outer node dropped."""
    n = diag.size - 1
    return sp.diags([off[: n - 1], diag[:n], off[: n - 1]], [-1, 0, 1],
                    format="csc")


def _load(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The full-grid mass matrix applied to the constants, outer node dropped."""
    return diag[:-1] + off + np.append(0.0, off[:-1])


@dataclass
class SectorOperator:
    """Discretized linearization in one spherical-harmonic sector."""

    ell: float  # sector of the gamma = 0 problem, ell/alpha
    grid: np.ndarray
    stiffness: sp.csc_matrix
    mass_matrix: sp.csc_matrix
    constraints: list = field(default_factory=list)

    def rayleigh(self, f: np.ndarray) -> float:
        """Rayleigh quotient of the pencil; 0 means marginal stability."""
        return float(f @ self.stiffness @ f) / float(f @ self.mass_matrix @ f)


def _sector_pencils(r: np.ndarray, d: float, ells, rho, omega=None,
                    potential=None, constraint=None) -> list[SectorOperator]:
    """The pencils (A, B) of the module docstring on grid r (its s), one per ell.

    ell >= 0 may be real.  The weights are callables of r; omega None means
    1, potential None means 0.  The measure is (r/r_c)^(d-1), r_c the
    geometric centre of the grid, so the centrifugal band carries 1/r_c^2.
    The ell = 0 operator carries the load vector of the constraint weight
    (rho, from its own bands, when None), the discrete zero-mean condition
    int constraint f r^(d-1) dr = 0.  Each band is assembled once for all
    sectors.  The outer boundary is Dirichlet (its node is dropped), the
    inner one natural.
    """
    r_c = math.sqrt(r[0] * r[-1])

    def measured(weight, power):
        if weight is None:
            return lambda x: (x / r_c) ** power
        return lambda x: weight(x) * (x / r_c) ** power

    diag_a, off_a = _tri_grad(r, measured(omega, d - 1.0))
    if potential is not None:
        diag_v, off_v = _tri_mass(r, measured(potential, d - 1.0))
        diag_a, off_a = diag_a + diag_v, off_a + off_v
    if max(ells) > 0:
        diag_c, off_c = _tri_mass(r, measured(omega, d - 3.0))
    diag_b, off_b = _tri_mass(r, measured(rho, d - 1.0))
    if np.any(diag_b <= 0.0) or not np.all(np.isfinite(diag_b)):
        raise SingularMass("weight underflow produced a singular mass matrix")
    if 0 in ells:
        load = _load(*((diag_b, off_b) if constraint is None else
                       _tri_mass(r, measured(constraint, d - 1.0))))
    B = _tri_sparse(diag_b, off_b)
    ops = []
    for ell in ells:
        diag, off, lam = diag_a, off_a, ell * (ell + d - 2.0) / (r_c * r_c)
        if ell:
            diag, off = diag + lam * diag_c, off + lam * off_c
        ops.append(SectorOperator(ell=ell, grid=r, mass_matrix=B,
                                  stiffness=_tri_sparse(diag, off),
                                  constraints=[] if ell else [load]))
    return ops


def _unit_optimizer(flat: ProblemParams):
    """(q -> (s -> u(s)^q), a/b) for the optimizer w of a gamma = 0 triple,
    u = w/w(0) its unit-peak form and a/b = w(0)^(p-1)."""
    ex = derive(flat)
    u = AnalyticProfile(log_peak=0.0, b=ex.b_gamma, c=2.0, k=1.0 / (flat.p - 1.0))
    return (lambda q: lambda s: np.exp(q * u.log(s))), ex.a_gamma / ex.b_gamma


def assemble(params: ProblemParams, ell: int, n: int = 2000) -> SectorOperator:
    """Sector-ell operator around the explicit optimizer, on n nodes in s.

    It is the gamma = 0 operator in the dimension D = d_gamma at the sector
    ell' = ell/alpha (module docstring); in the radial sector the zero-mean
    condition weighs f by w^(2p-1).  The grid holds the integrands of the
    optimizer and those of an eigenfunction that goes like s^ell' at 0 and
    like s^(-nu) at infinity, nu (nu - (D-2)) = p a + ell' (ell' + D - 2),
    where the potential is p a/s^2 and rho decays faster.  Raises
    ParameterError for ell < 0 and for n < MIN_NODES.
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
    power, ab = _unit_optimizer(flat)
    u_p1, u_2p2 = power(p - 1.0), power(2.0 * p - 2.0)
    # w^(p-1) = (a/b) u^(p-1); the zero-mean weight is u^(2p-1), w^(2p-1)
    # over its peak: a constant factor keeps the constraint
    (op,) = _sector_pencils(
        s, d_g, [ell_f],
        potential=lambda x: p * ab * u_p1(x) - (2.0 * p - 1.0) * ab * ab * u_2p2(x),
        rho=lambda x: (2.0 * p - 1.0) * ab * ab * u_2p2(x),
        constraint=power(2.0 * p - 1.0))
    return op


def lowest_eigenvalue(op: SectorOperator):
    """Smallest pencil eigenvalue on the subspace orthogonal to the constraints.

    Returns (lambda_min, eigenprofile) with the eigenprofile normalized in
    the mass-matrix norm and stored on the operator grid (outer Dirichlet
    node reattached as zero).  One path serves every operator: shift-invert
    Lanczos with K = A - SHIFT B factored once, as L D L^T by LAPACK's
    tridiagonal dpttrf; dpttrs applies K^-1 and B is applied by its bands.
    A pivot of D that is not positive means SHIFT is not below the pencil
    spectrum: EigenSolverFailure, not a wrong eigenvalue.  Constraints C
    enter through the bordered system [[K, C], [C^T, 0]], solved by its Schur
    complement, x = K^-1 z - K^-1 C (C^T K^-1 C)^-1 C^T K^-1 z, so every
    Lanczos vector satisfies C^T x = 0 exactly.  Shift-invert keeps full
    accuracy in the small eigenvalues even when the graded grid gives the
    pencil a dynamic range of many orders of magnitude.
    """
    A, B = op.stiffness, op.mass_matrix
    n = A.shape[0]
    b_diag, b_off = B.diagonal(), B.diagonal(1)

    def apply_b(x):
        y = b_diag * x
        y[:-1] += b_off * x[1:]
        y[1:] += b_off * x[:-1]
        return y

    # both bands are fresh arrays, so dpttrf may overwrite them
    k_diag, k_off, info = dpttrf(A.diagonal() - SHIFT * b_diag,
                                 A.diagonal(1) - SHIFT * b_off, True, True)
    if info > 0:
        raise EigenSolverFailure(
            f"A - SHIFT B is not positive definite at SHIFT = {SHIFT}: "
            f"dpttrf pivot {info} of {n} is not positive")

    def solve_k(z):
        return dpttrs(k_diag, k_off, z)[0]

    solve = solve_k
    try:
        if op.constraints:
            C = np.column_stack(op.constraints)
            if np.linalg.matrix_rank(C) < C.shape[1]:
                raise EigenSolverFailure("constraint vectors are linearly dependent")
            # K^-1 C (C^T K^-1 C)^-1, from the Schur complement once
            KC = solve_k(C)
            KCS = sla.cho_solve(sla.cho_factor(C.T @ KC), KC.T).T

            def solve(z):
                x = solve_k(z)
                return x - KCS @ (C.T @ x)

        # a fixed start vector: ARPACK's random default makes repeated runs
        # differ in the last digits
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        vals, vecs = spla.eigsh(
            A, k=1, M=spla.LinearOperator((n, n), matvec=apply_b, dtype=float),
            sigma=SHIFT, which="LM", tol=0.0, v0=v0,
            OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=float))
    except (sla.LinAlgError, RuntimeError) as exc:
        raise EigenSolverFailure(str(exc)) from exc
    lam, vec = float(vals[0]), vecs[:, 0]
    vec = np.append(vec / math.sqrt(float(vec @ apply_b(vec))), 0.0)
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
    of s^2 (sector 0).  d is real: d > 2 and 1 < p < d/(d-2), else
    ParameterError.
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
    power, ab = _unit_optimizer(flat)
    u_3p1 = power(3.0 * p - 1.0)
    return _sector_pencils(s, d, (0, 1), omega=power(2.0 * p),
                           rho=lambda x: ab * u_3p1(x))


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
    Bc = B @ coord
    corr = abs(float(v @ Bc)) / math.sqrt(float(coord @ Bc) * float(v @ B @ v))
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
