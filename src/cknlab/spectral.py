"""Linearized stability analysis around Barenblatt profiles, sector by sector.

Perturbations decompose over spherical-harmonic sectors; in sector ell the
quadratic form of the linearization around a positive radial profile w is

    a(f) = int (f'^2 + ell (ell + d - 2) f^2 / r^2) r^(d-1) dr
           + p int w^(p-1) f^2 r^(d-1-gamma) dr

against  b(f) = (2p - 1) int w^(2(p-1)) f^2 r^(d-1-gamma) dr.  The sector
operator is the pencil (a - b, b), so eigenvalue 0 marks marginal stability
and the unweighted translation mode sits exactly at 0 in sector ell = 1.

Discretization is piecewise-linear finite elements on a graded grid with
per-cell Gauss quadrature: the forms stay symmetric and the discrete
eigenvalues are variational upper bounds.  Every form is tridiagonal and is
stored as a sparse matrix.  Constraints are imposed exactly, through the
bordered (KKT) system of the shift-invert solve, never by penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenSolverFailure, ParameterError, SingularMass
from .params import ProblemParams, check_radial_bounds, validate
from .profiles import RadialProfile, w_gamma_star

__all__ = [
    "SectorOperator",
    "spectral_grid",
    "assemble",
    "lowest_eigenvalue",
    "sector_min",
    "hardy_poincare_gap",
    "gamma_sweep",
]

# 4-point Gauss-Legendre on [0, 1]
_GL_X = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                               0.3399810435848563, 0.8611363115940526]))
_GL_W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                        0.6521451548625461, 0.3478548451374538])

# shift of the shift-invert solve, a strict lower bound of every pencil
# spectrum here: A - SHIFT B is the positive definite form a for the sector
# pencils (a - b, b), and numerator plus denominator for the Hardy-Poincare
# quotient
SHIFT = -1.0

# smallest grid a sector solve accepts: two nodes per decade of the default
# eight-decade grid.  Coarser grids leave the profile's transition near r = 1
# unresolved; at 3 nodes the radial sector at (3, 0, 2) reads 1.4e4 for 0.24
MIN_NODES = 16


def spectral_grid(n: int = 1200, r_min: float = 1e-4, r_max: float = 1e4) -> np.ndarray:
    _require_nodes(n)
    check_radial_bounds(r_min, r_max)
    return np.geomspace(r_min, r_max, n)


def _tri_mass(r: np.ndarray, weight) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal FE mass matrix for int f g weight(r) dr: (diag, off)."""
    h = np.diff(r)
    x = r[:-1, None] + h[:, None] * _GL_X[None, :]
    wq = weight(x) * (h[:, None] * _GL_W[None, :])
    phi_r = (x - r[:-1, None]) / h[:, None]   # rising hat on the cell
    phi_l = 1.0 - phi_r
    d_l = np.sum(wq * phi_l * phi_l, axis=1)
    d_r = np.sum(wq * phi_r * phi_r, axis=1)
    off = np.sum(wq * phi_l * phi_r, axis=1)
    diag = np.zeros(r.size)
    diag[:-1] += d_l
    diag[1:] += d_r
    return diag, off


def _tri_grad(r: np.ndarray, weight) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal FE stiffness for int f' g' weight(r) dr."""
    h = np.diff(r)
    x = r[:-1, None] + h[:, None] * _GL_X[None, :]
    wcell = np.sum(weight(x) * (h[:, None] * _GL_W[None, :]), axis=1)
    coeff = wcell / h**2
    diag = np.zeros(r.size)
    diag[:-1] += coeff
    diag[1:] += coeff
    return diag, -coeff


def _tri_sparse(diag: np.ndarray, off: np.ndarray) -> sp.csc_matrix:
    """Symmetric tridiagonal matrix from full-grid bands, outer node dropped.

    The outer boundary carries a Dirichlet condition, so the last node is
    not an unknown.
    """
    n = diag.size - 1
    return sp.diags([off[: n - 1], diag[:n], off[: n - 1]], [-1, 0, 1],
                    format="csc")


def _load(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The full-grid mass matrix applied to the constants, outer node dropped."""
    vec = diag.copy()
    vec[:-1] += off
    vec[1:] += off
    return vec[:-1]


@dataclass
class SectorOperator:
    """Discretized linearization in one spherical-harmonic sector."""

    ell: int
    grid: np.ndarray
    stiffness: sp.csc_matrix
    mass_matrix: sp.csc_matrix
    constraints: list = field(default_factory=list)

    def rayleigh(self, f: np.ndarray) -> float:
        """Rayleigh quotient of the pencil; 0 means marginal stability."""
        return float(f @ self.stiffness @ f) / float(f @ self.mass_matrix @ f)


def assemble(params: ProblemParams, profile, ell: int,
             grid: np.ndarray | None = None) -> SectorOperator:
    """Assemble the sector operator around a positive radial profile.

    profile may be an AnalyticProfile or any callable w(r) > 0.  The outer
    boundary carries a Dirichlet condition (the last node is dropped); the
    inner boundary is natural, which is the regular choice on a truncated
    radial domain.
    """
    d, g, p = params.d, params.gamma, params.p
    r_full = spectral_grid() if grid is None else np.asarray(grid, dtype=float)
    w = profile

    dg1, off1 = _tri_grad(r_full, lambda x: x ** (d - 1.0))
    lam_ell = float(ell * (ell + d - 2))
    if lam_ell:
        dgc, offc = _tri_mass(r_full, lambda x: x ** (d - 3.0))
        dg1 = dg1 + lam_ell * dgc
        off1 = off1 + lam_ell * offc
    dgv, offv = _tri_mass(r_full, lambda x: w(x) ** (p - 1.0) * x ** (d - 1.0 - g))
    dgb, offb = _tri_mass(r_full,
                          lambda x: w(x) ** (2.0 * (p - 1.0)) * x ** (d - 1.0 - g))

    diag_a = dg1 + p * dgv - (2.0 * p - 1.0) * dgb
    off_a = off1 + p * offv - (2.0 * p - 1.0) * offb
    diag_b = (2.0 * p - 1.0) * dgb
    off_b = (2.0 * p - 1.0) * offb

    if np.any(diag_b <= 0.0) or not np.all(np.isfinite(diag_b)):
        raise SingularMass("weight underflow produced a singular mass matrix")

    return SectorOperator(ell=ell, grid=r_full,
                          stiffness=_tri_sparse(diag_a, off_a),
                          mass_matrix=_tri_sparse(diag_b, off_b))


def mass_direction_constraint(params: ProblemParams, profile,
                              grid: np.ndarray) -> np.ndarray:
    """Load vector of w^(2p-1) r^(-gamma) against the FE basis.

    Orthogonality to it is the discrete form of the zero-mean condition
    int omega w^(2p-1) |x|^(-gamma) dx = 0 that removes the mass direction.
    """
    d, g, p = params.d, params.gamma, params.p
    return _load(*_tri_mass(grid, lambda x: profile(x) ** (2.0 * p - 1.0)
                            * x ** (d - 1.0 - g)))


def lowest_eigenvalue(op: SectorOperator):
    """Smallest pencil eigenvalue on the subspace orthogonal to the constraints.

    Returns (lambda_min, eigenprofile) with the eigenprofile normalized in
    the mass-matrix norm and stored on the operator grid (outer Dirichlet
    node reattached as zero).  One path serves every operator: shift-invert
    Lanczos with K = A - SHIFT B factored once.  Constraints C enter through
    the bordered system [[K, C], [C^T, 0]], solved by its Schur complement,
    x = K^-1 z - K^-1 C (C^T K^-1 C)^-1 C^T K^-1 z, so every Lanczos vector
    satisfies C^T x = 0 exactly.  Shift-invert keeps full accuracy in the
    small eigenvalues even when the graded grid gives the pencil a dynamic
    range of many orders of magnitude.
    """
    A, B = op.stiffness, op.mass_matrix
    n = A.shape[0]
    try:
        lu = spla.splu(sp.csc_matrix(A - SHIFT * B))
        solve = lu.solve
        if op.constraints:
            C = np.column_stack(op.constraints)
            if np.linalg.matrix_rank(C) < C.shape[1]:
                raise EigenSolverFailure("constraint vectors are linearly dependent")
            KC = lu.solve(C)
            schur = sla.cho_factor(C.T @ KC)

            def solve(z):
                x = lu.solve(z)
                return x - KC @ sla.cho_solve(schur, C.T @ x)

        # a fixed start vector: ARPACK's random default makes repeated runs
        # differ in the last digits
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        vals, vecs = spla.eigsh(
            A, k=1, M=B, sigma=SHIFT, which="LM", tol=0.0, v0=v0,
            OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=float))
    except (sla.LinAlgError, RuntimeError) as exc:
        raise EigenSolverFailure(str(exc)) from exc
    lam, vec = float(vals[0]), vecs[:, 0]
    vec = np.append(vec / math.sqrt(float(vec @ B @ vec)), 0.0)
    return lam, RadialProfile(radii=op.grid, values=vec,
                              meta={"ell": op.ell, "eigenvalue": lam})


def _require_nodes(count: int) -> None:
    if count < MIN_NODES:
        raise ParameterError(
            f"a sector solve needs a grid of at least {MIN_NODES} nodes, "
            f"got {count}")


def sector_min(params: ProblemParams, ell: int, grid: np.ndarray) -> float:
    """Lowest eigenvalue of sector ell around the explicit optimizer.

    Assembles the sector operator around w_gamma_star(params) on grid and,
    in the radial sector, projects out the mass direction.  Raises
    ParameterError for grids of fewer than MIN_NODES nodes and for ell < 0.
    """
    grid = np.asarray(grid, dtype=float)
    _require_nodes(grid.size)
    if ell < 0:
        raise ParameterError(f"sector index ell must be >= 0, got {ell}")
    prof = w_gamma_star(params)
    op = assemble(params, prof, ell, grid)
    if ell == 0:
        op.constraints = [mass_direction_constraint(params, prof, grid)]
    return lowest_eigenvalue(op)[0]


def hardy_poincare_gap(d: int, p: float, n: int = 2000,
                       r_min: float = 1e-4, r_max: float = 1e4):
    """Constrained Rayleigh minimum of the weighted spectral-gap quotient.

    Minimizes int |grad f|^2 w0^(2p) dx / int f^2 w0^(3p-1) dx over functions
    orthogonal to the constants in the w0^(3p-1) inner product, where w0 is
    the unweighted explicit optimizer.  The search space decomposes over
    sectors; the radial sector carries the orthogonality constraint while in
    sector ell = 1 it holds automatically, and higher sectors are dominated.
    Returns (gap, info) where info holds the minimizing sector, the radial
    part of the minimizer and its correlation with the coordinate function.
    """
    params = validate(d, 0.0, p)
    r = spectral_grid(n, r_min, r_max)
    w0 = w_gamma_star(params)

    dgrad, ograd = _tri_grad(r, lambda x: w0(x) ** (2.0 * p) * x ** (d - 1.0))
    dden, oden = _tri_mass(r, lambda x: w0(x) ** (3.0 * p - 1.0) * x ** (d - 1.0))
    dcent, ocent = _tri_mass(r, lambda x: w0(x) ** (2.0 * p) * x ** (d - 3.0))
    B = _tri_sparse(dden, oden)
    op0 = SectorOperator(ell=0, grid=r, stiffness=_tri_sparse(dgrad, ograd),
                         mass_matrix=B, constraints=[_load(dden, oden)])
    op1 = SectorOperator(ell=1, grid=r, mass_matrix=B, stiffness=_tri_sparse(
        dgrad + (d - 1.0) * dcent, ograd + (d - 1.0) * ocent))
    results = {0: lowest_eigenvalue(op0), 1: lowest_eigenvalue(op1)}

    sector = min(results, key=lambda k: results[k][0])
    gap, prof = results[sector]

    # correlation of the minimizer with the coordinate function in the
    # denominator inner product (meaningful for the ell = 1 sector)
    coord = r[:-1]
    v = prof.values[:-1]
    Bc = B @ coord
    corr = abs(float(v @ Bc)) / math.sqrt(float(coord @ Bc) * float(v @ B @ v))
    info = {
        "sector": sector,
        "by_sector": {k: results[k][0] for k in results},
        "eigenprofile": prof,
        "coordinate_correlation": corr,
    }
    return gap, info


def gamma_sweep(d: int, p: float, gamma_grid, ell: int = 1,
                n: int = 800, r_min: float = 1e-4, r_max: float = 1e4):
    """Lowest sector eigenvalue around the explicit optimizer along gamma.

    Uses one shared grid for the whole sweep so the curve is a continuous
    function of gamma alone.  In the radial sector the mass direction is
    projected out; higher sectors need no constraint.  Returns a list of
    (gamma, lambda_min) pairs.
    """
    grid = spectral_grid(n, r_min, r_max)
    return [(float(g), sector_min(validate(d, float(g), p), ell, grid))
            for g in gamma_grid]
