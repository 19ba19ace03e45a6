import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cknlab import spectral
from cknlab.errors import EigenSolverFailure, ParameterError
from cknlab.params import ProblemParams, derive, validate
from cknlab.profiles import AnalyticProfile, w_gamma_star
from cknlab.spectral import (_GL_W, _GL_X, CERT_GAP, MIN_NODES, SHIFT,
                             _count_below, _hardy_poincare_pencils, _mesh,
                             _sector_pencils, _tri_mass, assemble, gamma_sweep,
                             hardy_poincare_gap, lowest_eigenvalue, sector_min)
from sector_oracle import ABS_TOL, REL_TOL, sector_closed_form, tridiagonal

# a weight whose exp of a log sum overflows or underflows fails its test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _shift_stiffness(op, t):
    """Replace A by A + t B."""
    op.stiffness = tuple(a + t * b for a, b in zip(op.stiffness, op.mass_matrix))


def _reference_solve(op):
    """A shift-invert Lanczos solve on general sparse machinery: ARPACK,
    SuperLU for K = A - SHIFT B, sparse products with B, and the bordered
    constraint solve through a Cholesky-factored Schur complement.  Returns
    (lambda, eigenvector on the interior nodes, B-normalized)."""
    A, B = tridiagonal(op.stiffness), tridiagonal(op.mass_matrix)
    n = A.shape[0]
    lu = spla.splu(sp.csc_matrix(A - SHIFT * B))
    solve = lu.solve
    if op.constraints:
        C = np.column_stack(op.constraints)
        KC = lu.solve(C)
        schur = sla.cho_factor(C.T @ KC)

        def solve(z):
            x = lu.solve(z)
            return x - KC @ sla.cho_solve(schur, C.T @ x)

    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    vals, vecs = spla.eigsh(
        A, k=1, M=B, sigma=SHIFT, which="LM", tol=0.0, v0=v0,
        OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=float))
    vec = vecs[:, 0]
    return float(vals[0]), vec / np.sqrt(vec @ B @ vec)


def _count_calls(monkeypatch, name="_count_below"):
    """Count the solver's calls of spectral.<name>: [count], updated in place."""
    counts, wrapped = [0], getattr(spectral, name)

    def counting(*args):
        counts[0] += 1
        return wrapped(*args)

    monkeypatch.setattr(spectral, name, counting)
    return counts


def _gauss_nodes(r):
    """The Gauss nodes of grid r, one row per cell."""
    h = np.diff(r)
    return r[:-1, None] + h[:, None] * _GL_X[None, :]


def _reference_mass(r, weight):
    """FE mass bands (diag, off) of int f g weight dr, weight at
    _gauss_nodes(r)."""
    hats = _GL_W[:, None] * np.column_stack(
        [(1.0 - _GL_X) ** 2, _GL_X ** 2, (1.0 - _GL_X) * _GL_X])
    d_l, d_r, off = ((weight @ hats) * np.diff(r)[:, None]).T
    diag = np.zeros(r.size)
    diag[:-1] += d_l
    diag[1:] += d_r
    return diag, off


def _reference_grad(r, weight):
    """FE stiffness bands (diag, off) of int f' g' weight dr."""
    coeff = (weight @ _GL_W) / np.diff(r)
    diag = np.zeros(r.size)
    diag[:-1] += coeff
    diag[1:] += coeff
    return diag, -coeff


def _reference_bands(r, d, ell, rho, omega=None, potential=None,
                     constraint=None):
    """(stiffness, mass, load) of sector ell on grid r, each band sampled
    directly at _gauss_nodes(r) with the measure x ** (d - 1): the assembly
    the log-form mesh replaced.  The load is None off ell = 0."""
    r_c = math.sqrt(r[0] * r[-1])
    x = _gauss_nodes(r) / r_c
    measure = x ** (d - 1.0)

    def measured(weight):
        return measure if weight is None else weight * measure

    diag_a, off_a = _reference_grad(r, measured(omega))
    if potential is not None:
        diag_v, off_v = _reference_mass(r, measured(potential))
        diag_a, off_a = diag_a + diag_v, off_a + off_v
    if ell:
        centrifugal = x ** (d - 3.0)
        diag_c, off_c = _reference_mass(r, centrifugal if omega is None
                                        else omega * centrifugal)
        lam = ell * (ell + d - 2.0) / (r_c * r_c)
        diag_a, off_a = diag_a + lam * diag_c, off_a + lam * off_c
    diag_b, off_b = _reference_mass(r, measured(rho))
    load = None
    if ell == 0:
        diag_l, off_l = ((diag_b, off_b) if constraint is None
                         else _reference_mass(r, measured(constraint)))
        load = diag_l[:-1] + off_l + np.append(0.0, off_l[:-1])
    return (diag_a[:-1], off_a[:-1]), (diag_b[:-1], off_b[:-1]), load


def _unit_optimizer_log(d, p, r):
    """(log u at _gauss_nodes(r) through AnalyticProfile.log, a/b) for the
    gamma = 0 optimizer in the real dimension d."""
    ex = derive(ProblemParams(float(d), 0.0, float(p)))
    u = AnalyticProfile(log_peak=0.0, b=ex.b_gamma, c=2.0, k=1.0 / (p - 1.0))
    return u.log(_gauss_nodes(r)), ex.a_gamma / ex.b_gamma


def _reference_sector(params, ell, op):
    """_reference_bands of assemble(params, ell) on np.geomspace between the
    ends of op's grid."""
    p, alpha = params.p, 1.0 - params.gamma / 2.0
    d_g = derive(params).d_gamma
    r = np.geomspace(op.grid[0], op.grid[-1], op.grid.size)
    log_u, ab = _unit_optimizer_log(d_g, p, r)
    u_2p2 = np.exp((2.0 * p - 2.0) * log_u)
    rho = (2.0 * p - 1.0) * ab * ab * u_2p2
    return r, _reference_bands(
        r, d_g, ell / alpha, rho,
        potential=p * ab * np.exp((p - 1.0) * log_u) - rho,
        constraint=np.exp((2.0 * p - 1.0) * log_u) if ell == 0 else None)


def _reference_hardy_poincare(d, p, op):
    """_reference_bands of the Hardy-Poincare sector op.ell at (d, p)."""
    r = np.geomspace(op.grid[0], op.grid[-1], op.grid.size)
    log_u, ab = _unit_optimizer_log(d, p, r)
    return r, _reference_bands(r, d, op.ell,
                               rho=ab * np.exp((3.0 * p - 1.0) * log_u),
                               omega=np.exp(2.0 * p * log_u))


def _check_parity(op, reference):
    r, (stiffness, mass, load) = reference
    assert np.allclose(op.grid, r, rtol=1e-13, atol=0.0)
    pairs = [*zip(op.stiffness, stiffness), *zip(op.mass_matrix, mass)]
    if load is not None:
        pairs.append((op.constraints[0], load))
    for new, old in pairs:
        assert np.all(np.abs(new - old) <= 1e-11 * np.abs(old))


def _dense_reference(op):
    """The pencil's eigenvalues on c^T x = 0 by dense eigh on a basis of
    that subspace, after the equilibration that makes the bands of order 1."""
    A, B = tridiagonal(op.stiffness).toarray(), tridiagonal(op.mass_matrix).toarray()
    scale = 1.0 / np.sqrt(np.diag(A) - SHIFT * np.diag(B))
    A, B = scale[:, None] * A * scale, scale[:, None] * B * scale
    if op.constraints:
        c = scale * op.constraints[0]
        Q = sla.null_space((c / np.max(np.abs(c)))[None, :])
        A, B = Q.T @ A @ Q, Q.T @ B @ Q
    return sla.eigh(A, B, eigvals_only=True)


# operators whose spectra are dense, at d_gamma = 82-202
DENSE_SPECTRA = [(6, 1.9, 1.0175, 1), (3, 1.98, 1.005, 0), (3, 1.98, 1.005, 1),
                 (3, 1.98, 1.005, 2), (3, 1.99, 1.002, 0)]


@pytest.fixture(scope="module")
def pp0():
    return validate(3, 0.0, 2.0)


@pytest.fixture(scope="module")
def op_ell1(pp0):
    return assemble(pp0, ell=1, n=2000)


class TestAssemble:
    def test_symmetry(self, op_ell1):
        A = tridiagonal(op_ell1.stiffness).toarray()
        assert np.max(np.abs(A - A.T)) < 1e-12 * np.max(np.abs(A))
        B = tridiagonal(op_ell1.mass_matrix).toarray()
        assert np.max(np.abs(B - B.T)) == 0.0

    def test_centrifugal_difference(self):
        # sectors 0 and 1 of one grid differ exactly by the (d-1)/s^2 mass
        # term, in the measure (s/s_c)^(d-1) of the grid's centre s_c = 10
        d, grid, s_c = 3, np.geomspace(0.1, 1e3, 300), 10.0
        mesh = _mesh(np.log(grid))
        x = np.exp(mesh.log_nodes)
        # the bands do not depend on the start
        op0, op1 = _sector_pencils(mesh, d, (0, 1), [np.zeros(grid.size)] * 2,
                                   rho=np.ones_like(x))
        dgc, offc = _tri_mass(mesh.h, (x / s_c) ** (d - 3.0))
        n = grid.size - 1
        cent = (d - 1.0) / s_c**2 * tridiagonal((dgc[:n], offc[: n - 1])).toarray()
        diff = tridiagonal(op1.stiffness) - tridiagonal(op0.stiffness)
        assert np.allclose(diff.toarray(), cent, rtol=1e-12, atol=1e-12)

    def test_rayleigh_quotient_at_translation_mode(self, pp0, op_ell1):
        f = w_gamma_star(pp0).deriv(op_ell1.grid)[:-1]
        assert abs(op_ell1.rayleigh(f)) < 1e-4

    def test_mass_matrix_positive_definite(self, op_ell1):
        vals = np.linalg.eigvalsh(tridiagonal(op_ell1.mass_matrix).toarray())
        assert vals.min() > 0

    def test_only_radial_sector_carries_constraint(self, pp0, op_ell1):
        op0 = assemble(pp0, ell=0, n=300)
        assert len(op0.constraints) == 1
        assert op0.constraints[0].shape == (299,)
        assert np.all(op0.constraints[0] > 0)
        assert op_ell1.constraints == []

    def test_operators_compare_by_identity(self, pp0, op_ell1):
        # the bands have no truth value: == is identity and does not raise
        twin = assemble(pp0, ell=1, n=2000)
        assert op_ell1 == op_ell1 and op_ell1 != twin

    def test_rejects_negative_ell(self, pp0):
        with pytest.raises(ParameterError):
            assemble(pp0, ell=-1, n=300)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("d, gamma, p", [(3, 0.0, 2.0), (4, 0.25, 1.5),
                                             (3, 1.5, 1.49), (3, 1.98, 1.005)])
    def test_bands_match_direct_sampling(self, d, gamma, p, ell):
        # weights from one log pass over the Gauss nodes give the bands of
        # sampling x ** (d - 1) and the optimizer at each node, to rounding
        params = validate(d, gamma, p)
        op = assemble(params, ell, 2000)
        _check_parity(op, _reference_sector(params, ell, op))

    @pytest.mark.parametrize("d, p", [(3, 2.0), (4, 1.7)])
    def test_hardy_poincare_bands_match_direct_sampling(self, d, p):
        for op in _hardy_poincare_pencils(d, p, 2000):
            _check_parity(op, _reference_hardy_poincare(d, p, op))


class TestLowestEigenvalue:
    def test_translation_zero_mode(self, pp0, op_ell1):
        lam, prof = lowest_eigenvalue(op_ell1)
        assert abs(lam) < 1e-5
        # eigenprofile matches the derivative of the optimizer in the
        # mass-matrix norm
        B = tridiagonal(op_ell1.mass_matrix)
        f = w_gamma_star(pp0).deriv(op_ell1.grid)[:-1]
        f = f / np.sqrt(f @ B @ f)
        v = prof.values[:-1]
        sign = np.sign(v @ B @ f)
        dev = v - sign * f
        assert np.sqrt(dev @ B @ dev) < 1e-3

    def test_radial_sector_positive_with_constraint(self, pp0):
        op = assemble(pp0, ell=0, n=1200)
        lam, _ = lowest_eigenvalue(op)
        assert lam > 0.1

    def test_constrained_eigenprofile_is_feasible(self, pp0):
        # the bordered solve keeps every iterate orthogonal to the constraint
        op = assemble(pp0, ell=0, n=1000)
        c = op.constraints[0]
        lam, eig = lowest_eigenvalue(op)
        v = eig.values[:-1]
        assert abs(c @ v) < 1e-12 * np.linalg.norm(c) * np.linalg.norm(v)
        assert op.rayleigh(v) == pytest.approx(lam, rel=1e-12)

    def test_two_constraints_rejected(self, pp0):
        # the border is one zero-mean load vector; a second one is not solved
        op = assemble(pp0, ell=0, n=400)
        c = op.constraints[0]
        op.constraints = [c, c * np.linspace(0.0, 1.0, c.size)]
        with pytest.raises(ParameterError, match="at most one constraint"):
            lowest_eigenvalue(op)

    def test_spectral_shift_identity(self, pp0):
        op = assemble(pp0, ell=0, n=400)
        lam_a, _ = lowest_eigenvalue(op)
        _shift_stiffness(op, 0.37)
        lam_b, _ = lowest_eigenvalue(op)
        assert abs(lam_b - lam_a - 0.37) < 1e-10

    def test_sector_ordering(self, pp0):
        lams = []
        for ell in (1, 2, 3):
            op = assemble(pp0, ell=ell, n=600)
            lam, _ = lowest_eigenvalue(op)
            lams.append(lam)
        assert lams[0] < lams[1] < lams[2]

    @pytest.mark.parametrize("ell", [0, 1])
    def test_sector_min_rejects_tiny_grids(self, pp0, ell):
        with pytest.raises(ParameterError):
            sector_min(pp0, ell, MIN_NODES - 1)
        assert np.isfinite(sector_min(pp0, ell, MIN_NODES))

    def test_near_p_one(self):
        # at p = 1.02 the tail (b + r^c)^(-k) underflows long before the
        # small powers w^(p-1) and w^(2p-2) of the weights do
        pp = validate(3, 0.0, 1.02)
        assert abs(sector_min(pp, 1, 2000)) < 1e-5
        coarse = sector_min(pp, 0, 2000)
        fine = sector_min(pp, 0, 4000)
        assert coarse > 0
        assert abs(coarse - fine) < 1e-3

    @pytest.mark.parametrize("d, gamma, p, n", [(5, 1.0, 1.3, 8000),
                                                (3, 0.5, 1.75, 2000)])
    def test_radial_sector_flattens_to_real_dimension(self, d, gamma, p, n):
        # sector_min solves the radial sector at weight gamma as the gamma = 0
        # one in the real dimension d_gamma, on a grid in s = r^((2-gamma)/2);
        # the reference is the radial pencil in r with its r^-gamma weights,
        # on an r-grid [1e-4, 1e4] that holds the profile at these points
        w = w_gamma_star(validate(d, gamma, p))
        grid = np.geomspace(1e-4, 1e4, n)
        mesh = _mesh(np.log(grid))
        r = np.exp(mesh.log_nodes)

        def weight(q):
            return np.exp(q * w.log(r) - gamma * np.log(r))

        # the solve starts from the optimizer, the radial shape the grid holds
        (op,) = _sector_pencils(
            mesh, d, [0], [w.log(grid)], constraint=weight(2 * p - 1),
            potential=p * weight(p - 1) - (2 * p - 1) * weight(2 * p - 2),
            rho=(2 * p - 1) * weight(2 * p - 2))
        weighted = lowest_eigenvalue(op)[0]
        flat = sector_min(validate(d, gamma, p), 0, n)
        assert flat == pytest.approx(weighted, rel=1e-3)

    def test_radial_sector_refines_at_large_gamma(self):
        # at gamma = 1.5 a default grid in r would cut through the profile;
        # in s the radial value moves by 0.2% from n = 2000 to n = 4000
        pp = validate(3, 1.5, 1.49)
        coarse = sector_min(pp, 0, 2000)
        fine = sector_min(pp, 0, 4000)
        assert 0 < fine < coarse
        assert coarse == pytest.approx(fine, rel=1e-2)

    def test_radial_sector_refines_at_large_d_gamma(self):
        # d_gamma = 42: the fixed grid [1e-4, 1e4] read 0.01043 at n = 2000
        # and 0.00782 at n = 8000; a grid sized from the integrands holds the
        # radial value within 1% from n = 2000
        pp = validate(4, 1.9, 1.045)
        assert sector_min(pp, 0, 2000) == pytest.approx(sector_min(pp, 0, 8000),
                                                        rel=1e-2)

    def test_grid_convergence(self, pp0):
        lams = []
        for n in (1000, 2000):
            op = assemble(pp0, ell=1, n=n)
            lam, _ = lowest_eigenvalue(op)
            lams.append(lam)
        assert abs(lams[1] - lams[0]) < 1e-4


class TestBandedSolve:
    """The certified banded solve against the general sparse reference."""

    @staticmethod
    def _check(op):
        lam, prof = lowest_eigenvalue(op)
        want, ref = _reference_solve(op)
        assert abs(lam - want) <= 1e-12
        B = tridiagonal(op.mass_matrix)
        v = prof.values[:-1]
        dev = v - np.sign(v @ B @ ref) * ref
        assert np.sqrt(dev @ B @ dev) <= 1e-8

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("d, gamma, p", [(3, 0.0, 2.0), (4, 0.25, 1.5),
                                             (3, 1.5, 1.49)])
    def test_matches_sparse_reference(self, d, gamma, p, ell):
        self._check(assemble(validate(d, gamma, p), ell, 2000))

    @pytest.mark.parametrize("d, gamma, p, ell", DENSE_SPECTRA)
    def test_lands_above_lowest_then_certified(self, d, gamma, p, ell,
                                               monkeypatch):
        # at d_gamma = 82-202 the spectra are dense: from a random start the
        # Rayleigh-quotient iteration after the settled inverse iteration
        # lands on a higher eigenvalue; the certificate's count sees it, and
        # the bisection on that count finds the lowest one
        op = assemble(validate(d, gamma, p), ell, 2000)
        op.start = np.random.default_rng(0).uniform(-1.0, 1.0, op.start.size)
        counts = _count_calls(monkeypatch)
        self._check(op)
        # 47 here: the failed certificate, 45 bisection counts, the passed one
        assert counts[0] > 2

    @pytest.mark.parametrize("d, gamma, p, ell", DENSE_SPECTRA)
    def test_model_start_certified_by_one_count(self, d, gamma, p, ell,
                                                monkeypatch):
        # from the model eigenfunction the same solves land on the lowest
        # eigenvalue, and one count certifies it
        op = assemble(validate(d, gamma, p), ell, 2000)
        counts = _count_calls(monkeypatch)
        self._check(op)
        assert counts[0] == 1

    def test_model_start_bisects_on_a_coarse_grid(self, monkeypatch):
        # the bisection is live for operators the builder makes: at
        # (3, 1.98, 1.0002), d_gamma = 102, on 400 nodes, the solve from the
        # model eigenfunction fails its first certificate and bisects (47
        # counts here)
        op = assemble(validate(3, 1.98, 1.0002), 0, 400)
        counts = _count_calls(monkeypatch)
        self._check(op)
        assert counts[0] > 2

    @pytest.mark.parametrize("sector", [0, 1])
    def test_hardy_poincare_matches_sparse_reference(self, sector):
        self._check(_hardy_poincare_pencils(3, 2.0, 2000)[sector])

    @pytest.mark.parametrize("sector", [0, 1])
    @pytest.mark.parametrize("d, p", [(3, 2.5), (4, 1.9)])
    def test_hardy_poincare_near_p_max_matches_sparse_reference(self, d, p, sector):
        # the crowded spectra near p_max: with 4 inverse steps in place of
        # the settle rule, the Rayleigh-quotient iteration lands above the
        # lowest eigenvalue at (4, 1.9), sector 0
        self._check(_hardy_poincare_pencils(d, p, 2000)[sector])

    def test_shift_above_spectrum_raises(self, pp0):
        # lowering A by 5 B puts the pencil's lowest eigenvalue near -5,
        # below SHIFT = -1: K is indefinite and its factorization must fail
        # instead of the solve returning a wrong eigenvalue
        op = assemble(pp0, ell=1, n=400)
        _shift_stiffness(op, -5.0)
        lowest = sla.eigh(tridiagonal(op.stiffness).toarray(),
                          tridiagonal(op.mass_matrix).toarray(),
                          eigvals_only=True)[0]
        assert lowest == pytest.approx(-5.0, abs=1e-3)
        with pytest.raises(EigenSolverFailure, match="dpttrf pivot"):
            lowest_eigenvalue(op)

    @staticmethod
    def _check_factors(ops):
        # SHIFT is a strict lower bound of every pencil spectrum the library
        # builds, so K = A - SHIFT B is positive definite for each of them
        for op in ops:
            K = (tridiagonal(op.stiffness)
                 - SHIFT * tridiagonal(op.mass_matrix)).toarray()
            assert np.linalg.eigvalsh(K)[0] > 0
            assert np.isfinite(lowest_eigenvalue(op)[0])

    @pytest.mark.parametrize("d, gamma, p", [(3, 0.0, 2.0), (4, 0.25, 1.5),
                                             (3, 1.5, 1.49), (3, 1.9, 1.05),
                                             (5, 1.0, 1.3), (3, 0.0, 1.02)])
    def test_every_assembled_operator_factors(self, d, gamma, p):
        self._check_factors([assemble(validate(d, gamma, p), ell, 400)
                             for ell in (0, 1, 2)])

    @pytest.mark.parametrize("d, p", [(3, 2.0), (3, 1.5), (5, 1.2), (4, 1.3),
                                      (5, 1.4)])
    def test_every_hardy_poincare_operator_factors(self, d, p):
        self._check_factors(_hardy_poincare_pencils(d, p, 400))


class TestCertificate:
    """The count behind the certificate: pencil eigenvalues below a shift."""

    @pytest.mark.parametrize("build", [
        lambda: assemble(validate(3, 0.0, 2.0), 1, 2000),
        # the Schur term c^T K^-1 c is about 1e-40 here: unscaled, it took
        # the wrong sign, and a bisection on that count found -0.123
        lambda: assemble(validate(3, 1.99, 1.002), 0, 2000),
        # the constrained lambda sits within 1e-6 of the second
        # unconstrained eigenvalue
        lambda: _hardy_poincare_pencils(3, 1.7, 2000)[0],
    ], ids=["unconstrained", "constrained-tiny-border", "constrained-near-pole"])
    def test_count_brackets_reference(self, build):
        op = build()
        lam, _ = _reference_solve(op)
        gap = CERT_GAP * max(1.0, abs(lam))
        assert _count_below(op, lam - gap) == 0
        assert _count_below(op, lam + gap) >= 1

    @pytest.mark.parametrize("build", [
        *(lambda ell=ell, pt=pt: assemble(validate(*pt), ell, 400)
          for pt in [(3, 0.0, 2.0), (3, 1.5, 1.49)] for ell in (0, 1, 2)),
        *(lambda sector=sector: _hardy_poincare_pencils(3, 2.0, 400)[sector]
          for sector in (0, 1)),
    ], ids=[f"{pt}-ell{ell}" for pt in ["(3,0,2)", "(3,1.5,1.49)"]
            for ell in (0, 1, 2)] + ["hardy-poincare-0", "hardy-poincare-1"])
    def test_count_matches_dense_reference(self, build, monkeypatch):
        # on each side of the three lowest eigenvalues; a positive definite
        # M is answered by its factorization, so dstebz only runs where an
        # eigenvalue lies below sigma or the constraint hides an unconstrained
        # one there
        sturm = _count_calls(monkeypatch, "dstebz")
        op = build()
        lams = _dense_reference(op)
        for k in range(3):
            gap = 1e-6 * max(1.0, abs(lams[k]))
            assert lams[k + 1] - lams[k] > 2.0 * gap
            for sigma in (lams[k] - gap, lams[k] + gap):
                before = sturm[0]
                assert _count_below(op, sigma) == np.sum(lams < sigma)
                if k == 0 and sigma < lams[0] and not op.constraints:
                    assert sturm[0] == before
                if sigma > lams[0]:
                    assert sturm[0] == before + 1


class TestSectorClosedForm:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("d, gamma, p", [(3, 0.05, 2.0), (4, 0.3, 1.5),
                                             (3, 1.2, 1.7), (3, 1.5, 1.49),
                                             (3, 1.9, 1.05), (3, 1.98, 1.005),
                                             (6, 1.9, 1.0175)])
    def test_matches_closed_form(self, d, gamma, p, ell):
        # (3, 1.98, 1.005) and (6, 1.9, 1.0175), d_gamma = 102 and 82, raised
        # SingularMass on the fixed grid [1e-4, 1e4]
        lam = sector_min(validate(d, gamma, p), ell, 2000)
        want = sector_closed_form(d, gamma, p, ell)
        assert lam == pytest.approx(want, rel=REL_TOL, abs=ABS_TOL)


class TestHardyPoincare:
    def test_gap_value(self):
        # hand evaluation of the constant: 2 p (p-1)/(d - p (d-2)) = 4 at (3,2)
        gap, info = hardy_poincare_gap(3, 2.0, n=2000)
        assert gap == pytest.approx(4.0, rel=1e-3)

    def test_minimizer_is_coordinate_like(self):
        gap, info = hardy_poincare_gap(3, 2.0, n=1200)
        assert info["sector"] == 1
        assert info["coordinate_correlation"] > 0.999

    def test_radial_sector_sits_higher(self):
        _, info = hardy_poincare_gap(3, 2.0, n=1200)
        assert info["by_sector"][0] > info["by_sector"][1]

    def test_dropping_constraint_gives_zero(self):
        # the radial Hardy-Poincare operator carries the zero-mean
        # constraint; without it the constants annihilate the form
        op, _ = _hardy_poincare_pencils(3, 2.0, 800)
        assert lowest_eigenvalue(op)[0] > 1.0
        op.constraints = []
        lam, _ = lowest_eigenvalue(op)
        assert abs(lam) < 1e-8

    @pytest.mark.parametrize("d, p, n", [(3, 1.5, 1500), (5, 1.2, 1000),
                                         (4, 1.3, 1000), (5, 1.4, 1000),
                                         (3, 1.02, 2000)])
    def test_second_parameter_point(self, d, p, n):
        # gap 2 p (p-1)/(d - p(d-2)), = 1 at (3, 1.5) by hand; the
        # constrained radial sector sits at the gap times 2 + d(m-1),
        # m = (p+1)/(2p) (Denzler-McCann closed-form spectrum)
        gap, info = hardy_poincare_gap(d, p, n=n)
        want = 2 * p * (p - 1) / (d - p * (d - 2))
        m = (p + 1) / (2 * p)
        assert abs(gap - want) < 1e-6
        assert abs(info["by_sector"][0] - want * (2 + d * (m - 1))) < 1e-3

    @pytest.mark.parametrize("d, p", [(10 / 3, 1.5), (12.0, 1.05),
                                      (102.0, 1.005)])
    def test_real_dimension(self, d, p):
        # the gap and the radial ratio 2 + d(m-1) hold in a real dimension,
        # the flat d_gamma of a weighted problem (102 at (3, 1.98, 1.005))
        gap, info = hardy_poincare_gap(d, p)
        want = 2 * p * (p - 1) / (d - p * (d - 2))
        m = (p + 1) / (2 * p)
        assert gap == pytest.approx(want, rel=1e-6)
        assert info["by_sector"][0] / gap == pytest.approx(2 + d * (m - 1),
                                                           rel=1e-4)

    @pytest.mark.parametrize("d, p", [(2.0, 1.5), (1.5, 1.5), (3.0, 1.0),
                                      (3.0, 3.0), (10 / 3, 2.5)])
    def test_rejects_inadmissible_pair(self, d, p):
        with pytest.raises(ParameterError):
            hardy_poincare_gap(d, p)


class TestGammaSweep:
    def test_starts_at_zero(self):
        curve = gamma_sweep(3, 2.0, [0.0], ell=1, n=2000)
        assert abs(curve[0][1]) < 1e-5

    def test_continuity_under_refinement(self):
        gammas = [0.03, 0.06]
        coarse = gamma_sweep(3, 2.0, gammas, ell=1, n=1000)
        fine = gamma_sweep(3, 2.0, gammas, ell=1, n=2000)
        for (g1, l1), (g2, l2) in zip(coarse, fine):
            assert abs(l1 - l2) < 1e-4

    def test_sign_fixture_small_gamma(self):
        # the translation mode lifts upward for small positive gamma at (3, 2),
        # as the closed form says; n = 2000 meets it within 7.5e-6 here
        curve = gamma_sweep(3, 2.0, np.linspace(0.02, 0.1, 5), ell=1, n=2000)
        for g, lam in curve:
            want = sector_closed_form(3, g, 2.0, 1)
            assert want > 0
            assert lam == pytest.approx(want, rel=REL_TOL, abs=ABS_TOL)

    def test_small_step_continuity(self):
        curve = gamma_sweep(3, 2.0, [0.05, 0.051], ell=1, n=2000)
        want = [sector_closed_form(3, g, 2.0, 1) for g, _ in curve]
        for (_, lam), w in zip(curve, want):
            assert lam == pytest.approx(w, rel=REL_TOL, abs=ABS_TOL)
        step = curve[1][1] - curve[0][1]
        assert abs(step - (want[1] - want[0])) < ABS_TOL


class TestOrthogonalityIntegrals:
    def test_isotropy_matrix_diagonal(self):
        # the angular average of delta_ij/|x|^2 - 2 x_i x_j / |x|^4 against a
        # radial kernel is diagonal with factor (d-2)/d
        from cknlab.selection import SelectionContext, inverse_square_integral, isotropy_matrix
        ctx = SelectionContext(3, 2.0)
        T = isotropy_matrix(ctx)
        inv2 = inverse_square_integral(ctx)
        off = T - np.diag(np.diag(T))
        assert np.max(np.abs(off)) < 1e-10
        assert T[0, 0] == pytest.approx((3 - 2) / 3 * inv2, rel=1e-8)
