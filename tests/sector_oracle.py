"""Closed form of the lowest sector eigenvalue for ell >= 1, for the tests,
and the sparse matrix of a sector operator's bands.

Under s = r^alpha, alpha = (2-gamma)/2, sector ell at weight gamma is sector
ell' = ell/alpha of the unweighted problem in the real dimension
n = 2 (d-gamma)/(2-gamma).  With q = 1/(p-1) the ansatz
s^ell' (b + s^2)^(-sigma) solves the sector equation when sigma is the
positive root of

    4 sigma^2 + (4 - 2n - 4 ell') sigma - p a = 0,    a = 2q (2q + 2 - n),

and the eigenvalue is sigma (sigma+1)/((2p-1) q (q+1)) - 1.  At gamma = 0,
ell = 1 the root is sigma = q + 1 and the eigenvalue 0: the translation
mode.  Everything here is computed from (d, gamma, p, ell) alone.
"""

import math

import scipy.sparse as sp

# sector_min at its default n = 2000 meets the closed form within 5.5e-5
# relative where lambda >= 0.08 (worst at (4, 0.3, 1.5), ell = 1, and
# 5.3e-5 at (6, 1.9, 1.0175)), and within 5.6e-6 absolute near lambda = 0
# at the points tested here ((3, 0.05, 2), ell = 1, and gamma = 0, p = 2).
# The translation mode at gamma = 0 grows towards p_max: 1.1e-5 at
# (3, 0, 2.5) and 2.0e-5 at (3, 0, 2.9), which ABS_TOL barely covers
REL_TOL = 3e-4
ABS_TOL = 2e-5


def sector_closed_form(d, gamma, p, ell):
    q = 1.0 / (p - 1.0)
    n = 2.0 * (d - gamma) / (2.0 - gamma)
    ell_flat = ell / ((2.0 - gamma) / 2.0)
    a = 2.0 * q * (2.0 * q + 2.0 - n)
    lin = 4.0 - 2.0 * n - 4.0 * ell_flat
    sigma = (-lin + math.sqrt(lin * lin + 16.0 * p * a)) / 8.0
    return sigma * (sigma + 1.0) / ((2.0 * p - 1.0) * q * (q + 1.0)) - 1.0


def tridiagonal(bands):
    """The symmetric tridiagonal CSC matrix of (diag, off) bands, such as a
    SectorOperator's stiffness and mass_matrix."""
    diag, off = bands
    return sp.diags([off, diag, off], [-1, 0, 1], format="csc")
