"""Weighted radial integrals on the half line.

Everything here evaluates integrals of the form

    I = int_0^inf f(r) r^(d - 1 - gamma) dr

to high relative accuracy despite two awkward features: the fractional power
weight at r = 0 and slow algebraic decay at infinity.  The domain is split at
r = 1; the core piece is integrated as is, the tail piece is mapped by
u = 1/r onto (0, 1] where algebraic decay becomes an endpoint power
singularity.  Both pieces use tanh-sinh (double exponential) nodes, which
converge at spectral rate for integrands with integrable endpoint
singularities, so no truncation radius ever enters a norm computation.

The power-weight factors (r^(d-1-gamma) on the core, u^(gamma-d-1) from the
substitution on the tail) are folded into the node weights in log space; the
caller's f is evaluated in linear space and may underflow to zero harmlessly.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.special import betaln

from .errors import DivergentNorm, NaNEncountered, NonConvergent

__all__ = ["integrate", "sphere_area", "log_beta_integral"]


def sphere_area(d: float) -> float:
    """Surface area of the unit sphere in R^d, 2 pi^(d/2) / Gamma(d/2), real d.

    Gamma(d/2) leaves the float range past d = 343, where the flat dimension
    d_gamma of gamma near 2 lies; there the area is taken in log form.  The
    log form alone would move 4 pi at d = 3 by 3 ulps.
    """
    if d < 2:
        raise ValueError(f"sphere_area requires d >= 2, got {d}")
    try:
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError:
        return math.exp(math.log(2.0) + 0.5 * d * math.log(math.pi)
                        - math.lgamma(0.5 * d))


def _tanhsinh_nodes(h: float, kmax: int):
    """Symmetric tanh-sinh abscissae on (0, 1) at step h.

    Returns (x_lo, x_hi, log_x_lo, log_x_hi, log_w) where x_lo[k] -> 0 and
    x_hi[k] -> 1 are the node pair at t = +-k h, computed so that the distance
    to the nearer endpoint never loses precision, and log_w is the log of the
    plain map derivative dx/dt times h.
    """
    t = h * np.arange(0, kmax + 1)
    a = 0.5 * math.pi * np.sinh(t)
    # x_lo = 1/(1 + e^{2a}) -> 0,  x_hi = 1/(1 + e^{-2a}) -> 1
    log_x_lo = -(2.0 * a + np.log1p(np.exp(-2.0 * a)))
    x_lo = np.exp(log_x_lo)
    x_hi = 1.0 / (1.0 + np.exp(-2.0 * a))
    log_x_hi = -np.log1p(np.exp(-2.0 * a))
    # dx/dt = (pi/2) cosh t * sech^2(a) / 2, with log sech a stable for large a
    log_sech = math.log(2.0) - a - np.log1p(np.exp(-2.0 * a))
    log_w = math.log(h) + np.log(0.25 * math.pi * np.cosh(t)) + 2.0 * log_sech
    return x_lo, x_hi, log_x_lo, log_x_hi, log_w


# tanh-sinh parameters: level-0 step, and the truncation of the parameter t;
# 6.0 keeps every node representable while covering integrable endpoint
# singularities.  The half line is split at r = 1: the identity on [0, 1] and
# u = 1/r on [1, inf).
_BASE_H = 0.25
_T_MAX = 6.0


@functools.lru_cache(maxsize=None)
def _nodes(level: int):
    """Nodes new at ``level`` (level 0 holds the full base set), read-only."""
    h = _BASE_H / 2**level
    kmax = int(_T_MAX / h)
    # level 0 keeps every node, finer levels only the odd multiples of h
    sel = np.arange(0, kmax + 1) if level == 0 else np.arange(1, kmax + 1, 2)
    out = tuple(v[sel] for v in _tanhsinh_nodes(h, kmax))
    for v in out:
        v.flags.writeable = False
    return out


def _piece_sum(f: Callable, level: int, sigma: float, tail: bool) -> float:
    """Sum of new-node contributions of one piece at one refinement level.

    The piece is int_0^1 g(x) x^sigma dx with g(x) = f(x) on the core piece
    and g(u) = f(1/u) on the tail piece.
    """
    x_lo, x_hi, log_x_lo, log_x_hi, log_w = _nodes(level)
    total = 0.0
    for x, log_x, skip_first in ((x_lo, log_x_lo, False), (x_hi, log_x_hi, level == 0)):
        xs = x[1:] if skip_first else x  # center node t=0 counted once
        lxs = log_x[1:] if skip_first else log_x
        lws = log_w[1:] if skip_first else log_w
        r = 1.0 / xs if tail else xs
        with np.errstate(over="ignore", under="ignore", invalid="ignore",
                         divide="ignore"):
            g = np.asarray(f(r), dtype=float)
            logW = lws + sigma * lxs
            W = np.exp(logW)
            terms = g * W
        # weight underflow with finite g, or exact zero g: no contribution
        terms = np.where((W == 0.0) | (g == 0.0), 0.0, terms)
        if not np.all(np.isfinite(terms)):
            raise NaNEncountered(
                "integrand produced NaN/inf that the weights could not absorb"
            )
        total += float(np.sum(terms))
    return total


REL_TOL = 1e-11
MAX_LEVEL = 7


def integrate(f: Callable, d: int, gamma: float) -> float:
    """Evaluate int_0^inf f(r) r^(d-1-gamma) dr.

    f must accept a numpy array of radii and evaluate without raising on the
    full node range (underflow to 0 at huge arguments is fine).  The caller
    multiplies by ``sphere_area(d)`` for full-space integrals.  Refinement
    halves the step until two successive levels agree to ``REL_TOL``;
    NonConvergent is raised past ``MAX_LEVEL``.
    """
    if gamma >= d:
        raise ValueError(f"weight exponent requires gamma < d, got gamma={gamma}, d={d}")
    sigma_core = d - 1.0 - gamma       # r^(d-1-gamma) on [0,1]
    sigma_tail = gamma - d - 1.0       # u^(gamma-d-1) after u = 1/r on [1,inf)

    vals = []
    s_core = s_tail = 0.0
    err = math.inf
    for level in range(MAX_LEVEL + 1):
        new_core = _piece_sum(f, level, sigma_core, tail=False)
        new_tail = _piece_sum(f, level, sigma_tail, tail=True)
        if level == 0:
            s_core, s_tail = new_core, new_tail
        else:
            s_core = s_core / 2.0 + new_core
            s_tail = s_tail / 2.0 + new_tail
        total = s_core + s_tail
        vals.append(total)
        if level >= 2:
            err = abs(vals[-1] - vals[-2])
            scale = max(abs(vals[-1]), 1e-300)
            if err <= REL_TOL * scale:
                return total
    raise NonConvergent(
        f"tanh-sinh refinement exhausted at level {MAX_LEVEL}; "
        f"last error estimate {err:.3e} relative to {vals[-1]:.6e}"
    )


def log_beta_integral(mu: float, b: float, c: float, q: float) -> float:
    """Closed form of log int_0^inf r^(mu-1) (1 + r^c/b)^(-q) dr.

    Substituting x = r^c/b turns the integral into a Beta function, so its
    log is (mu/c) log b + log B(mu/c, q - mu/c) - log c, valid for
    0 < mu/c < q; elsewhere the integral diverges and DivergentNorm is
    raised.  This is the oracle for every moment of a Barenblatt-type
    profile; the log stays in the float range where the integral does not.
    """
    nu = mu / c
    if not (0.0 < nu < q):
        raise DivergentNorm(f"the Beta integral diverges unless 0 < mu/c < q, "
                            f"got mu/c={nu}, q={q}")
    return nu * math.log(b) + betaln(nu, q - nu) - math.log(c)
