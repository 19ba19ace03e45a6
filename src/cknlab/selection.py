"""Selection-principle integrals singling out the centered optimizer.

Everything here lives at gamma = 0 around the explicit profile w0.  The
central object is K(r) = w0^(2p)/(2p) - w0^(p+1)/(p+1), which is positive up
to a unique crossing radius and negative beyond, yet integrates to a positive
multiple of the mass.  Convolving K against log |x + y| produces a radial
function of |y| whose strict minimum at y = 0 is what selects the centered
profile; its derivative reduces to a one-dimensional integral against the
angular kernel ell(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as _quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .params import ProblemParams, validate
from .profiles import AnalyticProfile, w_gamma_star
from .quadrature import integrate, sphere_area

__all__ = [
    "SelectionContext",
    "K_profile",
    "crossing_radius",
    "total_K_integral",
    "ell",
    "m_d",
    "m3_closed",
    "G_prime",
    "F_selection",
    "inverse_square_integral",
    "isotropy_matrix",
]


@dataclass
class SelectionContext:
    """Dimension, exponent and derived objects of the selection analysis."""

    d: int
    p: float
    params: ProblemParams = field(init=False)
    w0: AnalyticProfile = field(init=False)
    mass: float = field(init=False)
    _R: float | None = field(default=None, init=False, repr=False)
    _ell_spline: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.params = validate(self.d, 0.0, self.p)
        self.w0 = w_gamma_star(self.params)
        from .profiles import barenblatt_mass
        self.mass = barenblatt_mass(self.params)

    @property
    def crossing_radius(self) -> float:
        if self._R is None:
            self._R = crossing_radius(self)
        return self._R


def K_profile(ctx: SelectionContext):
    """Pointwise kernel K(r) = w0^(2p)/(2p) - w0^(p+1)/(p+1)."""
    p, w0 = ctx.p, ctx.w0

    def K(r):
        v = w0(np.asarray(r, dtype=float))
        return v ** (2 * p) / (2 * p) - v ** (p + 1) / (p + 1)

    return K


def crossing_radius(ctx: SelectionContext) -> float:
    """Unique sign change of K, located by bisection.

    K >= 0 exactly where w0^(p-1) >= 2p/(p+1), and w0 is strictly decreasing,
    so a single root exists; bisection starts from a bracket found by scanning.
    """
    K = K_profile(ctx)
    lo, hi = 1e-8, 1.0
    while K(hi) > 0:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RuntimeError("no sign change of K found")
    return float(brentq(K, lo, hi, xtol=1e-12, rtol=4.0 * np.finfo(float).eps))


def total_K_integral(ctx: SelectionContext):
    """Full-space integral of K, by quadrature and in closed form.

    Returns (quadrature_value, closed_form) where the closed form is
    (p-1)(d-2) M / (2p (d+2-p(d-2))) with M the weighted L^(2p) mass of w0.
    """
    d, p = ctx.d, ctx.p
    K = K_profile(ctx)
    val = sphere_area(d) * integrate(K, d, 0.0)
    closed = (p - 1.0) * (d - 2.0) * ctx.mass / (2.0 * p * (d + 2.0 - p * (d - 2.0)))
    return val, closed


def _angular_integrand(theta, s, d):
    sin_t = np.sin(theta)
    sin_sq = sin_t * sin_t
    num = (1.0 - s) + 2.0 * s * sin_sq
    den = (1.0 - s) ** 2 + 4.0 * s * sin_sq
    return num / den * sin_t ** (d - 2)


def ell(s: float, d: int) -> float:
    """Angular kernel of the log-convolution derivative.

    Continuous, positive and strictly decreasing in s, with ell(0) equal to
    the half-sphere constant and ell -> 0 at infinity.  The integrand has a
    near-singular point at (theta, s) = (0, 1); the numerator and denominator
    are evaluated in cancellation-free form and the quadrature is split at
    theta = |1 - s| where that matters.
    """
    s = float(s)
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    pts = None
    gap = abs(1.0 - s)
    if 0.0 < gap < 1e-3:
        pts = [gap]
    val, _ = _quad(_angular_integrand, 0.0, math.pi / 2.0, args=(s, d),
                   points=pts, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


def m_d(s: float, d: int) -> float:
    """Antisymmetric part of the angular kernel, m_d(s) = -m_d(1/s)."""
    s = float(s)
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")

    def integrand(theta):
        sin_sq = math.sin(theta) ** 2
        den = (1.0 - s) ** 2 + 4.0 * s * sin_sq
        return (1.0 - s * s) / den * math.sin(theta) ** (d - 2)

    pts = None
    gap = abs(1.0 - s)
    if 0.0 < gap < 1e-3:
        pts = [gap]
    val, _ = _quad(integrand, 0.0, math.pi / 2.0, points=pts,
                   epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


def m3_closed(s: float) -> float:
    """Closed form of m_3: (1-s)/(2 sqrt(s)) arctanh(2 sqrt(s)/(1+s))."""
    s = float(s)
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    if s == 1.0:
        return 0.0
    rs = math.sqrt(s)
    return (1.0 - s) / (2.0 * rs) * math.atanh(2.0 * rs / (1.0 + s))


def half_sphere_constant(d: int) -> float:
    """int_0^(pi/2) (sin theta)^(d-2) dtheta."""
    val, _ = _quad(lambda t: math.sin(t) ** (d - 2), 0.0, math.pi / 2.0,
                   epsabs=1e-14, epsrel=1e-13)
    return val


def _ell_fast(ctx: SelectionContext):
    """Vectorized spline of ell over log s with asymptotic tails."""
    if ctx._ell_spline is None:
        d = ctx.d
        s_lo, s_hi = 1e-8, 1e8
        xs = np.linspace(math.log(s_lo), math.log(s_hi), 1400)
        ys = np.array([ell(math.exp(x), d) for x in xs])
        spline = CubicSpline(xs, ys)
        ell0 = ell(0.0, d)
        c_tail = ys[-1] * s_hi  # ell ~ c/s at infinity

        def fast(s):
            s = np.asarray(s, dtype=float)
            out = np.empty_like(s)
            lo = s <= s_lo
            hi = s >= s_hi
            mid = ~(lo | hi)
            out[lo] = ell0
            out[hi] = c_tail / s[hi]
            if mid.any():
                out[mid] = spline(np.log(s[mid]))
            return out

        ctx._ell_spline = fast
    return ctx._ell_spline


def G_prime(t: float, ctx: SelectionContext) -> float:
    """Derivative of the log-convolution profile G at t > 0.

    G'(t) = |S^(d-2)|/t * int_0^inf K(r) ell(r^2/t) r^(d-1) dr, positive for
    every t because ell decreases and K has its single sign change.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    d = ctx.d
    K = K_profile(ctx)
    ell_f = _ell_fast(ctx)
    area_sub = sphere_area(d - 1)
    # the spline kernel is only piecewise smooth, so the tolerance matches
    # its interpolation error
    val = integrate(lambda r: K(r) * ell_f(r * r / t), d, 0.0,
                    rel_tol=1e-6, max_level=8)
    return area_sub / t * val


def G_prime_lower_bound(t: float, ctx: SelectionContext) -> float:
    """Analytic lower bound of G'(t) from the sign structure of K."""
    d = ctx.d
    R = ctx.crossing_radius
    K = K_profile(ctx)
    ell_f = _ell_fast(ctx)
    total = integrate(K, d, 0.0)
    return sphere_area(d - 1) / t * float(ell_f(np.array([R * R / t]))[0]) * total


def F_selection(y_mag: float, ctx: SelectionContext) -> float:
    """Log-convolution of K evaluated at translation size |y|.

    Radial symmetry reduces the translation dependence to G(|y|^2); the value
    is G(0) plus the integral of G' from 0 to |y|^2.  The strict minimum sits
    at y = 0.
    """
    if y_mag < 0:
        raise ValueError("translation magnitude must be nonnegative")
    d = ctx.d
    K = K_profile(ctx)
    G0 = sphere_area(d) * integrate(lambda r: K(r) * np.log(r), d, 0.0)
    if y_mag == 0.0:
        return G0
    t = y_mag * y_mag
    val, _ = _quad(lambda tau: G_prime(tau, ctx), 0.0, t,
                   epsabs=1e-9, epsrel=1e-7, limit=200)
    return G0 + val


def inverse_square_integral(ctx: SelectionContext) -> float:
    """Positive integral of K against |x|^(-2)."""
    d = ctx.d
    K = K_profile(ctx)
    return sphere_area(d) * integrate(K, d, 2.0)


def isotropy_matrix(ctx: SelectionContext) -> np.ndarray:
    """Discrete matrix of int (delta_ij/|x|^2 - 2 x_i x_j/|x|^4) K dx.

    The angular factor is integrated by the antipodal cross-polytope cubature
    (exact for quadratics), the radial factor by the weighted quadrature; for
    a radial kernel the result is (d-2)/d times the inverse-square integral
    on the diagonal and exactly zero off it.
    """
    d = ctx.d
    K = K_profile(ctx)
    radial = integrate(K, d, 2.0)
    area = sphere_area(d)
    points = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        points.extend([e, -e])
    wq = area / (2.0 * d)
    T = np.zeros((d, d))
    for xi in points:
        T += wq * (np.eye(d) - 2.0 * np.outer(xi, xi))
    return T * radial
