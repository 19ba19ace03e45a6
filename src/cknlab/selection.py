"""Selection-principle integrals singling out the centered optimizer.

Everything here lives at gamma = 0 around the explicit profile w0.  The
central object is K(r) = w0^(2p)/(2p) - w0^(p+1)/(p+1), which is positive up
to a unique crossing radius and negative beyond, yet integrates to a positive
multiple of the mass.  Convolving K against log |x + y| produces a radial
function of |y| whose strict minimum at y = 0 is what selects the centered
profile; its derivative reduces to a one-dimensional integral against the
angular kernel ell(s).  Both theta integrals of the kernel are Gauss
hypergeometric functions and are evaluated in closed form, vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import betaln, hyp2f1

from .params import ProblemParams, validate
from .profiles import AnalyticProfile, barenblatt_mass, w_gamma_star
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
    crossing_radius: float = field(init=False)

    def __post_init__(self):
        self.params = validate(self.d, 0.0, self.p)
        self.w0 = w_gamma_star(self.params)
        self.mass = barenblatt_mass(self.params)
        self.crossing_radius = crossing_radius(self)


def K_profile(ctx: SelectionContext):
    """Pointwise kernel K(r) = w0^(2p)/(2p) - w0^(p+1)/(p+1)."""
    p, w0 = ctx.p, ctx.w0

    def K(r):
        v = w0(np.asarray(r, dtype=float))
        return v ** (2 * p) / (2 * p) - v ** (p + 1) / (p + 1)

    return K


def crossing_radius(ctx: SelectionContext) -> float:
    """Unique sign change R of K, in closed form.

    K >= 0 exactly where w0^(p-1) = a/(b + r^2) >= 2p/(p+1), so
    R^2 = a (p+1)/(2p) - b = eta (d-1)/(p (p-1)), eta = d - p (d-2).
    """
    d, p = ctx.d, ctx.p
    return math.sqrt((d - p * (d - 2)) * (d - 1) / (p * (p - 1.0)))


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


def half_sphere_constant(d: int) -> float:
    """int_0^(pi/2) (sin theta)^(d-2) dtheta = B((d-1)/2, 1/2)/2."""
    return 0.5 * math.exp(betaln((d - 1) / 2.0, 0.5))


# Below this |1 - s| the d = 3 kernel takes the log form of m_3: there G
# grows like log(1 - v) = 2 log|u|, so the rounding of v costs about eps/|u|
# in m_3 (3e-12 at |1 - s| = 1e-4, 2e-14 at 1e-2).
_M3_LOG_WINDOW = 1e-2


def _m3_log(s: np.ndarray) -> np.ndarray:
    """m_3 at s > 0, with arctanh(2 sqrt(s)/(1+s)) written as
    log1p(2 min(sqrt s, 1) (1 + sqrt s)/|1 - s|), finite however close s is to 1."""
    out = np.zeros_like(s)
    off = s != 1.0
    x = s[off]
    rx = np.sqrt(x)
    out[off] = (1.0 - x) / (2.0 * rx) * np.log1p(
        2.0 * np.minimum(rx, 1.0) * (1.0 + rx) / np.abs(1.0 - x))
    return out


def _angular(s: np.ndarray, d: int):
    """(ell, m_d) at an array of s >= 0, infinity included.

    With u = (1-s)/(1+s) and v = 4s/(1+s)^2 the denominator of both theta
    integrals is (1+s)^2 (1 - v cos^2 theta); expanding in v gives
    m_d = H u 2F1(1, 1/2; d/2; v) = H u (1 + v G/d) with H the half-sphere
    constant and G = 2F1(1, 3/2; d/2 + 1; v) (DLMF 15.4-15.5), and
    ell = (H + m_d)/2 = (H/2)(2/(1+s) + u v G/d), which does not cancel as
    s -> inf.
    """
    H = half_sphere_constant(d)
    ell_s = np.zeros_like(s)
    m = np.full_like(s, -H)
    near = np.abs(1.0 - s) < _M3_LOG_WINDOW if d == 3 else np.zeros(s.shape, bool)
    m[near] = _m3_log(s[near])
    ell_s[near] = 0.5 * (1.0 + m[near])
    main = np.isfinite(s) & ~near
    x = s[main]
    u = (1.0 - x) / (1.0 + x)
    # 4 x/(1+x)^2 without forming 4x, which overflows near the largest float
    v = np.minimum(4.0 * (x / (1.0 + x)) / (1.0 + x), 1.0)
    vG = v * hyp2f1(1.0, 1.5, d / 2.0 + 1.0, v) / d
    ell_s[main] = 0.5 * H * (2.0 / (1.0 + x) + u * vG)
    m[main] = H * u * (1.0 + vG)
    return ell_s, m


def ell(s, d: int):
    """Angular kernel of the log-convolution derivative,
    ell(s) = int_0^(pi/2) ((1-s) + 2s sin^2)/((1-s)^2 + 4s sin^2) sin^(d-2) dtheta.

    Continuous, positive and strictly decreasing in s, with ell(0) equal to
    the half-sphere constant and ell -> 0 at infinity.  Evaluated in closed
    form (see ``_angular``) at a scalar or an array of s >= 0; a scalar gives
    a float.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"s must be nonnegative, got {s}")
    val = _angular(np.atleast_1d(arr), d)[0]
    return float(val[0]) if arr.ndim == 0 else val


def m_d(s, d: int):
    """Antisymmetric part of the angular kernel, m_d(s) = -m_d(1/s) = 2 ell(s) - H,
    at a scalar or an array of s > 0."""
    arr = np.asarray(s, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"s must be positive, got {s}")
    val = _angular(np.atleast_1d(arr), d)[1]
    return float(val[0]) if arr.ndim == 0 else val


def m3_closed(s: float) -> float:
    """Closed form of m_3: (1-s)/(2 sqrt(s)) arctanh(2 sqrt(s)/(1+s)), in the
    log form of ``_m3_log``."""
    s = float(s)
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    return float(_m3_log(np.array([s]))[0])


def G_prime(t: float, ctx: SelectionContext) -> float:
    """Derivative of the log-convolution profile G at t > 0.

    G'(t) = |S^(d-2)|/t * int_0^inf K(r) ell(r^2/t) r^(d-1) dr, positive for
    every t because ell decreases and K has its single sign change.  It is
    integrated in x = r/sqrt(t),
    G'(t) = |S^(d-2)| t^((d-2)/2) int_0^inf K(sqrt(t) x) ell(x^2) x^(d-1) dx,
    so the kink of ell at s = 1 falls on the quadrature's split point x = 1.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    d = ctx.d
    K = K_profile(ctx)
    rt = math.sqrt(t)
    val = integrate(lambda x: K(rt * x) * ell(x * x, d), d, 0.0)
    return sphere_area(d - 1) * t ** ((d - 2) / 2.0) * val


def G_prime_lower_bound(t: float, ctx: SelectionContext) -> float:
    """Analytic lower bound of G'(t) from the sign structure of K."""
    d = ctx.d
    R = ctx.crossing_radius
    K = K_profile(ctx)
    total = integrate(K, d, 0.0)
    return sphere_area(d - 1) / t * ell(R * R / t, d) * total


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
