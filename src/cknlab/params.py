"""Parameter validation and derived exponents.

The whole laboratory works with a weighted interpolation inequality on R^d
whose weight is |x|^(-gamma) and whose interpolation exponent is p.  Every
other module receives a validated ``ProblemParams`` and reads exponents off
``DerivedExponents``; no formula is duplicated elsewhere.

Admissible range:

    d >= 3,   0 <= gamma < 2,   1 < p < (d - gamma)/(d - 2).

gamma = 0 is admitted on purpose: the unweighted case is the reference point
of all perturbative tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, GammaOutOfRange, ParameterError, POutOfRange
from .quadrature import sphere_area

__all__ = [
    "ProblemParams",
    "DerivedExponents",
    "validate",
    "validate_m",
    "check_radial_bounds",
    "derive",
    "to_flat_variables",
    "radii_from_flat",
    "mass_from_multiplier",
    "kappa",
    "kappa_numeric",
    "scaling_exponents",
]


@dataclass(frozen=True)
class ProblemParams:
    """Validated triple (d, gamma, p).

    Construct through :func:`validate`; the constructor itself does not check
    anything so that tests can build degenerate instances on purpose.
    """

    d: int
    gamma: float
    p: float

    @property
    def p_max(self) -> float:
        """Upper endpoint of the admissible p-interval, (d - gamma)/(d - 2)."""
        return (self.d - self.gamma) / (self.d - 2)


def validate(d: int, gamma: float, p: float) -> ProblemParams:
    """Validate (d, gamma, p) and return a ``ProblemParams``.

    Raises a structured error naming the violated bound.  Bounds are strict:
    callers who want boundary studies must pass interior values.
    """
    d = _validate_d_gamma(d, gamma)
    p_max = (d - gamma) / (d - 2)
    if not (1.0 < p < p_max):
        raise POutOfRange(
            f"p must lie in the open interval (1, {p_max}) "
            f"= (1, (d - gamma)/(d - 2)) for d={d}, gamma={gamma}; got {p}"
        )
    return ProblemParams(d=d, gamma=gamma, p=float(p))


def _validate_d_gamma(d: int, gamma: float) -> int:
    if not float(d).is_integer() or d < 3:
        raise DimensionTooSmall(f"d must be an integer >= 3, got {d}")
    if not (0.0 <= gamma < 2.0):
        raise GammaOutOfRange(f"gamma must lie in [0, 2), got {gamma}")
    return int(d)


def validate_m(d: int, gamma: float, m: float) -> ProblemParams:
    """Validate a flow exponent m and return (d, gamma, p = 1/(2m - 1)).

    p lies in (1, (d - gamma)/(d - 2)) exactly when m lies in
    ((2d - 2 - gamma)/(2(d - gamma)), 1), so m is checked on that interval.
    """
    d = _validate_d_gamma(d, gamma)
    m_min = (2.0 * d - 2.0 - gamma) / (2.0 * (d - gamma))
    if not (m_min < m < 1.0):
        raise ParameterError(
            f"diffusion exponent m must lie in the open interval ({m_min}, 1) "
            f"= ((2d - 2 - gamma)/(2(d - gamma)), 1) for d={d}, "
            f"gamma={gamma}; got {m}")
    return validate(d, gamma, 1.0 / (2.0 * m - 1.0))


def check_radial_bounds(r_min: float, r_max: float) -> None:
    """Bounds of a geometric radial grid: 0 < r_min < r_max < inf."""
    if not (0.0 < r_min < r_max < math.inf):
        raise ParameterError(f"radial bounds must satisfy 0 < r_min < r_max < inf, "
                             f"got r_min={r_min}, r_max={r_max}")


@dataclass(frozen=True)
class DerivedExponents:
    """Every exponent and constant derived from a validated triple.

    two_star_gamma   critical exponent 2 (d - gamma)/(d - 2)
    vartheta         gradient interpolation exponent in the inequality
    theta_gamma      mass exponent of the non-scale-invariant energy form
    eta              d - gamma - p (d - 2) > 0
    a_gamma, b_gamma coefficients of the explicit Barenblatt optimizer
    d_gamma          effective radial dimension 2 (d - gamma)/(2 - gamma)
    m_diff           fast-diffusion exponent with p = 1/(2 m - 1)
    m_one            lower endpoint of the admissible diffusion range
    m_c              extinction threshold (d - 2)/(d - gamma)
    sphere_area      |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)
    """

    two_star_gamma: float
    vartheta: float
    theta_gamma: float
    eta: float
    a_gamma: float
    b_gamma: float
    d_gamma: float
    m_diff: float
    m_one: float
    m_c: float
    sphere_area: float


def derive(params: ProblemParams) -> DerivedExponents:
    """Populate all derived exponents for a validated parameter triple."""
    d, g, p = params.d, params.gamma, params.p
    two_star = 2.0 * (d - g) / (d - 2)
    vartheta = (d - g) * (p - 1) / (p * (d + 2 - 2 * g - p * (d - 2)))
    theta = (d + 2 - 2 * g - p * (d - 2)) / (d - g - p * (d + g - 4))
    eta = d - g - p * (d - 2)
    a_g = (2 - g) * eta / (p - 1) ** 2
    b_g = eta * eta / (p * (p - 1) ** 2)
    d_g = 2.0 * (d - g) / (2 - g)
    m_diff = (p + 1) / (2 * p)
    m_one = (2 * d - g - 2) / (2 * (d - g))
    m_c = (d - 2) / (d - g)
    return DerivedExponents(
        two_star_gamma=two_star,
        vartheta=vartheta,
        theta_gamma=theta,
        eta=eta,
        a_gamma=a_g,
        b_gamma=b_g,
        d_gamma=d_g,
        m_diff=m_diff,
        m_one=m_one,
        m_c=m_c,
        sphere_area=sphere_area(d),
    )


def to_flat_variables(params: ProblemParams) -> tuple[float, float]:
    """Effective dimension and log radius scale of the flattening map.

    Returns (d_gamma, log_c_map) with r = c_map * s^(2/(2-gamma)), that is
    log r = log_c_map + (2/(2-gamma)) log s.  The scale itself,
    c_map = ((2-gamma)/2)^(2/(2-gamma)), underflows to 0 for gamma >= 1.99,
    so its log is returned.
    """
    g = params.gamma
    d_gamma = derive(params).d_gamma
    log_c_map = 2.0 / (2.0 - g) * math.log((2.0 - g) / 2.0)
    return d_gamma, log_c_map


def radii_from_flat(params: ProblemParams, s: np.ndarray,
                    dv_ds: np.ndarray | None = None):
    """(keep, r, dw/dr) of the flat points s and their slopes dv/ds.

    log r = log_c_map + expo log s, expo = 2/(2-gamma), in log form since
    r = c_map s^expo leaves the float range as gamma nears 2; dw/dr is
    dv/ds s/(expo r), None without dv_ds.  keep masks the points whose
    radius is a normal float and whose slope is finite.
    """
    expo = 2.0 / (2.0 - params.gamma)
    with np.errstate(divide="ignore", over="ignore"):
        r = np.exp(to_flat_variables(params)[1] + expo * np.log(s))
        dw_dr = None if dv_ds is None else dv_ds * s / (expo * r)
    keep = (r >= np.finfo(float).tiny) & np.isfinite(r)
    if dw_dr is not None:
        keep &= np.isfinite(dw_dr)
    return keep, r, dw_dr


def mass_from_multiplier(J: float, p: float, theta_gamma: float) -> float:
    """Mass for which the Euler-Lagrange multiplier equals one.

    M = (2 p theta_gamma J)^(1/(1 - theta_gamma)); strictly increasing in J.
    """
    if J <= 0:
        raise ValueError(f"multiplier constant J must be positive, got {J}")
    if not (0.0 < theta_gamma < 1.0):
        raise ValueError(f"theta_gamma must lie in (0, 1), got {theta_gamma}")
    return (2.0 * p * theta_gamma * J) ** (1.0 / (1.0 - theta_gamma))


def scaling_exponents(params: ProblemParams) -> tuple[float, float]:
    """Exponents (A, B) of the two energy terms under the mass-preserving dilation.

    Rescaling w to lambda^((d - gamma)/(2 p)) w(lambda x) leaves the weighted
    L^(2p) norm unchanged while the gradient term picks up lambda^A and the
    weighted L^(p+1) term lambda^(-B), with

        A = (d - gamma)/p - (d - 2),    B = (p - 1) (d - gamma) / (2 p).
    """
    d, g, p = params.d, params.gamma, params.p
    A = (d - g) / p - (d - 2)
    B = (p - 1) * (d - g) / (2 * p)
    return A, B


def kappa(params: ProblemParams) -> float:
    """Closed form of the dilation-optimized energy prefactor.

    Minimizing  0.5 lambda^A X + (p+1)^(-1) lambda^(-B) Y  over lambda > 0
    gives  kappa * X^(B/(A+B)) Y^(A/(A+B))  with

        kappa = 0.5 t^(A/(A+B)) + (p+1)^(-1) t^(-B/(A+B)),
        t = 2 B / ((p + 1) A).

    This closed form is a reconstruction (the constant is never written out in
    the literature this lab follows); :func:`kappa_numeric` keeps an
    independent 1-D minimization as a permanent cross-check.
    """
    p = params.p
    A, B = scaling_exponents(params)
    t = 2.0 * B / ((p + 1) * A)
    e = A + B
    return 0.5 * t ** (A / e) + t ** (-B / e) / (p + 1)


def kappa_numeric(params: ProblemParams, x: float = 1.0, y: float = 1.0) -> float:
    """Cross-check of :func:`kappa` by direct 1-D minimization.

    Returns min over lambda of 0.5 lambda^A x + (p+1)^(-1) lambda^(-B) y,
    divided by x^(B/(A+B)) y^(A/(A+B)).
    """
    from scipy.optimize import minimize_scalar

    p = params.p
    A, B = scaling_exponents(params)

    def g(log_lam: float) -> float:
        lam = math.exp(log_lam)
        return 0.5 * lam**A * x + lam ** (-B) * y / (p + 1)

    # locate a bracketing triple by coarse scan, then polish with Brent
    grid = [(-30.0 + 0.25 * k) for k in range(241)]
    vals = [g(t) for t in grid]
    k = min(range(1, len(grid) - 1), key=lambda i: vals[i])
    res = minimize_scalar(g, bracket=(grid[k - 1], grid[k], grid[k + 1]),
                          method="brent", options={"xtol": 1e-14})
    e = A + B
    return res.fun / (x ** (B / e) * y ** (A / e))
