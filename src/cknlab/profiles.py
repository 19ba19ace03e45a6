"""Barenblatt-type profiles, weighted norms, energies and optimality residuals.

``AnalyticProfile`` wraps a closed-form radial function
exp(log_peak) (1 + r^c/b)^(-k) together with its exact derivatives and exact
Beta-integral moments, all taken in log form: near p = 1 the optimizer's
amplitude a^(1/(p-1)) leaves the float range where its peak does not.  The
norms, quotients, energies and optimality residuals take such a profile and
read its exact moments; the quotient is formed from their logs, so it stays
finite where the moments leave the float range.  ``RadialProfile`` is the
sampled export of any profile, a graded grid with values and optional
derivatives, read and written as JSON or CSV; the norm functions reject it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
import numpy as np
from scipy.special import betaincinv, xlogy

from .errors import AmplitudeOverflow, ParameterError
from .params import ProblemParams, check_radial_bounds, derive
from .quadrature import log_beta_integral, sphere_area

__all__ = [
    "RadialProfile",
    "AnalyticProfile",
    "tail_bounds",
    "default_grid",
    "w_star",
    "w_gamma_star",
    "barenblatt_mass",
    "weighted_norm",
    "gradient_norm",
    "quotient",
    "quotient_from_logs",
    "energy",
    "el_residual",
]


def default_grid(r_min: float = 1e-4, r_max: float = 1e4,
                 points_per_decade: int = 64) -> np.ndarray:
    """Geometric grid resolving both the origin weight and the algebraic tail."""
    check_radial_bounds(r_min, r_max)
    if points_per_decade < 1:
        raise ParameterError(f"points_per_decade must be >= 1, got {points_per_decade}")
    decades = math.log10(r_max / r_min)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(r_min, r_max, n)


@dataclass
class RadialProfile:
    """A radial function sampled on a strictly increasing positive grid.

    tail_exponent, when set, records the decay power r^(-tail_exponent) of
    the values.
    """

    radii: np.ndarray
    values: np.ndarray
    tail_exponent: float | None = None
    derivs: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, dtype=float)
        if self.radii.ndim != 1 or self.radii.size < 2:
            raise ValueError("radii must be a 1-D grid with at least two points")
        if self.radii[0] <= 0 or np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing and positive")
        if self.values.shape != self.radii.shape:
            raise ValueError("values must match radii in shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema": "cknlab/profile/1",
            "radii": self.radii.tolist(),
            "values": self.values.tolist(),
            "tail_exponent": self.tail_exponent,
            "derivs": None if self.derivs is None else self.derivs.tolist(),
            "meta": self.meta,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RadialProfile":
        obj = json.loads(text)
        return cls(
            radii=np.array(obj["radii"], dtype=float),
            values=np.array(obj["values"], dtype=float),
            tail_exponent=obj.get("tail_exponent"),
            derivs=None if obj.get("derivs") is None
            else np.array(obj["derivs"], dtype=float),
            meta=obj.get("meta", {}),
        )

    @classmethod
    def from_csv(cls, text: str) -> "RadialProfile":
        rows = list(csv.reader(io.StringIO(text)))
        try:
            first = [float(x) for x in rows[0]]
        except (IndexError, ValueError):
            pass  # a header row, or no rows at all
        else:
            raise ValueError("a profile CSV needs a header row (r,w or r,w,dw) "
                             f"before its data rows; its first row {first} "
                             "is numbers")
        cols = np.array([[float(x) for x in row] for row in rows[1:]])
        if cols.ndim != 2 or cols.shape[1] not in (2, 3):
            raise ValueError("a profile CSV needs a header row, then data rows "
                             "r,w or r,w,dw")
        derivs = cols[:, 2] if cols.shape[1] == 3 else None
        return cls(radii=cols[:, 0], values=cols[:, 1], derivs=derivs)


class AnalyticProfile:
    """Closed-form radial profile w(r) = exp(log_peak) (1 + r^c/b)^(-k).

    Both Barenblatt families and their dilates take this form.  w is taken
    through its log, finite at every r > 0, and its derivatives are w times a
    bounded factor in t = r^c/(b + r^c), over r and r^2.  AmplitudeOverflow
    is raised where the peak or a returned moment leaves the float range.
    """

    def __init__(self, log_peak: float, b: float, c: float, k: float):
        self.log_peak = float(log_peak)
        self.b = float(b)
        self.c = float(c)
        self.k = float(k)
        # decay power of w itself: r^(-c k)
        self.tail_exponent = c * k
        _exp(self.log_peak, "the peak")

    def _log1p_x(self, r):
        """log(1 + x), x = r^c/b, as softplus(log x): finite where x is not."""
        return _softplus(xlogy(self.c, np.asarray(r, dtype=float))
                         - math.log(self.b))

    def __call__(self, r):
        return np.exp(self.log(r))

    def log(self, r):
        """log w(r) = log_peak - k log(1 + r^c/b).

        exp(q log w) keeps w^q representable in the far tail, where w
        itself underflows to 0.
        """
        return self.log_peak - self.k * self._log1p_x(r)

    def log_of_log(self, log_r):
        """log w at r = exp(log_r), read from log_r: log x = c log_r - log b
        takes no log, so a grid held in log form costs none."""
        return self.log_peak - self.k * _softplus(self.c * log_r
                                                  - math.log(self.b))

    def _w_and_t(self, r):
        """w(r) and t = r^c/(b + r^c) = 1 - exp(-log(1 + r^c/b))."""
        log1p_x = self._log1p_x(r)
        return np.exp(self.log_peak - self.k * log1p_x), -np.expm1(-log1p_x)

    def deriv(self, r):
        """w'(r) = -k c t w / r, at r > 0."""
        w, t = self._w_and_t(r)
        return -self.k * self.c * t * w / r

    def second_deriv(self, r):
        """w''(r) = k c t (1 - c + (k + 1) c t) w / r^2, at r > 0."""
        c, k = self.c, self.k
        w, t = self._w_and_t(r)
        return k * c * t * (1.0 - c + (k + 1.0) * c * t) * w / r / r

    def sample(self, radii: np.ndarray | None = None) -> RadialProfile:
        radii = default_grid() if radii is None else np.asarray(radii, dtype=float)
        return RadialProfile(
            radii=radii,
            values=self(radii),
            tail_exponent=self.tail_exponent,
            derivs=self.deriv(radii),
            meta={"derivatives": "analytic"},
        )

    def log_moment(self, q: float, d: float, gamma: float) -> float:
        """log of |S^(d-1)| int_0^inf w^q r^(d-1-gamma) dr (Beta integral).

        d may be real, so the same closed form serves the flattened radial
        dimension d_gamma = 2 (d - gamma)/(2 - gamma).  DivergentNorm is
        raised where the integral diverges, q k c <= d - gamma.
        """
        return math.log(sphere_area(d)) + q * self.log_peak \
            + log_beta_integral(d - gamma, self.b, self.c, q * self.k)

    def log_gradient_moment(self, d: float) -> float:
        """log of |S^(d-1)| int_0^inf w'(r)^2 r^(d-1) dr (Beta integral).

        w'^2 = (c k/b)^2 w(0)^2 r^(2c-2) (1 + r^c/b)^(-2(k+1)), a Beta
        integral with mu = d + 2c - 2; d may be real.  It diverges for every
        k < 0; for a constant, k = 0, it is 0 and its log -inf.
        """
        if self.k == 0.0:
            return -math.inf
        log_beta = log_beta_integral(d + 2.0 * self.c - 2.0, self.b, self.c,
                                     2.0 * (self.k + 1.0))
        return math.log(sphere_area(d)) + 2.0 * self.log_peak \
            + 2.0 * math.log(self.c * self.k / self.b) + log_beta

    def moment(self, q: float, d: float, gamma: float) -> float:
        """exp(log_moment); AmplitudeOverflow past the float range."""
        return _exp(self.log_moment(q, d, gamma), "the moment")

    def gradient_moment(self, d: float) -> float:
        """exp(log_gradient_moment); AmplitudeOverflow past the float range."""
        return _exp(self.log_gradient_moment(d), "the gradient moment")

    def scaled(self, amp_factor: float, dilation: float) -> "AnalyticProfile":
        """Profile amp_factor * w(dilation * r): (lam r)^c/b = r^c/(b lam^(-c))."""
        return AnalyticProfile(log_peak=self.log_peak + math.log(amp_factor),
                               b=self.b * dilation ** (-self.c), c=self.c,
                               k=self.k)


def _softplus(z):
    """log(1 + exp(z)), finite where exp(z) is not."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


#: log of the largest float
LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _exp(log_value: float, what: str) -> float:
    """exp(log_value) of a peak, moment, norm or quotient; AmplitudeOverflow
    past the float range, as for the optimizer's peak exp(1116.7) at
    (3, 1.999, 1.0002)."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise AmplitudeOverflow(f"{what} exp({log_value:.1f}) exceeds the "
                                f"float range") from None


#: Share of each integrand's integral that a radial grid leaves beyond
#: either of its ends.
TAIL_SHARE = 1e-10


def tail_bounds(scale: float, pairs) -> tuple[float, float]:
    """Ends (s_min, s_max) of a radial grid for integrands of the Beta family.

    Each pair (mu, q) names the integrand t^(mu-1) (1 + t^2)^(-q), t = s/scale,
    with q > mu/2; each one has at most TAIL_SHARE of its integral below s_min
    and at most TAIL_SHARE above s_max.  With x = t^2/(1 + t^2) the share
    below t is I_x(mu/2, q - mu/2), the regularized incomplete Beta function.
    """
    mu, q = np.asarray(pairs, dtype=float).T
    half = 0.5 * mu
    lo = betaincinv(half, q - half, TAIL_SHARE).min()  # x at the inner end
    hi = betaincinv(q - half, half, TAIL_SHARE).min()  # 1 - x at the outer end
    return scale * math.sqrt(lo / (1.0 - lo)), scale * math.sqrt((1.0 - hi) / hi)


def w_star(params: ProblemParams) -> AnalyticProfile:
    """Unit-coefficient optimizer (1 + r^(2-gamma))^(-1/(p-1))."""
    return AnalyticProfile(log_peak=0.0, b=1.0, c=2.0 - params.gamma,
                           k=1.0 / (params.p - 1.0))


def w_gamma_star(params: ProblemParams) -> AnalyticProfile:
    """Normalized optimizer (a/(b + r^(2-gamma)))^(1/(p-1)).

    Solves the unit-multiplier Euler-Lagrange equation exactly; its peak value
    is (a/b)^(1/(p-1)) = (p (2-gamma)/eta)^(1/(p-1)).
    """
    ex = derive(params)
    k = 1.0 / (params.p - 1.0)
    return AnalyticProfile(log_peak=k * math.log(ex.a_gamma / ex.b_gamma),
                           b=ex.b_gamma, c=2.0 - params.gamma, k=k)


def barenblatt_mass(params: ProblemParams) -> float:
    """Closed form of the weighted L^(2p) mass of the normalized optimizer."""
    return w_gamma_star(params).moment(2.0 * params.p, params.d, params.gamma)


def _analytic(w) -> AnalyticProfile:
    if not isinstance(w, AnalyticProfile):
        raise TypeError(f"expected an AnalyticProfile, got {type(w).__name__}")
    return w


def weighted_norm(w, q: float, gamma: float, params: ProblemParams) -> float:
    """Weighted Lebesgue norm (|S^(d-1)| int |w|^q r^(d-1-gamma) dr)^(1/q)."""
    if q < 1:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q}")
    return _exp(_analytic(w).log_moment(q, params.d, gamma) / q, "the norm")


def gradient_norm(w, params: ProblemParams) -> float:
    """Unweighted gradient norm (|S^(d-1)| int w'(r)^2 r^(d-1) dr)^(1/2)."""
    return _exp(0.5 * _analytic(w).log_gradient_moment(params.d),
                "the gradient norm")


def _log_moments(w, params: ProblemParams):
    """logs of X = |w'|_2^2, Y = |w|_(p+1,gamma)^(p+1), mass = |w|_(2p,gamma)^(2p)."""
    w = _analytic(w)
    d, g, p = params.d, params.gamma, params.p
    return (w.log_gradient_moment(d), w.log_moment(p + 1.0, d, g),
            w.log_moment(2.0 * p, d, g))


def quotient_from_logs(params: ProblemParams, log_X: float, log_Y: float,
                       log_mass: float) -> float:
    """Interpolation quotient |w'|_2^vartheta |w|_(p+1,gamma)^(1-vartheta)
    / |w|_(2p,gamma) from the logs of X = |w'|_2^2, Y = |w|_(p+1,gamma)^(p+1)
    and mass = |w|_(2p,gamma)^(2p) of one profile, exact or discrete.

    The quotient is invariant under scaling and dilation, so it is finite
    where X, Y and the mass leave the float range.
    """
    p, vt = params.p, derive(params).vartheta
    return _exp(0.5 * vt * log_X + (1.0 - vt) / (p + 1.0) * log_Y
                - 0.5 / p * log_mass, "the quotient")


def quotient(w, params: ProblemParams) -> float:
    """Scale- and dilation-invariant quotient whose infimum is 1/C."""
    return quotient_from_logs(params, *_log_moments(w, params))


def energy(w, params: ProblemParams, J: float) -> tuple[float, float]:
    """Energy pair (E, G) of the non-scale-invariant formulation.

    G = 0.5 |grad w|_2^2 + (p+1)^(-1) |w|_(p+1,gamma)^(p+1) and
    E = G - J |w|_(2p,gamma)^(2 p theta).  E is nonnegative only when J is the
    optimal constant; for other J the sign carries no meaning.
    """
    p = params.p
    X, Y, mass = (_exp(v, "a moment") for v in _log_moments(w, params))
    G = 0.5 * X + Y / (p + 1)
    E = G - J * mass ** derive(params).theta_gamma
    return E, G


def el_residual(w, params: ProblemParams,
                radii: np.ndarray | None = None) -> float:
    """Sup-norm optimality residual of the unit-multiplier equation.

    Evaluates -w'' - (d-1)/r w' + r^(-gamma) (w^p - w^(2p-1)) at the radii
    (default_grid() unless given) from w's exact derivatives and normalizes pointwise by the largest of the three term
    magnitudes, so that the residual is meaningful across many decades.
    """
    _analytic(w)
    d, g, p = params.d, params.gamma, params.p
    r = default_grid() if radii is None else np.asarray(radii, dtype=float)
    v, dv, ddv = w(r), w.deriv(r), w.second_deriv(r)
    t_lap = -ddv
    t_drift = -(d - 1.0) / r * dv
    t_nonlin = r ** (-g) * (v**p - v ** (2 * p - 1))
    res = np.abs(t_lap + t_drift + t_nonlin)
    scale = np.maximum.reduce([np.abs(t_lap), np.abs(t_drift), np.abs(t_nonlin)])
    scale = np.maximum(scale, 1e-300)
    return float(np.max(res / scale))
