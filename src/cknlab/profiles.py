"""Barenblatt-type profiles, weighted norms, energies and optimality residuals.

``AnalyticProfile`` wraps a closed-form radial function a (b + r^c)^(-k)
together with its exact derivatives and exact Beta-integral moments.  The
norms, quotients, energies and optimality residuals take such a profile (the
weighted norm also takes a bare callable) and integrate it by tanh-sinh
quadrature, with no truncation radius.  ``RadialProfile`` is the sampled
export of any profile, a graded grid with values and optional derivatives,
read and written as JSON or CSV; the norm functions reject it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
import numpy as np

from . import quadrature as quad
from .errors import (AmplitudeOverflow, DivergentNorm, ParameterError,
                     ZeroDenominator)
from .params import ProblemParams, check_radial_bounds, derive

__all__ = [
    "RadialProfile",
    "AnalyticProfile",
    "default_grid",
    "w_star",
    "w_gamma_star",
    "barenblatt_mass",
    "dilate_to_mass",
    "weighted_norm",
    "gradient_norm",
    "quotient",
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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if self.derivs is None:
            writer.writerow(["r", "w"])
            for r, w in zip(self.radii, self.values):
                writer.writerow([repr(float(r)), repr(float(w))])
        else:
            writer.writerow(["r", "w", "dw"])
            for r, w, dw in zip(self.radii, self.values, self.derivs):
                writer.writerow([repr(float(r)), repr(float(w)), repr(float(dw))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "RadialProfile":
        rows = list(csv.reader(io.StringIO(text)))
        cols = np.array([[float(x) for x in row] for row in rows[1:]])
        if cols.ndim != 2 or cols.shape[1] not in (2, 3):
            raise ValueError("a profile CSV needs a header row, then data rows "
                             "r,w or r,w,dw")
        derivs = cols[:, 2] if cols.shape[1] == 3 else None
        return cls(radii=cols[:, 0], values=cols[:, 1], derivs=derivs)


class AnalyticProfile:
    """Closed-form radial profile with exact first and second derivatives.

    Represents w(r) = amplitude * (b + r^c)^(-k); both Barenblatt families and
    their dilates take this form.
    """

    def __init__(self, amplitude: float, b: float, c: float, k: float):
        self.amplitude = float(amplitude)
        self.b = float(b)
        self.c = float(c)
        self.k = float(k)
        # decay power of w itself: r^(-c k)
        self.tail_exponent = c * k

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            return self.amplitude * (self.b + r**self.c) ** (-self.k)

    def log(self, r):
        """log w(r) = log a - k log(b + r^c), for a positive amplitude.

        exp(q log w) keeps w^q representable in the far tail, where w
        itself underflows to 0.
        """
        r = np.asarray(r, dtype=float)
        return math.log(self.amplitude) - self.k * np.log(self.b + r**self.c)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            s = r**self.c
            base = (self.b + s) ** (-self.k - 1.0)
            out = (-self.amplitude * self.k * self.c) * r ** (self.c - 1.0) * base
        # far in the tail `base` underflows to 0 while the factor before it
        # overflows; the product there is 0, not inf * 0 = nan
        return np.where((base == 0.0) & np.isnan(out), 0.0, out)

    def second_deriv(self, r):
        r = np.asarray(r, dtype=float)
        a, b, c, k = self.amplitude, self.b, self.c, self.k
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            s = r**c
            base = (b + s) ** (-k - 2.0)
            t_sq = (k + 1.0) * (c * r ** (c - 1.0)) ** 2
            t_curv = (b + s) * c * (c - 1.0) * r ** (c - 2.0)
            out = a * k * base * (t_sq - t_curv)
        # as in deriv: an underflowed `base` makes the product 0
        return np.where((base == 0.0) & np.isnan(out), 0.0, out)

    def sample(self, radii: np.ndarray | None = None) -> RadialProfile:
        radii = default_grid() if radii is None else np.asarray(radii, dtype=float)
        return RadialProfile(
            radii=radii,
            values=self(radii),
            tail_exponent=self.tail_exponent,
            derivs=self.deriv(radii),
            meta={"derivatives": "analytic"},
        )

    def moment(self, q: float, d: float, gamma: float) -> float:
        """|S^(d-1)| int_0^inf |w|^q r^(d-1-gamma) dr, exactly (Beta integral).

        d may be real, so the same closed form serves the flattened radial
        dimension d_gamma = 2 (d - gamma)/(2 - gamma).
        """
        return quad.sphere_area(d) * _power(abs(self.amplitude), q) \
            * quad.power_law_weighted_integral(d - gamma, self.b, self.c,
                                               q * self.k)

    def gradient_moment(self, d: float) -> float:
        """|S^(d-1)| int_0^inf w'(r)^2 r^(d-1) dr, exactly (Beta integral).

        w'^2 = (a c k)^2 r^(2c-2) (b + r^c)^(-2(k+1)), a Beta integral with
        mu = d + 2c - 2; d may be real.
        """
        return quad.sphere_area(d) * _power(abs(self.amplitude), 2.0) \
            * (self.c * self.k) ** 2 * quad.power_law_weighted_integral(
                d + 2.0 * self.c - 2.0, self.b, self.c, 2.0 * (self.k + 1.0))

    def scaled(self, amp_factor: float, dilation: float) -> "AnalyticProfile":
        """Profile amp_factor * w(dilation * r), still in closed form.

        amp (b + (lam r)^c)^(-k) = amp lam^(-c k) (b lam^(-c) + r^c)^(-k).
        """
        lam = dilation
        return AnalyticProfile(
            amplitude=amp_factor * self.amplitude * lam ** (-self.c * self.k),
            b=self.b * lam ** (-self.c),
            c=self.c,
            k=self.k,
        )


def w_star(params: ProblemParams) -> AnalyticProfile:
    """Unit-coefficient optimizer (1 + r^(2-gamma))^(-1/(p-1))."""
    return AnalyticProfile(amplitude=1.0, b=1.0, c=2.0 - params.gamma,
                           k=1.0 / (params.p - 1.0))


def w_gamma_star(params: ProblemParams) -> AnalyticProfile:
    """Normalized optimizer (a/(b + r^(2-gamma)))^(1/(p-1)).

    Solves the unit-multiplier Euler-Lagrange equation exactly; its peak value
    is (a/b)^(1/(p-1)) = (p (2-gamma)/eta)^(1/(p-1)).
    """
    ex = derive(params)
    k = 1.0 / (params.p - 1.0)
    return AnalyticProfile(amplitude=_power(ex.a_gamma, k), b=ex.b_gamma,
                           c=2.0 - params.gamma, k=k)


def barenblatt_mass(params: ProblemParams) -> float:
    """Closed form of the weighted L^(2p) mass of the normalized optimizer."""
    return w_gamma_star(params).moment(2.0 * params.p, params.d, params.gamma)


def _power(base: float, expo: float) -> float:
    """base**expo for an amplitude; AmplitudeOverflow past the float range.

    Near p = 1 the optimizer's amplitude a_gamma^(1/(p-1)) grows like
    exp(log(a_gamma)/(p-1)) and leaves the float range, e.g. at
    (d, gamma, p) = (5, 1.9, 1.0067).
    """
    try:
        return base**expo
    except OverflowError:
        raise AmplitudeOverflow(
            f"amplitude {base:.6g}^{expo:.6g} = exp({expo * math.log(base):.1f}) "
            f"exceeds the float range") from None


def dilate_to_mass(params: ProblemParams, mass: float) -> AnalyticProfile:
    """Member of the constrained-minimizer family with prescribed mass.

    The family alpha * w_gamma_star(alpha^((p-1)/(2-gamma)) x) consists of all
    radial solutions of the constrained problem; its weighted L^(2p) mass is a
    pure power of alpha, so the matching alpha is explicit.
    """
    d, g, p = params.d, params.gamma, params.p
    base = w_gamma_star(params)
    m_base = barenblatt_mass(params)
    expo = 2.0 * p - (p - 1.0) * (d - g) / (2.0 - g)
    alpha = (mass / m_base) ** (1.0 / expo)
    lam = alpha ** ((p - 1.0) / (2.0 - g))
    return base.scaled(alpha, lam)


def weighted_norm(w, q: float, gamma: float, params: ProblemParams) -> float:
    """Weighted Lebesgue norm (|S^(d-1)| int |w|^q r^(d-1-gamma) dr)^(1/q).

    w is an AnalyticProfile or a bare callable of r, whose integrability is
    left to the quadrature.
    """
    if q < 1:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q}")
    if isinstance(w, RadialProfile):
        raise TypeError("weighted_norm expects an AnalyticProfile or a callable "
                        "of r, not a sampled RadialProfile")
    d = params.d
    if isinstance(w, AnalyticProfile) and w.tail_exponent * q <= d - gamma:
        raise DivergentNorm(
            f"q * tail_exponent = {q * w.tail_exponent} must exceed "
            f"d - gamma = {d - gamma}"
        )
    integral = quad.integrate(lambda r: np.abs(w(r)) ** q, d, gamma)
    return (quad.sphere_area(d) * integral) ** (1.0 / q)


def gradient_norm(w, params: ProblemParams) -> float:
    """Unweighted gradient norm (|S^(d-1)| int w'(r)^2 r^(d-1) dr)^(1/2)."""
    if not isinstance(w, AnalyticProfile):
        raise TypeError("gradient_norm expects an AnalyticProfile")
    d = params.d
    integral = quad.integrate(lambda r: w.deriv(r) ** 2, d, 0.0)
    return math.sqrt(quad.sphere_area(d) * integral)


def quotient(w, params: ProblemParams) -> float:
    """Scale- and dilation-invariant quotient whose infimum is 1/C."""
    ex = derive(params)
    p, g = params.p, params.gamma
    n2p = weighted_norm(w, 2 * p, g, params)
    if n2p == 0.0:
        raise ZeroDenominator("profile has vanishing weighted L^(2p) norm")
    grad = gradient_norm(w, params)
    np1 = weighted_norm(w, p + 1, g, params)
    return grad**ex.vartheta * np1 ** (1.0 - ex.vartheta) / n2p


def energy(w, params: ProblemParams, J: float) -> tuple[float, float]:
    """Energy pair (E, G) of the non-scale-invariant formulation.

    G = 0.5 |grad w|_2^2 + (p+1)^(-1) |w|_(p+1,gamma)^(p+1) and
    E = G - J |w|_(2p,gamma)^(2 p theta).  E is nonnegative only when J is the
    optimal constant; for other J the sign carries no meaning.
    """
    ex = derive(params)
    p, g = params.p, params.gamma
    grad = gradient_norm(w, params)
    np1 = weighted_norm(w, p + 1, g, params)
    n2p = weighted_norm(w, 2 * p, g, params)
    G = 0.5 * grad**2 + np1 ** (p + 1) / (p + 1)
    E = G - J * n2p ** (2.0 * p * ex.theta_gamma)
    return E, G


def el_residual(w, params: ProblemParams,
                radii: np.ndarray | None = None) -> float:
    """Sup-norm optimality residual of the unit-multiplier equation.

    Evaluates -w'' - (d-1)/r w' + r^(-gamma) (w^p - w^(2p-1)) at the radii
    (default_grid() unless given) from w's exact derivatives and normalizes pointwise by the largest of the three term
    magnitudes, so that the residual is meaningful across many decades.
    """
    if not isinstance(w, AnalyticProfile):
        raise TypeError("el_residual expects an AnalyticProfile")
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
