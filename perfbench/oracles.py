"""Closed forms and acceptance checks, computed apart from cknlab.

Nothing here imports cknlab.  Every oracle is rebuilt from its formula: the
explicit optimizer (a/(b + r^(2-gamma)))^(1/(p-1)) and its Beta-integral
norms, the dilation constant kappa by a 1-D minimisation, the spectral-gap
constant 2p(p-1)/(d - p(d-2)) and, at gamma = 0, the Hardy-Poincare spectrum
around the Barenblatt profile (Denzler-McCann, ARMA 175, 2005), whose
mass-constrained radial mode sits at the gap times 2 + d(m-1).

Each ``check_*`` function returns a list of failure messages; an empty list
means the result is accepted.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import betaln

# -- closed forms -----------------------------------------------------------


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def beta_integral(mu: float, b: float, c: float, q: float) -> float:
    """int_0^inf r^(mu-1) (b + r^c)^(-q) dr = b^(nu-q) B(nu, q-nu) / c, nu = mu/c."""
    nu = mu / c
    return b ** (nu - q) * math.exp(betaln(nu, q - nu)) / c


def optimizer_coefficients(d: int, gamma: float, p: float):
    """(amplitude, b, c, k) of the explicit optimizer amplitude (b + r^c)^(-k)."""
    eta = d - gamma - p * (d - 2)
    a = (2.0 - gamma) * eta / (p - 1.0) ** 2
    b = eta * eta / (p * (p - 1.0) ** 2)
    k = 1.0 / (p - 1.0)
    return a ** k, b, 2.0 - gamma, k


def weighted_norm(d: int, gamma: float, p: float, q: float) -> float:
    """(|S^(d-1)| int w^q r^(d-1-gamma) dr)^(1/q) of the explicit optimizer."""
    amp, b, c, k = optimizer_coefficients(d, gamma, p)
    integral = amp ** q * beta_integral(d - gamma, b, c, q * k)
    return (sphere_area(d) * integral) ** (1.0 / q)


def gradient_norm(d: int, gamma: float, p: float) -> float:
    """(|S^(d-1)| int w'(r)^2 r^(d-1) dr)^(1/2) of the explicit optimizer."""
    amp, b, c, k = optimizer_coefficients(d, gamma, p)
    integral = (amp * k * c) ** 2 * beta_integral(
        d + 2.0 - 2.0 * gamma, b, c, 2.0 * (k + 1.0))
    return math.sqrt(sphere_area(d) * integral)


def vartheta(d: int, gamma: float, p: float) -> float:
    return (d - gamma) * (p - 1) / (p * (d + 2 - 2 * gamma - p * (d - 2)))


def theta_gamma(d: int, gamma: float, p: float) -> float:
    return (d + 2 - 2 * gamma - p * (d - 2)) / (d - gamma - p * (d + gamma - 4))


def quotient(d: int, gamma: float, p: float) -> float:
    """Quotient of the explicit optimizer; its value is 1/C*."""
    th = vartheta(d, gamma, p)
    return (gradient_norm(d, gamma, p) ** th
            * weighted_norm(d, gamma, p, p + 1.0) ** (1.0 - th)
            / weighted_norm(d, gamma, p, 2.0 * p))


def kappa(d: int, gamma: float, p: float) -> float:
    """min over lambda > 0 of 0.5 lambda^A + lambda^(-B)/(p+1), numerically."""
    A = (d - gamma) / p - (d - 2)
    B = (p - 1) * (d - gamma) / (2 * p)

    def g(log_lam: float) -> float:
        return 0.5 * math.exp(A * log_lam) + math.exp(-B * log_lam) / (p + 1)

    res = minimize_scalar(g, bracket=(-5.0, 0.0, 5.0), method="brent",
                          options={"xtol": 1e-12})
    return float(res.fun)


def energy_constant(d: int, gamma: float, p: float) -> float:
    """J = kappa C*^(-2 p theta_gamma)."""
    c_star = 1.0 / quotient(d, gamma, p)
    return kappa(d, gamma, p) * c_star ** (-2.0 * p * theta_gamma(d, gamma, p))


def shooting_v0(d: int, gamma: float, p: float) -> float:
    """Peak value (p (2-gamma)/eta)^(1/(p-1)) of the ground state."""
    eta = d - gamma - p * (d - 2)
    return (p * (2.0 - gamma) / eta) ** (1.0 / (p - 1.0))


def total_K(d: int, p: float) -> float:
    """(p-1)(d-2) M / (2p (d+2-p(d-2))), M the weighted L^(2p) mass at gamma = 0."""
    mass = weighted_norm(d, 0.0, p, 2.0 * p) ** (2.0 * p)
    return (p - 1.0) * (d - 2.0) * mass / (2.0 * p * (d + 2.0 - p * (d - 2.0)))


def m3(s: float) -> float:
    """(1-s)/(2 sqrt s) arctanh(2 sqrt s/(1+s)), which is 0 at s = 1."""
    if s == 1.0:
        return 0.0
    rs = math.sqrt(s)
    return (1.0 - s) / (2.0 * rs) * math.atanh(2.0 * rs / (1.0 + s))


def gap(d: int, p: float) -> float:
    """Weighted spectral-gap constant 2p(p-1)/(d - p(d-2))."""
    return 2.0 * p * (p - 1.0) / (d - p * (d - 2.0))


def radial_gap(d: int, p: float) -> float:
    """Mass-constrained radial mode: the gap times 2 + d(m-1), m = (p+1)/(2p)."""
    m = (p + 1.0) / (2.0 * p)
    return gap(d, p) * (2.0 + d * (m - 1.0))


def radial_flow_rate(d: int, m: float) -> float:
    """Asymptotic rate 4 (2 + d(m-1)) of a radial flow at gamma = 0."""
    return 4.0 * (2.0 + d * (m - 1.0))


def fit_rate(t: np.ndarray, F: np.ndarray, f_hi: float = 1e-1,
             f_lo: float = 1e-3) -> float:
    """Least-squares slope of -log F over F/F(0) in [f_lo, f_hi]."""
    F0 = F[0]
    mask = (F > 0) & (F <= f_hi * F0) & (F >= f_lo * F0)
    if mask.sum() < 8:
        return math.nan
    return -float(np.polyfit(t[mask], np.log(F[mask]), 1)[0])


# -- checks -------------------------------------------------------------------


def check_rel(label: str, got: float, want: float, tol: float) -> list[str]:
    err = abs(got - want) / abs(want) if math.isfinite(got) else math.inf
    return [] if err <= tol else [
        f"{label}: {got!r} vs {want!r}, relative error {err:.2e} > {tol:.0e}"]


def check_rate(rate: float, d: int, m: float) -> list[str]:
    want = radial_flow_rate(d, m)
    lo, hi = 0.95 * want, 1.10 * want
    return [] if lo <= rate <= hi else [
        f"fitted rate {rate!r} outside [{lo:.3f}, {hi:.3f}]"]


def check_flow(t, F, I, mass, d: int, m: float, gamma: float) -> list[str]:
    """Mass drift, dF/dt = -I, the exp(-(2-gamma)^2 t) envelope, and at
    gamma = 0.5 the ratio I/F >= 0.98 (2-gamma)^2; at gamma = 0 the rate."""
    out = []
    drift = float(np.max(np.abs(mass - mass[0]))) / mass[0]
    if not drift < 1e-10:
        out.append(f"mass drift {drift:.2e} >= 1e-10")
    dF = np.diff(F) / np.diff(t)
    I_mid = 0.5 * (I[1:] + I[:-1])
    resid = float(np.max(np.abs(dF + I_mid) / np.maximum(I_mid, 1e-300)))
    if not resid < 0.02:
        out.append(f"identity residual {resid:.3e} >= 0.02")
    rate = (2.0 - gamma) ** 2
    if not np.all(F <= F[0] * np.exp(-rate * t) * 1.01):
        out.append("F exceeds F(0) exp(-(2-gamma)^2 t) * 1.01")
    if gamma == 0.5:
        ratio = float(np.min(I / np.maximum(F, 1e-300)))
        if not ratio >= 0.98 * rate:
            out.append(f"min I/F {ratio:.4f} < {0.98 * rate:.4f}")
    if gamma == 0.0:
        out += check_rate(fit_rate(t, F), d, m)
    return out


def check_gap(gap_value: float, radial: float, d: int, p: float) -> list[str]:
    return (check_rel("gap", gap_value, gap(d, p), 1e-6)
            + check_rel("radial sector", radial, radial_gap(d, p), 1e-3)
            + ([] if radial > 0 else [f"radial sector {radial!r} <= 0"]))


def check_sweep(gammas, lam1, lam2, probes: dict,
                zero_mode: bool = True) -> list[str]:
    """Zero mode at gamma = 0, lift for gamma > 0, lambda_2 >= lambda_1, and
    refinement agreement at the probe points {gamma: (fine, coarse)}."""
    out = []
    if zero_mode and (not abs(lam1[0]) < 1e-5 or gammas[0] != 0.0):
        out.append(f"translation mode {lam1[0]!r} at gamma={gammas[0]} not within 1e-5 of 0")
    if not all(lam > 0 for g, lam in zip(gammas, lam1) if g > 0):
        out.append("lambda_1 not positive on gamma > 0")
    if not all(b >= a for a, b in zip(lam1, lam2)):
        out.append("lambda_2 < lambda_1 somewhere")
    for g, (fine, coarse) in probes.items():
        if not abs(fine - coarse) < 1e-4:
            out.append(f"n vs n/2 at gamma={g}: {fine!r} vs {coarse!r}")
    return out
