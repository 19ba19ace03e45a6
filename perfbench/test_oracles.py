"""The benchmark's checks accept the closed forms and reject wrong values.

Run with:  python3 -m pytest perfbench -q
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles


def test_flow_window_rejects_the_translation_rate():
    assert oracles.radial_flow_rate(3, 0.75) == pytest.approx(5.0)
    assert oracles.check_rate(5.0, 3, 0.75) == []
    assert oracles.check_rate(4.0, 3, 0.75) != []
    assert oracles.check_rate(math.nan, 3, 0.75) != []


def test_gap_check_rejects_an_error_of_1e_3():
    for d, p, radial in [(3, 2.0, 5.0), (4, 1.5, 2.0), (4, 1.8, 8.0)]:
        assert oracles.radial_gap(d, p) == pytest.approx(radial)
        g = oracles.gap(d, p)
        assert oracles.check_gap(g, radial, d, p) == []
        assert oracles.check_gap(g * (1 + 1e-3), radial, d, p) != []
        assert oracles.check_gap(g, radial * (1 + 2e-3), d, p) != []
    assert oracles.gap(3, 2.0) == pytest.approx(4.0)


def test_check_rel_rejects_nan():
    assert oracles.check_rel("x", math.nan, 1.0, 1e-3) != []


def _flow_series(rate=5.0, n=400, T=2.0):
    t = np.linspace(0.0, T, n)
    F = np.exp(-rate * t)
    return t, F, rate * F, np.full(n, 50.0)


def test_flow_check_accepts_a_clean_decay_and_rejects_each_fault():
    t, F, I, mass = _flow_series()
    assert oracles.check_flow(t, F, I, mass, 3, 0.75, 0.0) == []
    drifting = mass * (1 + 1e-9 * t)
    assert oracles.check_flow(t, F, I, drifting, 3, 0.75, 0.0) != []
    assert oracles.check_flow(t, F, 1.1 * I, mass, 3, 0.75, 0.0) != []
    t4, F4, I4, m4 = _flow_series(rate=4.0)
    assert oracles.check_flow(t4, F4, I4, m4, 3, 0.75, 0.0) != []
    slow = np.exp(-3.0 * t)  # above the exp(-4t) envelope
    assert oracles.check_flow(t, slow, 3.0 * slow, mass, 3, 0.75, 0.5) == []
    assert oracles.check_flow(t, slow, 3.0 * slow, mass, 3, 0.75, 0.0) != []
    low_ratio = np.exp(-2.0 * t)  # I/F = 2 < 0.98 * 2.25 at gamma = 0.5
    assert oracles.check_flow(t, low_ratio, 2.0 * low_ratio, mass,
                              3, 0.75, 0.5) != []


def test_sweep_check_rejects_each_fault():
    gammas = [0.0, 0.05, 0.1]
    lam1, lam2 = [1e-6, 0.01, 0.02], [0.5, 0.6, 0.7]
    probes = {0.05: (0.01, 0.01 + 5e-5)}
    assert oracles.check_sweep(gammas, lam1, lam2, probes) == []
    assert oracles.check_sweep(gammas, [2e-5] + lam1[1:], lam2, probes) != []
    assert oracles.check_sweep(gammas, [1e-6, -0.01, 0.02], lam2, probes) != []
    assert oracles.check_sweep(gammas, lam1, [0.5, 0.005, 0.7], probes) != []
    assert oracles.check_sweep(gammas, lam1, lam2, {0.05: (0.01, 0.0102)}) != []


def test_beta_integral_matches_direct_quadrature():
    mu, b, c, q = 2.5, 1.7, 1.5, 4.0
    direct, _ = quad(lambda r: r ** (mu - 1) * (b + r ** c) ** (-q), 0, np.inf,
                     epsabs=0, epsrel=1e-12)
    assert oracles.beta_integral(mu, b, c, q) == pytest.approx(direct, rel=1e-10)


def test_kappa_matches_its_stationary_point():
    d, gamma, p = 3, 0.3, 1.9
    A = (d - gamma) / p - (d - 2)
    B = (p - 1) * (d - gamma) / (2 * p)
    # 0.5 A lam^A = B lam^-B / (p+1) at the minimum
    lam = (2 * B / ((p + 1) * A)) ** (1 / (A + B))
    exact = 0.5 * lam ** A + lam ** (-B) / (p + 1)
    assert oracles.kappa(d, gamma, p) == pytest.approx(exact, rel=1e-12)


def test_m3_matches_its_angular_integral():
    for s in (0.1, 0.7, 3.0):
        direct, _ = quad(lambda th: (1 - s * s) * math.sin(th)
                         / ((1 - s) ** 2 + 4 * s * math.sin(th) ** 2),
                         0, math.pi / 2, epsabs=1e-14, epsrel=1e-13)
        assert oracles.m3(s) == pytest.approx(direct, rel=1e-10)
