#!/usr/bin/env python3
"""Linearized stability: spectral gaps sector by sector.

Around the explicit optimizer the linearization decomposes over spherical
harmonic sectors.  At gamma = 0 the translation modes sit exactly at zero in
sector one, the weighted spectral-gap quotient has the explicit constant
2p(p-1)/(d - p(d-2)), and for gamma > 0 the translation mode lifts; the
sweep of the lowest sector-one eigenvalue quantifies that lift.
"""

import numpy as np

from cknlab import validate
from cknlab.spectral import (assemble, gamma_sweep, hardy_poincare_gap,
                             lowest_eigenvalue)

# every solve sizes its own grid of n nodes in the flat variable s
pp = validate(3, 0.0, 2.0)

print("== translation zero mode (sector 1, gamma = 0) ==")
op = assemble(pp, ell=1, n=2000)
lam, prof = lowest_eigenvalue(op)
print(f"  lowest eigenvalue: {lam:+.2e} (exact: 0)")

print("\n== radial sector with the mass direction projected out ==")
# a radial operator carries its zero-mean constraint in op0.constraints
op0 = assemble(pp, ell=0, n=2000)
lam0, _ = lowest_eigenvalue(op0)
print(f"  lowest constrained eigenvalue: {lam0:.6f} (positive: stable)")

print("\n== weighted spectral-gap quotient ==")
gap, info = hardy_poincare_gap(3, 2.0, n=2000)
print(f"  constrained minimum: {gap:.6f}")
print(f"  explicit constant 2p(p-1)/(d-p(d-2)) = 4.0")
print(f"  minimizing sector: {info['sector']}, per sector: "
      f"{ {k: round(v, 4) for k, v in info['by_sector'].items()} }")
print(f"  correlation of the minimizer with the coordinate function: "
      f"{info['coordinate_correlation']:.6f}")

print("\n== sector-one eigenvalue along gamma ==")
gammas = np.linspace(0.0, 0.1, 11)
curve = gamma_sweep(3, 2.0, gammas, ell=1, n=2000)
for g, lam in curve:
    bar = "#" * int(round(lam / 0.002))
    print(f"  gamma = {g:.2f}: lambda_min = {lam:+.3e} {bar}")
print("  the lift is strictly positive for small gamma > 0: the radial")
print("  profile stays linearly stable against sector-one perturbations")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot([g for g, _ in curve], [lam for _, lam in curve], "o-")
    ax.set_xlabel("gamma")
    ax.set_ylabel("lowest sector-1 eigenvalue")
    ax.axhline(0.0, color="k", lw=0.5)
    fig.tight_layout()
    fig.savefig("demos_sweep.png", dpi=120)
    print("  wrote demos_sweep.png")
except ImportError:
    pass
