#!/usr/bin/env python3
"""Recovering the ground state by shooting in the flattened radial variable.

The radial optimality equation becomes weight-free after the substitution
s = (r/c)^((2-gamma)/2), at the price of a non-integer effective dimension
d_gamma = 2(d - gamma)/(2 - gamma).  Trajectories launched from v(0) > 1
either cross zero (too high), get trapped by the stable plateau at v = 1
(too low), or follow the separatrix down to zero: the unique ground state.

The energy E = v'^2/2 + v^(2p)/(2p) - v^(p+1)/(p+1) only decreases along a
trajectory and is >= 0 wherever v = 0, so each shot is classed exactly: it
crosses zero when it reaches v = 0, and is plateau-bound once E < 0.  The
bisection keeps a certified bracket [plateau start, crossing start] around
the ground state.
"""

import numpy as np

from cknlab import derive, validate, w_gamma_star
from cknlab.shooting import find_ground_state, integrate_ode, to_flat_variables

pp = validate(3, 0.5, 2.0)
ex = derive(pp)
d_gamma, log_c_map = to_flat_variables(pp)
print(f"effective dimension d_gamma = {d_gamma:.6f}, "
      f"radius scale = {np.exp(log_c_map):.6f}")

print("\n== classification scan ==")
for v0 in (1.01, 2.0, 4.0, 6.0, 6.5, 8.0):
    res = integrate_ode(d_gamma, pp.p, v0)
    print(f"  v0 = {v0:5.2f} -> {res.classification.value}")

print("\n== bisection to the separatrix ==")
res = find_ground_state(pp, tol=1e-8)
exact = (pp.p * (2.0 - pp.gamma) / ex.eta) ** (1.0 / (pp.p - 1.0))
print(f"  found  v0 = {res.v0:.10f}")
print(f"  closed form (p(2-gamma)/eta)^(1/(p-1)) = {exact:.10f}")
print(f"  relative difference = {abs(res.v0 - exact) / exact:.2e}")
print(f"  bisection evaluations: {len(res.bisection_history)}")
lo, hi = res.bracket
print(f"  certified bracket [{lo:.10f}, {hi:.10f}], width {(hi - lo) / hi:.1e}")

prof = res.profile
wg = w_gamma_star(pp)
dev = np.max(np.abs(prof.values - wg(prof.radii)))
print(f"  mapped-back trajectory vs explicit optimizer, sup deviation: {dev:.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.loglog(prof.radii, prof.values, label="shooting trajectory")
    r = np.geomspace(prof.radii[0], prof.radii[-1], 400)
    ax.loglog(r, wg(r), "--", label="explicit optimizer")
    ax.set_xlabel("r")
    ax.set_ylabel("w(r)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demos_shooting.png", dpi=120)
    print("  wrote demos_shooting.png")
except ImportError:
    pass
