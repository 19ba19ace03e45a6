#!/usr/bin/env python3
"""Radial best constants by direct constrained minimization.

The energy 0.5 |grad w|^2 + (p+1)^(-1) |w|_(p+1,gamma)^(p+1) is minimized
at fixed weighted L^(2p) mass over positive profiles whose log is linear in
log s on each cell of a geometric grid, by damped Newton steps on a
coarse-to-fine ladder of grids, from a warm start (the optimizer) and from a
cold Gaussian start.  Both reach the same minimum, which matches the
closed-form quotient of the explicit profile from above, and the energy
constant obeys the dilation relation J = kappa C*^(-2 p theta).
"""

import time

from cknlab import validate
from cknlab.minimizer import best_constant_radial, minimize_radial

for d, g, p in [(3, 0.0, 2.0), (3, 0.5, 2.0)]:
    pp = validate(d, g, p)
    c_star, J_closed = best_constant_radial(pp)
    print(f"== (d={d}, gamma={g}, p={p}) ==")
    print(f"  closed-form radial constant C* = {c_star:.10f}")
    print(f"  closed-form energy constant J = {J_closed:.10f}")
    for start in ("warm", "cold"):
        t0 = time.time()
        rep = minimize_radial(pp, 1024, start=start)
        dt = time.time() - t0
        rel_q = (rep.best_quotient - 1.0 / c_star) * c_star
        rel_j = abs(rep.J - J_closed) / J_closed
        print(f"  {start:4s} start: quotient rel excess {rel_q:.1e}, "
              f"J rel err {rel_j:.1e}, iterations {rep.iterations}, "
              f"Richardson est {rep.err_estimate:.1e}, {dt:.3f}s")
        print(f"             dilation balance at the minimizer: "
              f"{rep.dilation_balance:+.1e}")

print("== the discrete quotient bounds 1/C* from above ==")
for d, g, p in [(3, 0.0, 1.02), (3, 0.5, 1.45), (6, 1.9, 1.0175)]:
    pp = validate(d, g, p)
    c_star, _ = best_constant_radial(pp)
    rep = minimize_radial(pp, 1024)
    print(f"  (d={d}, gamma={g}, p={p}): best_quotient C* - 1 = "
          f"{rep.best_quotient * c_star - 1.0:.2e}")
