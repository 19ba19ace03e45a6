#!/usr/bin/env python3
"""The explicit Barenblatt-type optimizers and their weighted norms.

The radial optimizer of the weighted interpolation inequality is explicit:
w(r) = (a/(b + r^(2-gamma)))^(1/(p-1)).  This script samples it, verifies
that it solves the radial optimality equation to machine precision, compares
weighted norms against their Beta-function closed forms, and demonstrates
the scale and dilation invariance of the quotient.
"""

import math

import numpy as np
from scipy.special import betaln

from cknlab import (el_residual, gradient_norm, quotient, validate,
                    w_gamma_star, w_star, weighted_norm)
from cknlab.quadrature import sphere_area

pp = validate(3, 0.5, 2.0)
w = w_gamma_star(pp)

print("== profile values ==")
print(f"  peak value w(0) = {w(0.0):.6f}")
for r in (0.5, 1.0, 4.0):
    print(f"  w({r}) = {float(w(r)):.6f}")

print("\n== optimality equation residual (analytic derivatives) ==")
print(f"  sup residual = {el_residual(w, pp):.2e}")
print(f"  for comparison, the unrescaled profile: "
      f"{el_residual(w_star(pp), pp):.2e}")

print("\n== weighted norms vs Beta closed forms ==")


def beta_oracle(mu, b, c, q):
    nu = mu / c
    return b ** (nu - q) * math.exp(betaln(nu, q - nu)) / c


area = sphere_area(pp.d)
amp = math.exp(w.log_peak) * w.b**w.k  # w = amp (b + r^c)^(-k)
for q in (2.0 * pp.p, pp.p + 1.0):
    got = weighted_norm(w, q, pp.gamma, pp)
    exact = (area * amp**q *
             beta_oracle(pp.d - pp.gamma, w.b, w.c, q * w.k)) ** (1.0 / q)
    print(f"  |w|_{q:.1f} quadrature {got:.12f}  closed {exact:.12f}  "
          f"rel {abs(got - exact) / exact:.1e}")
print(f"  gradient norm = {gradient_norm(w, pp):.12f}")

print("\n== quotient invariances ==")
q0 = quotient(w, pp)
print(f"  Q[w] = {q0:.12f}")
for lam in (0.5, 2.0):
    print(f"  Q[w(lam r)], lam={lam}: rel change "
          f"{abs(quotient(w.scaled(1.0, lam), pp) - q0) / q0:.1e}")
print(f"  Q[2.3 w]: rel change "
      f"{abs(quotient(w.scaled(2.3, 1.0), pp) - q0) / q0:.1e}")

print("\n== export round trip ==")
prof = w.sample()
text = prof.to_json()
from cknlab import RadialProfile
back = RadialProfile.from_json(text)
print(f"  JSON round trip bit-exact: "
      f"{np.array_equal(back.values, prof.values)}")
