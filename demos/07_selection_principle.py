#!/usr/bin/env python3
"""Why the centered optimizer is selected: the log-convolution picture.

The kernel K(r) built from the unweighted optimizer is positive inside a
unique crossing radius and negative outside, yet integrates to a positive
multiple of the mass.  Convolving it with log|x + y| gives a radial function
of the translation |y| whose derivative is a positive integral against the
decreasing angular kernel ell, so the minimum sits at y = 0 and nowhere
else: translations cost energy at first order in the weight exponent.
"""

import math

from cknlab.selection import (F_selection, G_prime, G_prime_lower_bound,
                              K_profile, SelectionContext, ell, m3_closed, m_d,
                              total_K_integral)

ctx = SelectionContext(3, 2.0)
K = K_profile(ctx)

print("== the kernel K ==")
print(f"  K(0) = {K(0.0):.6f} (positive)")
print(f"  crossing radius R = {ctx.crossing_radius:.12f}")
val, closed = total_K_integral(ctx)
print(f"  total integral: quadrature {val:.10f}, closed form {closed:.10f}")
print(f"  (equals mass/12 here: {ctx.mass / 12.0:.10f})")

print("\n== the angular kernel ell ==")
for s in (0.0, 0.25, 1.0, 4.0, 100.0):
    print(f"  ell({s:6.2f}) = {ell(s, 3):.8f}")
print("  antisymmetric part at s = 1/4 (arctanh form vs hypergeometric form):")
print(f"    {m3_closed(0.25):.12f} vs {m_d(0.25, 3):.12f}")

print("\n== derivative of the log-convolution ==")
for t in (0.1, 1.0, 10.0):
    gp = G_prime(t, ctx)
    lb = G_prime_lower_bound(t, ctx)
    print(f"  G'({t:5.1f}) = {gp:.6f} >= lower bound {lb:.6f}")
print(f"  small-argument limit G'(1e-4) = {G_prime(1e-4, ctx):.6f} "
      f"(finite and positive)")

print("\n== the translation cost F(|y|) ==")
ys = [0.0, 0.5, 1.0, 2.0]
Fs = [F_selection(y, ctx) for y in ys]
for y, F in zip(ys, Fs):
    print(f"  F({y:3.1f}) = {F:+.6f}")
print(f"  strictly increasing: {all(a < b for a, b in zip(Fs, Fs[1:]))}")
ratio = F_selection(40.0, ctx) / math.log(40.0)
print(f"  large-|y| slope F/log|y| at |y|=40: {ratio:.4f} "
      f"(total K integral: {val:.4f})")
