"""Compare a computed eigenfunction with its asymptotic shapes.

The eigenfunction is essentially cos(n x) on the left of the interface and
drops to an n^(-2/3)/delta multiple of it on the right, because the
transmission condition carries the factor lambda^(1/3) delta.  The refined
form corrects the cosine with the retardation integrals K and L and is an
order better than the leading form.
"""

import math

import numpy as np

from delaybvp.asymptotics import predict_eigenfunction
from delaybvp.dde_solver import shoot
from delaybvp.problem import ProblemSpec
from delaybvp.spectral import localize_near_n

PI = math.pi
PI2 = PI / 2

spec = ProblemSpec.from_strings(
    "sin(x)", "cos(x)", "0.5*x*(pi/2 - x)", "(x - pi/2)*(pi - x)*0.25",
    PI2, PI2, 1.0)

n = 12
pair = localize_near_n(spec, n)
print(f"eigenvalue near n = {n}: s_n = {pair.s:.9f}, lambda_n = {pair.lam:.6f}")
# the eigenfunction is the shooting solution at the eigenvalue
eigfn = shoot(spec, pair.lam)

xs_left = np.linspace(0.0, PI2, 256, endpoint=False)
xs_right = np.linspace(PI2, PI, 257)[1:]

u_left = eigfn.left.eval(xs_left)
u_right = eigfn.right.eval(xs_right)

for order in ("leading", "refined"):
    pl = predict_eigenfunction(spec, n, xs_left, order)
    pr = predict_eigenfunction(spec, n, xs_right, order)
    print(f"{order:>8}: sup error left {np.max(np.abs(u_left - pl)):.3e}, "
          f"right {np.max(np.abs(u_right - pr)):.3e}")

ratio = np.max(np.abs(u_right)) / np.max(np.abs(u_left))
print(f"\namplitude drop across the interface: {ratio:.5f} "
      f"(prediction n^(-2/3)/delta = {n ** (-2.0 / 3.0):.5f})")

print("\nprofile samples (x, computed, leading form):")
for x in (0.0, 0.5, 1.0, 1.5, 1.8, 2.4, 3.0):
    seg = eigfn.left if x < PI2 else eigfn.right
    print(f"  x = {x:1.2f}: u = {seg.eval(x):+.6f}, "
          f"cos-form = {predict_eigenfunction(spec, n, x):+.6f}")
