"""Locate eigenvalues and compare them with the closed-form asymptotics.

For each index n the solver brackets the unique root s_n in the unit window
around n and refines it.  The first-order prediction

    s_n ~ n + (cot(beta) - cot(alpha) - L(pi, n)) / (n pi)

uses only quadrature of the problem data (L is the retardation cosine
integral), no shooting.  The residual between the two should shrink like
1/n^2, which the log-log slope at the end confirms.
"""

import math

import numpy as np

from delaybvp.asymptotics import predict_s_many
from delaybvp.problem import ProblemSpec
from delaybvp.spectral import localize_range

PI2 = math.pi / 2

spec = ProblemSpec.from_strings(
    "sin(x)", "cos(x)", "0.5*x*(pi/2 - x)", "(x - pi/2)*(pi - x)*0.25",
    PI2, PI2, 1.0)

indices = range(5, 31)
pairs = localize_range(spec, indices)
estimates = predict_s_many(spec, indices)

print(f"{'n':>3} {'s_n (computed)':>18} {'s_n (predicted)':>18} {'residual':>12}")
residuals = []
for pair, est in zip(pairs, estimates):
    res = abs(pair.s - est.s_refined)
    residuals.append(res)
    print(f"{pair.index:>3} {pair.s:>18.12f} {est.s_refined:>18.12f} {res:>12.3e}")

ns = np.array([p.index for p in pairs], dtype=float)
slope = np.polyfit(np.log(ns), np.log(residuals), 1)[0]
print(f"\nlog-log slope of the residual: {slope:.2f}  (the prediction claims -2)")
