"""Independent solution oracle via Volterra fixed-point iteration.

The shooting solutions satisfy Volterra integral equations whose kernel
contracts with factor q1/s (left) and q2/s (right), s = sqrt(lambda).  This
module solves those equations by straight fixed-point iteration, seeded with
the kernel-free term (the exact solution for q = 0), and serves as a
cross-validation oracle for the time-stepping integrator: two entirely
different discretizations that must agree.

The iteration needs s above the integral norm of q to contract, so the
oracle is unavailable for small lambda.  It is also slower than the stepper;
it is a checking device, not the primary solver.

All integrals use composite Simpson on a uniform grid; delayed values are
read from the current iterate by linear interpolation, which is plenty for
the ~1e-6 agreement the oracle is meant to certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dde_solver import SolutionSegment, lam_cbrt
from .problem import HALF, ProblemSpec, q_norms
from .quadrature import cumulative_simpson, odd_point_count

__all__ = ["PicardSegment", "ContractionError", "PicardDivergedError",
           "picard_w1", "picard_w2"]

# the linear delayed-value interpolation carries an O(h^2 lambda) error, so
# the grid must stay fine enough for ~1e-6 agreement up to s = 25
DEFAULT_GRID = 8193
DEFAULT_MAX_ITERS = 200
DEFAULT_TOL = 1e-10


class ContractionError(ValueError):
    """s = sqrt(lambda) is not above the contraction threshold."""


class PicardDivergedError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last sup-norm change {residual:.3e})")


@dataclass(frozen=True)
class PicardSegment(SolutionSegment):
    """Solution segment produced by the fixed-point iteration, annotated
    with the iteration count and the final sup-norm change."""

    iterations: int = 0
    residual: float = 0.0


def _iterate(xs, h, s, q_vals, xi, free, free_deriv, lam, max_iters, tol):
    """Run the fixed-point loop; returns (w, w', iterations, residual).

    free/free_deriv are the kernel-free terms of the value and derivative
    channels; xi are the delayed arguments for the grid nodes.  The kernel
    integral splits into sin/cos cumulative parts so each sweep costs one
    pass over the grid.
    """
    sin_sx = np.sin(s * xs)
    cos_sx = np.cos(s * xs)
    w = free.copy()
    iterations = 0
    residual = math.inf
    for iterations in range(1, max_iters + 1):
        g = q_vals * np.interp(xi, xs, w)
        ic = cumulative_simpson(g * cos_sx, h)
        is_ = cumulative_simpson(g * sin_sx, h)
        w_next = free - (sin_sx * ic - cos_sx * is_) / s
        residual = float(np.max(np.abs(w_next - w)))
        w = w_next
        if residual < tol:
            break
    else:
        raise PicardDivergedError(max_iters, residual)
    # derivative channel from the converged iterate
    g = q_vals * np.interp(xi, xs, w)
    ic = cumulative_simpson(g * cos_sx, h)
    is_ = cumulative_simpson(g * sin_sx, h)
    wp = free_deriv - (cos_sx * ic + sin_sx * is_)
    wpp = -q_vals * np.interp(xi, xs, w) - lam * w
    return w, wp, wpp, iterations, residual


def picard_w1(spec: ProblemSpec, lam: float, grid_points: int = DEFAULT_GRID,
              max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL) -> PicardSegment:
    """Left-interval solution from its Volterra equation.

    Requires s = sqrt(lambda) > q1 so the iteration contracts.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
    s = math.sqrt(lam)
    q1 = q_norms(spec).q1
    if s <= q1:
        raise ContractionError(f"need s > q1 for the left oracle (s = {s:.6g}, q1 = {q1:.6g})")
    n = odd_point_count(grid_points)
    xs = np.linspace(0.0, HALF, n)
    h = float(xs[1] - xs[0])
    q_vals = np.asarray(spec.q_left.eval(xs), dtype=float)
    delta = np.asarray(spec.retard_left.eval(xs), dtype=float)
    xi = np.clip(xs - delta, 0.0, HALF)

    sin_a = math.sin(spec.alpha)
    cos_a = math.cos(spec.alpha)
    free = sin_a * np.cos(s * xs) - (cos_a / s) * np.sin(s * xs)
    free_deriv = -s * sin_a * np.sin(s * xs) - cos_a * np.cos(s * xs)
    w, wp, wpp, iterations, residual = _iterate(
        xs, h, s, q_vals, xi, free, free_deriv, lam, max_iters, tol)
    return PicardSegment(a=0.0, b=HALF, lam=float(lam), nodes=xs, values=w,
                         derivs=wp, second_derivs=wpp,
                         iterations=iterations, residual=residual)


def picard_w2(spec: ProblemSpec, lam: float, w1: SolutionSegment,
              grid_points: int = DEFAULT_GRID, max_iters: int = DEFAULT_MAX_ITERS,
              tol: float = DEFAULT_TOL) -> PicardSegment:
    """Right-interval solution from its Volterra equation.

    The kernel-free term carries the transmission scaling of the supplied
    left solution at pi/2 (same lambda).  Requires s > q2.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
    if abs(w1.lam - lam) > 1e-9 * max(1.0, abs(lam)):
        raise ValueError("w1 was computed at a different lambda")
    s = math.sqrt(lam)
    q2 = q_norms(spec).q2
    if s <= q2:
        raise ContractionError(f"need s > q2 for the right oracle (s = {s:.6g}, q2 = {q2:.6g})")
    n = odd_point_count(grid_points)
    xs = np.linspace(HALF, math.pi, n)
    h = float(xs[1] - xs[0])
    q_vals = np.asarray(spec.q_right.eval(xs), dtype=float)
    delta = np.asarray(spec.retard_right.eval(xs), dtype=float)
    xi = np.clip(xs - delta, HALF, math.pi)

    s23 = lam_cbrt(lam)           # s^(2/3) for s = sqrt(lambda)
    s53 = s * s23
    w1_half = w1.eval(HALF)
    w1p_half = w1.eval_deriv(HALF)
    phase = xs - HALF
    free = (w1_half / (s23 * spec.coupling)) * np.cos(s * phase) \
        + (w1p_half / (s53 * spec.coupling)) * np.sin(s * phase)
    free_deriv = -(s / s23) * (w1_half / spec.coupling) * np.sin(s * phase) \
        + (w1p_half / (s23 * spec.coupling)) * np.cos(s * phase)

    # the kernel split uses sin(s x)/cos(s x) factors; rebuild them relative
    # to absolute x as in the left equation (the identity holds on any
    # interval since the kernel depends on x - tau only)
    w, wp, wpp, iterations, residual = _iterate(
        xs, h, s, q_vals, xi, free, free_deriv, lam, max_iters, tol)
    return PicardSegment(a=HALF, b=math.pi, lam=float(lam), nodes=xs, values=w,
                         derivs=wp, second_derivs=wpp,
                         iterations=iterations, residual=residual)
