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

One solver serves both sides; ``picard_w1`` and ``picard_w2`` differ only
in the coefficients of their kernel-free terms.  q and Delta come from
``problem.segment_samples`` on the oracle's grid, so the oracle raises the
``DelayRangeError`` that ``validate`` reports at that grid, half steps
included, rather than reading a delayed argument outside the segment.

All integrals use composite Simpson on a uniform grid; delayed values are
read from the current iterate by linear interpolation, which is plenty for
the ~1e-6 agreement the oracle is meant to certify.
"""

from __future__ import annotations

import math

import numpy as np

from .dde_solver import SolutionSegment, lam_cbrt
from .problem import HALF, ProblemSpec, q_norms, segment_samples
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


class PicardSegment(SolutionSegment):
    """Solution segment produced by the fixed-point iteration, annotated
    with the iteration count and the final sup-norm change."""

    iterations: int = 0
    residual: float = 0.0


def _segment(spec, lam, side, free_coef, grid_points, max_iters, tol):
    """One side's Volterra equation, ``side`` "left" or "right", solved by
    fixed-point iteration once s = sqrt(lambda) is above that side's q norm.

    The kernel-free term is ``c cos(s t) + d sin(s t)`` and its derivative
    ``e sin(s t) + f cos(s t)``, t = x - a, for ``free_coef`` = (c, d, e, f).
    The kernel integral splits into sin(s x)/cos(s x) cumulative parts (the
    kernel depends on x - tau only), so each sweep costs one pass over the
    grid.  The pass that finds the change below ``tol`` also gives the
    derivative channel and y'' of the converged iterate.
    """
    q_expr, delta_expr, a, b, norm_name = (
        (spec.q_left, spec.retard_left, 0.0, HALF, "q1") if side == "left"
        else (spec.q_right, spec.retard_right, HALF, math.pi, "q2"))
    s = math.sqrt(lam)
    norm = getattr(q_norms(spec), norm_name)
    if s <= norm:
        raise ContractionError(f"need s > {norm_name} for the {side} oracle "
                               f"(s = {s:.6g}, {norm_name} = {norm:.6g})")
    samples = segment_samples(q_expr, delta_expr, a, b, odd_point_count(grid_points) - 1)
    if samples.error is not None:
        # the samples are cached and shared: raise their error afresh
        raise samples.error.with_traceback(None)
    xs = samples.nodes
    h = float(xs[1] - xs[0])
    q_vals, xi = samples.q[0], xs - samples.delta[0]
    sin_sx, cos_sx = np.sin(s * xs), np.cos(s * xs)
    sin_st, cos_st = np.sin(s * (xs - a)), np.cos(s * (xs - a))
    c, d, e, f = free_coef
    w = free = c * cos_st + d * sin_st
    residual = math.inf
    for iterations in range(max_iters + 1):
        g = q_vals * np.interp(xi, xs, w)
        ic = cumulative_simpson(g * cos_sx, h)
        is_ = cumulative_simpson(g * sin_sx, h)
        if residual < tol:
            break
        if iterations == max_iters:
            raise PicardDivergedError(max_iters, residual)
        w_next = free - (sin_sx * ic - cos_sx * is_) / s
        residual = float(np.max(np.abs(w_next - w)))
        w = w_next
    return PicardSegment(a=a, b=b, lam=float(lam), nodes=xs, values=w,
                         derivs=e * sin_st + f * cos_st - (cos_sx * ic + sin_sx * is_),
                         second_derivs=-g - lam * w,
                         iterations=iterations, residual=residual)


def picard_w1(spec: ProblemSpec, lam: float, grid_points: int = DEFAULT_GRID,
              max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL) -> PicardSegment:
    """Left-interval solution from its Volterra equation.

    Requires s = sqrt(lambda) > q1 so the iteration contracts.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
    s = math.sqrt(lam)
    sin_a, cos_a = math.sin(spec.alpha), math.cos(spec.alpha)
    return _segment(spec, lam, "left", (sin_a, -(cos_a / s), -s * sin_a, -cos_a),
                    grid_points, max_iters, tol)


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
    s23 = lam_cbrt(lam)           # s^(2/3) for s = sqrt(lambda)
    w1_half, w1p_half = w1.eval(HALF), w1.eval_deriv(HALF)
    coupling = spec.coupling
    return _segment(spec, lam, "right",
                    (w1_half / (s23 * coupling), w1p_half / (s * s23 * coupling),
                     -(s / s23) * (w1_half / coupling), w1p_half / (s23 * coupling)),
                    grid_points, max_iters, tol)
