"""Fixed-step integrator for the delayed equation with dense output.

The equation y'' = -q(x) y(x - Delta(x)) - lambda y is integrated on one
subinterval at a time with the classical fourth-order one-step scheme.  A
cubic Hermite interpolant per step provides the C1 dense output required by
the retarded term: the delayed argument never exceeds the current x, so the
value is read from the part of the segment already built.

Every delayed lookup has one form, a cubic Hermite stencil on two rows of
the solution built so far.  Reading the current state is the stencil that
puts weight 1 on the newest row; a delayed argument inside the step being
computed (Delta smaller than the step size) uses the extrapolating stencil
of the last completed step.  Only the first step has no completed step
before it, so it is peeled off the loop and reads a Taylor extrapolant of
the initial data instead.

Because the grid is fixed, every coefficient sample and every stencil is
independent of lambda.  They are computed once per problem and reused, and
the integration itself runs vectorized over a whole batch of lambda values
at once -- eigenvalue scans and bracket refinements pay for one sweep per
round instead of one per lambda.  Each column of a batch sees the same
operations in the same order, so a lambda gives bit-identical results alone
or in any batch.

Only lambda > 0 is addressed; the transmission scaling uses the real cube
root of lambda, computed as exp(log(lambda)/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exprlang import Expr
from .problem import HALF, ProblemSpec
from .quadrature import hermite

__all__ = [
    "SolutionSegment",
    "ShootingResult",
    "NonFiniteStateError",
    "DelayRangeError",
    "integrate_segment",
    "shoot",
    "shoot_many",
    "shoot_endpoints",
    "lam_cbrt",
]

DEFAULT_STEPS = 4096
# batch width per sweep; bounds transient memory at ~70 MB for default steps
DEFAULT_CHUNK = 1024


class NonFiniteStateError(RuntimeError):
    """Integration state overflowed to a non-finite value."""


class DelayRangeError(ValueError):
    """A delayed argument left the admissible range [a, x]."""


def lam_cbrt(lam):
    """Real cube root of a positive spectral parameter."""
    return np.exp(np.log(lam) / 3.0)


@dataclass(frozen=True)
class SolutionSegment:
    """Dense-output solution of one subinterval at a fixed lambda.

    Stores node values of y, y' and y''; evaluation between nodes is cubic
    Hermite in each channel (y from (values, derivs), y' from
    (derivs, second_derivs)), so both are C1 on [a, b] and reproduce the
    stored node data exactly.
    """

    a: float
    b: float
    lam: float
    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    second_derivs: np.ndarray

    def _hermite(self, x, f, df):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.a - 1e-12) or np.any(x > self.b + 1e-12):
            raise ValueError(f"evaluation outside [{self.a}, {self.b}]")
        return hermite(self.nodes, f, df, x)

    def eval(self, x):
        """Value of the solution at x (scalar or array)."""
        return self._hermite(x, self.values, self.derivs)

    def eval_deriv(self, x):
        """Derivative of the solution at x (scalar or array)."""
        return self._hermite(x, self.derivs, self.second_derivs)


@dataclass(frozen=True)
class ShootingResult:
    """The two matched segments built from the initial conditions at 0 and
    the transmission mapping at pi/2."""

    left: SolutionSegment
    right: SolutionSegment
    lam: float


# stencil term k reads row (j + _ROW_OFFSET[k]) of channel _CHANNEL[k] of
# the stacked (Y, V) array: y(xi) = w0 Y[j] + w1 Y[j+1] + w2 V[j] + w3 V[j+1]
_CHANNEL = np.array([0, 0, 1, 1])
_ROW_OFFSET = np.array([0, 1, 0, 1])


class _SegmentTables:
    """All lambda-independent data for integrating one subinterval.

    Step i evaluates the retarded term at three stages: the node x_i, the
    half step and the step end.  Every stage reads y(x - Delta(x)) through a
    cubic Hermite stencil on rows j, j+1 <= i of the part already built;
    ``gather[i]`` holds the (3, 4) flat row indices into the stacked (Y, V)
    array and ``weights[i]`` the matching weights, so one step is a single
    gather, multiply and sum.  A lookup of the current state is the stencil
    (0, 1, 0, 0) on rows (i-1, i); a delayed argument inside step i (Delta
    below the step size) extrapolates the cubic of step i-1.  Step 0 has no
    previous step and is peeled: its half and end stages read the Taylor
    extrapolant y0 + d y0' + d^2/2 y0'' of the initial data at distance
    ``first_d`` (0 where the stage reads the current state).  Row n holds
    the node stage that gives y'' at the last node.
    """

    def __init__(self, q_expr: Expr, delta_expr: Expr, a: float, b: float, steps: int):
        if steps < 2:
            raise ValueError("need at least 2 steps per segment")
        self.a = float(a)
        self.b = float(b)
        self.steps = n = int(steps)
        self.h = h = (self.b - self.a) / n
        self.nodes = np.linspace(self.a, self.b, n + 1)
        t_half = self.nodes[:-1] + 0.5 * h

        q_node = np.asarray(q_expr.eval(self.nodes), dtype=float)
        q_half = np.asarray(q_expr.eval(t_half), dtype=float)
        self.q_zero = bool(np.all(q_node == 0.0) and np.all(q_half == 0.0))

        d_node = np.asarray(delta_expr.eval(self.nodes), dtype=float)
        d_half = np.asarray(delta_expr.eval(t_half), dtype=float)
        if np.any(d_node < -1e-12) or np.any(d_half < -1e-12):
            raise DelayRangeError("negative retardation encountered")

        # stages (node, half, end) of steps 0..n; the half and end slots of
        # row n are never read and are filled with current-state lookups
        ctx = np.arange(n + 1)[:, None]
        x_ctx = self.a + ctx * h
        xi = np.stack([self.nodes - d_node,
                       np.append(t_half - d_half, x_ctx[-1]),
                       np.append(self.nodes[1:] - d_node[1:], x_ctx[-1])], axis=1)
        self.negq = -np.stack([q_node, np.append(q_half, 0.0),
                               np.append(q_node[1:], 0.0)], axis=1)[:, :, None]
        for stage in xi.T:
            if np.any(stage < self.a - 1e-12):
                raise DelayRangeError(
                    f"delayed argument {stage.min():.12g} below segment start {self.a:.12g}")
        # fp tidy-up only; the non-negative-delay check has already run
        xi = np.minimum(np.maximum(xi, self.a), x_ctx + h)
        inside = xi > x_ctx + 1e-14
        current = ~inside & (x_ctx - xi <= 1e-14)
        t_idx = (xi - self.a) / h
        j = np.minimum(np.maximum(np.floor(t_idx).astype(np.int64), 0), n - 1)
        j = np.where(inside | current, np.maximum(ctx - 1, 0), j)
        theta = np.where(current, ctx - j, t_idx - j)
        t2 = theta * theta
        t3 = t2 * theta
        self.weights = np.stack([2.0 * t3 - 3.0 * t2 + 1.0, -2.0 * t3 + 3.0 * t2,
                                 h * (t3 - 2.0 * t2 + theta), h * (t3 - t2)],
                                axis=-1)[..., None]
        self.gather = _CHANNEL * (n + 1) + j[..., None] + _ROW_OFFSET
        self.first_d = np.where(inside[0, 1:], xi[0, 1:] - self.a, 0.0)[:, None]

    def sweep(self, lam: np.ndarray, y0: np.ndarray, v0: np.ndarray,
              keep_second: bool = False):
        """Integrate the batch; returns (Y, V, A) arrays of shape
        (steps+1, m).  A is None unless keep_second.  Overflow is allowed to
        propagate silently here; callers run the finiteness check."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._sweep(lam, y0, v0, keep_second)

    def _sweep(self, lam: np.ndarray, y0: np.ndarray, v0: np.ndarray,
               keep_second: bool):
        z = np.asarray(lam, dtype=float)
        m = z.shape[0]
        n = self.steps
        h = self.h
        h2 = h * h

        p_c = 1.0 - 0.5 * h2 * z + (h2 * h2 / 24.0) * z * z
        q_c = h * (1.0 - (h2 / 6.0) * z)
        s_c = -z * q_c
        r1 = h2 / 6.0 - (h2 * h2 / 24.0) * z
        r2 = h2 / 3.0
        t1 = (h / 6.0) * (1.0 - 0.5 * h2 * z)
        t2 = 2.0 * h / 3.0 - (h2 * h / 12.0) * z
        t3 = h / 6.0

        YV = np.zeros((2, n + 1, m))
        Y, V = YV
        A = np.zeros((n + 1, m)) if keep_second else None
        Y[0] = y0
        V[0] = v0

        if self.q_zero:
            for i in range(n):
                y = Y[i]
                v = V[i]
                Y[i + 1] = p_c * y + q_c * v
                V[i + 1] = s_c * y + p_c * v
            if keep_second:
                A[:] = -z * Y
            return Y, V, A

        rows = YV.reshape(2 * (n + 1), m)
        negq = self.negq
        # peeled step 0: the node stage is the initial state, the others
        # read its Taylor extrapolant
        g = np.empty((3, m))
        g[0] = negq[0, 0] * Y[0]
        a0 = g[0] - z * Y[0]
        g[1:] = negq[0, 1:] * (Y[0] + self.first_d * V[0]
                               + (0.5 * self.first_d * self.first_d) * a0)
        for i, (idx, w, nq) in enumerate(zip(self.gather[1:], self.weights[1:], negq[1:])):
            y = Y[i]
            v = V[i]
            if keep_second:
                A[i] = g[0] - z * y
            Y[i + 1] = p_c * y + q_c * v + r1 * g[0] + r2 * g[1]
            V[i + 1] = s_c * y + p_c * v + t1 * g[0] + t2 * g[1] + t3 * g[2]
            # stages of step i + 1, read from rows up to i + 1
            g = nq * (rows.take(idx, axis=0) * w).sum(axis=1)
        if keep_second:
            A[n] = g[0] - z * Y[n]
        return Y, V, A


@lru_cache(maxsize=32)
def _tables(q_expr: Expr, delta_expr: Expr, a: float, b: float, steps: int) -> _SegmentTables:
    return _SegmentTables(q_expr, delta_expr, a, b, steps)


def _left_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_left, spec.retard_left, 0.0, HALF, steps)


def _right_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_right, spec.retard_right, HALF, math.pi, steps)


def _check_finite(Y: np.ndarray, V: np.ndarray, tables: _SegmentTables, lam) -> None:
    ok = np.isfinite(Y).all() and np.isfinite(V).all()
    if ok:
        return
    rows = np.isfinite(Y).all(axis=1) & np.isfinite(V).all(axis=1)
    first_bad = int(np.argmin(rows))
    x_bad = tables.nodes[first_bad]
    raise NonFiniteStateError(
        f"state became non-finite near x = {x_bad:.6g} (lambda = {lam})")


def _segment_from_columns(tables: _SegmentTables, lam: float, Y, V, A, col: int) -> SolutionSegment:
    return SolutionSegment(
        a=tables.a, b=tables.b, lam=float(lam), nodes=tables.nodes,
        values=np.ascontiguousarray(Y[:, col]),
        derivs=np.ascontiguousarray(V[:, col]),
        second_derivs=np.ascontiguousarray(A[:, col]),
    )


def integrate_segment(spec: ProblemSpec, lam: float, interval, y0: float, dy0: float,
                      steps: int = DEFAULT_STEPS) -> SolutionSegment:
    """Integrate one subinterval with given initial data at its left end.

    ``interval`` must lie within [0, pi/2] or within [pi/2, pi]; the matching
    coefficient expressions of the problem are used.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval must have positive length")
    if b <= HALF + 1e-12:
        tabs = _tables(spec.q_left, spec.retard_left, a, b, steps)
    elif a >= HALF - 1e-12:
        tabs = _tables(spec.q_right, spec.retard_right, a, b, steps)
    else:
        raise ValueError("interval must not straddle the interface point pi/2")
    lam_arr = np.array([float(lam)])
    Y, V, A = tabs.sweep(lam_arr, np.array([float(y0)]), np.array([float(dy0)]),
                         keep_second=True)
    _check_finite(Y, V, tabs, lam)
    return _segment_from_columns(tabs, lam, Y, V, A, 0)


def _shoot_chunks(spec: ProblemSpec, lams: np.ndarray, steps: int, chunk: int,
                  keep_second: bool):
    """The sweep driver behind every shooting call.

    The left segment starts from y(0) = sin(alpha), y'(0) = -cos(alpha); the
    right segment continues from the transmission mapping
    y(pi/2+) = lambda^(-1/3) delta^(-1) y(pi/2-) (and likewise for y').
    Yields (cols, left, right) for each slice ``cols`` of at most ``chunk``
    lambda values, where left and right are (tables, Y, V, A).
    """
    if np.any(lams <= 0.0):
        raise ValueError("lambda must be positive")
    lt = _left_tables(spec, steps)
    rt = _right_tables(spec, steps)
    sin_a = math.sin(spec.alpha)
    cos_a = math.cos(spec.alpha)
    for start in range(0, lams.shape[0], chunk):
        cols = slice(start, start + chunk)
        z = lams[cols]
        m = z.shape[0]
        Yl, Vl, Al = lt.sweep(z, np.full(m, sin_a), np.full(m, -cos_a), keep_second)
        _check_finite(Yl, Vl, lt, z)
        scale = 1.0 / (lam_cbrt(z) * spec.coupling)
        Yr, Vr, Ar = rt.sweep(z, scale * Yl[-1], scale * Vl[-1], keep_second)
        _check_finite(Yr, Vr, rt, z)
        yield cols, (lt, Yl, Vl, Al), (rt, Yr, Vr, Ar)


def shoot_many(spec: ProblemSpec, lams, steps_per_segment: int = DEFAULT_STEPS,
               chunk: int = DEFAULT_CHUNK) -> list[ShootingResult]:
    """Shooting solutions for a batch of positive lambda values."""
    lams = np.asarray(lams, dtype=float)
    out: list[ShootingResult] = []
    for cols, (lt, Yl, Vl, Al), (rt, Yr, Vr, Ar) in _shoot_chunks(
            spec, lams, steps_per_segment, chunk, keep_second=True):
        for k, lam in enumerate(lams[cols]):
            out.append(ShootingResult(
                left=_segment_from_columns(lt, lam, Yl, Vl, Al, k),
                right=_segment_from_columns(rt, lam, Yr, Vr, Ar, k),
                lam=float(lam),
            ))
    return out


def shoot(spec: ProblemSpec, lam: float, steps_per_segment: int = DEFAULT_STEPS) -> ShootingResult:
    """Shooting solution at a single positive lambda."""
    return shoot_many(spec, [lam], steps_per_segment)[0]


def shoot_endpoints(spec: ProblemSpec, lams, steps_per_segment: int = DEFAULT_STEPS,
                    chunk: int = DEFAULT_CHUNK):
    """Values (w(pi), w'(pi)) of the shooting solution for a lambda batch.

    Skips segment construction entirely; this is the fast path behind
    characteristic-function scans.
    """
    lams = np.asarray(lams, dtype=float)
    w = np.empty(lams.shape[0])
    wp = np.empty(lams.shape[0])
    for cols, _, (_, Yr, Vr, _) in _shoot_chunks(spec, lams, steps_per_segment, chunk,
                                                 keep_second=False):
        w[cols] = Yr[-1]
        wp[cols] = Vr[-1]
    return w, wp
