"""Fixed-step integrator for the delayed equation with dense output.

The equation y'' = -q(x) y(x - Delta(x)) - lambda y is integrated on one
subinterval at a time with the classical fourth-order one-step scheme.  A
cubic Hermite interpolant per step provides the C1 dense output required by
the retarded term: the delayed argument never exceeds the current x, so the
value is read from the part of the segment already built.

Every step has one form.  The retarded term g at its three stages is one
gather, multiply and sum over cubic Hermite stencils on two rows of the
solution built so far (the current state is the stencil with weight 1 on the
newest row; a delayed argument inside the step extrapolates the last
completed step), and the new state is a second contraction,
(Y, Y')[i+1] = sum_k C[:, k] (y, y', g0, g1, g2)[k], with C the scheme
coefficients of each lambda.  Only the first step has no completed step
before it; its stages are peeled off the loop and read a Taylor extrapolant
of the initial data.  With q = 0 the stages stay zero and the stencil is
skipped.  Second derivatives, needed only for dense output, are computed
after the sweep from the node-stage stencils.

Every coefficient sample and stencil is independent of lambda, so they are
computed once per problem and the integration runs vectorized over a batch
of lambda values -- eigenvalue scans and bracket refinements pay for one
sweep per round instead of one per lambda.  A batch is swept in slices as
wide as ``SWEEP_BYTES`` (64 MiB) allows for the (2, steps+1, width) state
array: 1023 columns at the default 4096 steps.  Each column sees the same
operations in the same order, so a lambda gives bit-identical results
alone, in any batch and under any split.

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
# bytes of one sweep's (2, steps+1, width) state array; sets the batch width
# (1023 lambda columns at the default steps, 63 at 65536)
SWEEP_BYTES = 64 * 2**20


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
    half step and the step end.  ``gather[i]`` holds their (3, 4) flat row
    indices into the stacked (Y, V) array and ``weights[i]`` the matching
    Hermite weights; a lookup of the current state is the stencil
    (0, 1, 0, 0) on rows (i-1, i).  Step 0 is peeled: its half and end stages
    read the Taylor extrapolant y0 + d y0' + d^2/2 y0'' at distance
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

    def sweep(self, lam: np.ndarray, y0, v0) -> np.ndarray:
        """Integrate the batch; returns the stacked (Y, V) array of shape
        (2, steps+1, m).  A state that overflows raises NonFiniteStateError
        naming the first lambda column to go non-finite, and where."""
        z = np.asarray(lam, dtype=float)
        m = z.shape[0]
        n = self.steps
        h = self.h
        h2 = h * h
        # (Y, V)[i+1] = sum_k C[:, k] * (y, v, g0, g1, g2)[k]
        C = np.zeros((2, 5, m))
        C[0, 0] = C[1, 1] = 1.0 - 0.5 * h2 * z + (h2 * h2 / 24.0) * z * z
        C[0, 1] = h * (1.0 - (h2 / 6.0) * z)
        C[1, 0] = -z * C[0, 1]
        C[0, 2] = h2 / 6.0 - (h2 * h2 / 24.0) * z
        C[0, 3] = h2 / 3.0
        C[1, 2] = (h / 6.0) * (1.0 - 0.5 * h2 * z)
        C[1, 3] = 2.0 * h / 3.0 - (h2 * h / 12.0) * z
        C[1, 4] = h / 6.0

        YV = np.empty((2, n + 1, m))
        rows = YV.reshape(2 * (n + 1), m)
        u = np.zeros((5, m))
        yv, g = u[:2], u[2:]
        yv[0] = y0
        yv[1] = v0
        YV[:, 0] = yv
        # with q = 0 every stage is zero: the stencil is skipped and the
        # contraction stops after (y, v)
        stages = not self.q_zero
        Ck, uk = (C, u) if stages else (C[:, :2], yv)
        with np.errstate(over="ignore", invalid="ignore"):
            if stages:
                # peeled step 0: the node stage is the initial state, the
                # others read its Taylor extrapolant
                nq = self.negq[0]
                g[0] = nq[0] * yv[0]
                a0 = g[0] - z * yv[0]
                g[1:] = nq[1:] * (yv[0] + self.first_d * yv[1]
                                  + (0.5 * self.first_d * self.first_d) * a0)
            for i in range(n):
                if i and stages:
                    (rows.take(self.gather[i], axis=0) * self.weights[i]).sum(axis=1, out=g)
                    g *= self.negq[i]
                (Ck * uk).sum(axis=1, out=yv)
                YV[:, i + 1] = yv
        # one channel at a time keeps the temporary at (steps+1, m) booleans
        if not all(np.isfinite(channel).all() for channel in YV):
            bad = ~np.isfinite(YV).all(axis=0)
            row = int(np.argmax(bad.any(axis=1)))
            col = int(np.argmax(bad[row]))
            raise NonFiniteStateError(f"state became non-finite near x = {self.nodes[row]:.6g} "
                                      f"(lambda = {float(z[col])!r})")
        return YV

    def second_derivs(self, lam: np.ndarray, YV: np.ndarray) -> np.ndarray:
        """y'' = -q y(x - Delta) - lambda y at every node of a finished
        sweep, shape (steps+1, m).  The node-stage stencil terms are added
        one at a time in the order the sweep sums them, so the values are
        the ones the sweep used and no temporary exceeds (steps+1, m)."""
        rows = YV.reshape(-1, YV.shape[-1])
        idx = self.gather[:, 0]
        w = self.weights[:, 0]
        acc = rows[idx[:, 0]] * w[:, 0]
        for k in range(1, 4):
            acc += rows[idx[:, k]] * w[:, k]
        return self.negq[:, 0] * acc - np.asarray(lam, dtype=float) * YV[0]


@lru_cache(maxsize=32)
def _tables(q_expr: Expr, delta_expr: Expr, a: float, b: float, steps: int) -> _SegmentTables:
    return _SegmentTables(q_expr, delta_expr, a, b, steps)


def _left_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_left, spec.retard_left, 0.0, HALF, steps)


def _right_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_right, spec.retard_right, HALF, math.pi, steps)


def _segments(tables: _SegmentTables, lams: np.ndarray, YV: np.ndarray) -> list[SolutionSegment]:
    A = tables.second_derivs(lams, YV)
    return [SolutionSegment(a=tables.a, b=tables.b, lam=float(lam), nodes=tables.nodes,
                            values=np.ascontiguousarray(YV[0, :, k]),
                            derivs=np.ascontiguousarray(YV[1, :, k]),
                            second_derivs=np.ascontiguousarray(A[:, k]))
            for k, lam in enumerate(lams)]


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
    return _segments(tabs, lam_arr, tabs.sweep(lam_arr, float(y0), float(dy0)))[0]


def _shoot_chunks(spec: ProblemSpec, lams: np.ndarray, steps: int):
    """The sweep driver behind every shooting call.

    The left segment starts from y(0) = sin(alpha), y'(0) = -cos(alpha); the
    right segment continues from the transmission mapping
    y(pi/2+) = lambda^(-1/3) delta^(-1) y(pi/2-) (and likewise for y').
    Lambda values are swept in slices as wide as ``SWEEP_BYTES`` allows for
    one (2, steps+1, width) state array.  Yields (cols, left, right) for
    each slice ``cols``, where left and right are (tables, YV).
    """
    if np.any(lams <= 0.0):
        raise ValueError("lambda must be positive")
    lt = _left_tables(spec, steps)
    rt = _right_tables(spec, steps)
    width = max(1, SWEEP_BYTES // (2 * (steps + 1) * 8))
    for start in range(0, lams.shape[0], width):
        cols = slice(start, start + width)
        z = lams[cols]
        left = lt.sweep(z, math.sin(spec.alpha), -math.cos(spec.alpha))
        scale = 1.0 / (lam_cbrt(z) * spec.coupling)
        right = rt.sweep(z, scale * left[0, -1], scale * left[1, -1])
        yield cols, (lt, left), (rt, right)


def shoot_many(spec: ProblemSpec, lams, steps_per_segment: int = DEFAULT_STEPS) -> list[ShootingResult]:
    """Shooting solutions for a batch of positive lambda values."""
    lams = np.asarray(lams, dtype=float)
    out: list[ShootingResult] = []
    for cols, (lt, left), (rt, right) in _shoot_chunks(spec, lams, steps_per_segment):
        z = lams[cols]
        out += [ShootingResult(left=l, right=r, lam=float(lam))
                for l, r, lam in zip(_segments(lt, z, left), _segments(rt, z, right), z)]
    return out


def shoot(spec: ProblemSpec, lam: float, steps_per_segment: int = DEFAULT_STEPS) -> ShootingResult:
    """Shooting solution at a single positive lambda."""
    return shoot_many(spec, [lam], steps_per_segment)[0]


def shoot_endpoints(spec: ProblemSpec, lams, steps_per_segment: int = DEFAULT_STEPS):
    """Values (w(pi), w'(pi)) of the shooting solution for a lambda batch.

    Skips segment construction entirely; this is the fast path behind
    characteristic-function scans.
    """
    lams = np.asarray(lams, dtype=float)
    ends = np.empty((2, lams.shape[0]))
    for cols, _, (_, right) in _shoot_chunks(spec, lams, steps_per_segment):
        ends[:, cols] = right[:, -1]
    return ends[0], ends[1]
