"""Fixed-step integrator for the delayed equation with dense output.

The equation y'' = -q(x) y(x - Delta(x)) - lambda y is integrated on one
subinterval at a time with the classical fourth-order one-step scheme.  A
cubic Hermite interpolant per step provides the C1 dense output required by
the retarded term: the delayed argument never exceeds the current x, so the
value is read from the part of the segment already built.

Every step has one form.  The retarded term g at its three stages is one
gather, multiply and sum over cubic Hermite stencils, scaled by -q, on two
rows of the solution built so far (the current state is the stencil with
weight 1 on the newest row; a delayed argument inside the step extrapolates
the last completed step), and the new state is a second contraction,
(Y, Y')[i+1] = sum_k C[:, k] (y, y', g0, g1, g2)[k], with C = [A | B] the
scheme coefficients of each lambda.  Only the first step has no completed
step before it; its stages are read from a Taylor extrapolant of the
initial data.  With q = 0 the stages stay zero and the stencil is skipped.
Second derivatives, needed only for dense output, are computed after the
sweep from the node-stage stencils.

Because the argument is retarded, long stretches of steps read only rows
that are already built: the method of steps.  The steps are partitioned
once per segment into runs, maximal stretches whose stencils read no row
past the one where the run starts (one run when q = 0, one step per run
with zero delay, 23 and 46 runs on the shipped delayed config at 4096
steps).  All stage values of a run come from one gather, and the linear
recurrence inside it has the closed form
u[b+j] = A^j (u[b] + sum_{l<j} A^-(l+1) B g[b+l]), so the sweep loops over
runs, not steps, with the powers of A built by doubling once per sweep.  A
run of one step is the step above.  Runs are cut into pieces of at most
(steps + 1) // ``PIECE_SHARE`` steps (85 at the default resolution), and
shorter where s h is so large that the inverse powers would lose more than
a bit.  Below 383 steps that cap would be under ``SHORTEST_PIECE`` steps,
where a piece saves fewer numpy calls than its partial sums and powers cost
on a wide batch, and pieces are one step.

The arrays are laid out so that every contraction sums over an axis in
front of a contiguous (piece rows, lambda columns) block: the states are
channel-major, (2, steps+1, m), the stencil tables term-major,
(4, 3, steps+1), and the per-sweep coefficients put the piece row next to
the columns, (2, 5, L, m) and (2, 2, L, m).  numpy's inner loops then run
over L m elements instead of m, so a narrow sweep costs a few numpy calls
per piece, whatever its length.

Every coefficient sample, stencil and run is independent of lambda, so they
are computed once per problem and the integration runs vectorized over a
batch of lambda values -- eigenvalue scans and bracket refinements pay for
one sweep per round instead of one per lambda.  One loop over column blocks
drives every shooting call.  A block holds lambda columns of one piece
length, as many as keep both its (2, steps+1, width) state array within
``SWEEP_BYTES`` (1023 columns at 4096 steps) and the (4, 3, L, width)
stencil gather of the longest piece of either segment within
``PIECE_BYTES`` (128 columns of 85-step pieces), so that long pieces do not
push a wide batch's temporaries out of cache.  Per block the loop sweeps
the left segment, applies the transmission and sweeps the right one,
handing each segment's states on and dropping them before the next sweep,
so it holds one block's state array at a time.  The width never sets a piece:
each column sees the same operations in the same order -- the pieces depend
on the steps and on the column's own lambda only, a block changes no
column's arithmetic, and every 2x2 product is written out elementwise -- so
a lambda gives bit-identical results alone, in any batch and in any block.

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
# bytes of one column block's (2, steps+1, width) state array: one bound on
# the block width (1023 lambda columns at the default steps, 63 at 65536)
SWEEP_BYTES = 64 * 2**20
# runs are integrated in pieces of at most (steps + 1) // PIECE_SHARE steps
# (85 at the default steps); a cap under SHORTEST_PIECE steps (below 383
# steps) saves fewer numpy calls than its partial sums and powers cost on a
# wide batch, so there pieces are one step
PIECE_SHARE = 48
SHORTEST_PIECE = 8
# bytes of a piece's (4, 3, L, width) stencil gather, its largest temporary:
# the other bound on the block width (128 columns of 85-step pieces), so that
# a wide batch keeps its temporaries in cache
PIECE_BYTES = 2**20


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


# stencil term k reads channel _CHANNEL[k] of node (j + _ROW_OFFSET[k]) of
# the (2, steps+1) state rows: y(xi) = w0 Y[j] + w1 Y[j+1] + w2 V[j] + w3 V[j+1]
_CHANNEL = np.array([0, 0, 1, 1])
_ROW_OFFSET = np.array([0, 1, 0, 1])


class _SegmentTables:
    """All lambda-independent data for integrating one subinterval.

    Step i evaluates the retarded term at three stages: the node x_i, the
    half step and the step end.  ``gather[k, s, i]`` holds the flat index of
    stencil term k of stage s into the rows of the channel-major
    (2, steps+1) states of (y, y'), channel c of node r being row
    c (steps+1) + r, and ``weights[k, s, i]`` the matching Hermite weight
    times -q at the stage (with a trailing axis for the lambda columns),
    so that g is their sum over k; a lookup of the current state is the
    Hermite stencil (0, 1, 0, 0) on rows (i-1, i).  Step 0 is peeled: its
    half and end stages read the Taylor extrapolant y0 + d y0' + d^2/2 y0''
    at distance ``first_d`` (0 where the stage reads the current state).
    Row n holds the node stage that gives y'' at the last node.

    ``run_bounds`` holds the first step of every run and, last, n.  A run
    is a maximal stretch of steps whose stencils read only rows at or
    before the row b where it starts, so all its stage values g are known
    when it begins and the scheme's recurrence u[i+1] = A u[i] + B g[i]
    (u = (y, y'), A and B fixed per lambda) has the closed form

        u[b+j] = A^j (u[b] + sum_{l<j} A^-(l+1) B g[b+l]).

    The peeled step 0 is a run of its own unless q = 0, when nothing is
    read and the segment is one run.  Any piece of a run is a run itself;
    ``pieces`` cuts them to at most ``piece_cap`` steps,
    (steps + 1) // ``PIECE_SHARE``, or one step when that is under
    ``SHORTEST_PIECE``.  ``sweep`` integrates one column block at one cap;
    the block loop of ``_shoot_blocks`` picks the blocks.
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
        ctx = np.arange(n + 1)
        x_ctx = self.a + ctx * h
        xi = np.stack([self.nodes - d_node,
                       np.append(t_half - d_half, x_ctx[-1]),
                       np.append(self.nodes[1:] - d_node[1:], x_ctx[-1])])
        self.negq = -np.stack([q_node, np.append(q_half, 0.0),
                               np.append(q_node[1:], 0.0)])[:, :, None]
        for stage in xi:
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
                                 h * (t3 - 2.0 * t2 + theta), h * (t3 - t2)])[..., None]
        self.weights *= self.negq
        self.gather = j + _ROW_OFFSET[:, None, None]
        self.gather += _CHANNEL[:, None, None] * (n + 1)
        self.first_d = np.where(inside[1:, 0], xi[1:, 0] - self.a, 0.0)[:, None]

        # newest row each step reads: row j + 1 of its stencils, never past
        # the step's own row; the peeled step 0 reads only row 0, through its
        # Taylor extrapolant, and step 1 always reads row 1, so step 0 is a
        # run of its own unless q = 0, when nothing is read
        reach = j[:, :n].max(axis=0) + 1
        reach[0] = 0
        if self.q_zero:
            reach[:] = 0
        self.run_bounds = _run_bounds(reach)
        self.piece_cap = (n + 1) // PIECE_SHARE
        if self.piece_cap < SHORTEST_PIECE:
            self.piece_cap = 1
        self._pieces: dict[int, tuple[list[tuple], int]] = {}

    def pieces(self, cap: int) -> tuple[list[tuple], int]:
        """Steps [b, e) of every run cut into pieces of at most ``cap``, as
        (b, e, gather, weights) with the stencil tables of those steps, and
        the length of the longest piece.  The tables are views, except for a
        piece of one step, whose (4, 3) tables are contiguous copies: numpy
        gathers and weights through a strided (4, 3) view about half as
        fast, and with zero delay every step is such a piece."""
        if cap not in self._pieces:
            bounds = self.run_bounds.tolist()
            cut = [(s, min(s + cap, e)) for b, e in zip(bounds[:-1], bounds[1:])
                   for s in range(b, e, cap)]
            self._pieces[cap] = ([
                (b, e) + ((self.gather[:, :, b:e], self.weights[:, :, b:e]) if e - b > 1 else
                          (self.gather[:, :, b:e].copy(), self.weights[:, :, b:e].copy()))
                for b, e in cut], max(e - b for b, e in cut))
        return self._pieces[cap]

    def piece_caps(self, lam: np.ndarray) -> np.ndarray:
        """The longest piece each lambda column is integrated in.

        A piece of L steps uses the powers A^(1-L) .. A^(L-1), which grow
        like det(A)^(-(L-1)/2) in one direction or the other; det A =
        |R(i s h)|^2 = 1 - (s h)^6/72 + (s h)^8/576 for the scheme's
        stability function R, 1 - 7e-13 at s = 50 and 4096 steps.  A
        lambda with det(A)^(-(piece_cap-1)/2) > 2 gets the longest
        power-of-two length that keeps that factor within 2, so the inverse
        powers lose at most one bit; every other lambda gets ``piece_cap``.
        """
        t = (self.h * self.h) * np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            det = 1.0 - t ** 3 / 72.0 + t ** 4 / 576.0
            longest = np.where(det < 1.0, 1.0 + math.log(4.0) / -np.log(det), np.inf)
        return np.minimum(self.piece_cap, 2.0 ** np.floor(np.log2(longest))).astype(np.int64)

    def sweep(self, z: np.ndarray, y0, v0, cap: int) -> np.ndarray:
        """The states (y, y') at every node of one column block, shape
        (2, steps+1, m), integrated in pieces of at most ``cap`` steps from
        y0 and v0, scalars or one value per column.  A state may overflow;
        the caller checks with ``_non_finite``.

        A step is u[i+1] = C (u[i], g[i]) with C = [A | B] the (2, 5) scheme
        coefficients.  A piece [b, e) contracts its inputs (u[b], g[b]),
        (0, g[b+1]), .., (0, g[e-1]) with C, A^-1 C, .., A^-(e-b-1) C, sums
        them cumulatively and multiplies partial sum l by A^l:

            u[b+1+l] = A^l (C (u[b], g[b]) + sum_{0<k<=l} A^-k B g[b+k]),

        the closed form above; a piece of one step is C (u[b], g[b]).  The
        inputs are (5, L, m), the coefficients K (2, 5, L, m) and the powers
        (2, 2, L, m), so both contractions sum over axis 1 of a product whose
        inputs broadcast over its leading axis.  The partial sums are one
        ``np.add.accumulate`` down the piece's rows.  With q = 0 the g inputs
        are zero, so only A u[b] is computed and every partial sum is that.
        The views of each piece length are built once per sweep.
        """
        m = z.shape[0]
        h = self.h
        h2 = h * h
        pieces, longest = self.pieces(cap)
        # K[c, k, l] = (A^-l C)[c, k]: the weight of input k of a piece's row
        # l in output channel c; C = K[:, :, 0] and A = C[:, :2]
        K = np.empty((2, 5, longest, m))
        C = K[:, :, 0]
        C[0, 0] = C[1, 1] = 1.0 - 0.5 * h2 * z + (h2 * h2 / 24.0) * z * z
        C[0, 1] = h * (1.0 - (h2 / 6.0) * z)
        C[1, 0] = -z * C[0, 1]
        C[0, 2] = h2 / 6.0 - (h2 * h2 / 24.0) * z
        C[0, 3] = h2 / 3.0
        C[0, 4] = 0.0
        C[1, 2] = (h / 6.0) * (1.0 - 0.5 * h2 * z)
        C[1, 3] = 2.0 * h / 3.0 - (h2 * h / 12.0) * z
        C[1, 4] = h / 6.0
        A = C[:, :2]

        YV = np.empty((2, self.steps + 1, m))
        rows = YV.reshape(-1, m)
        # inputs of the current piece; the (y, v) slots past row 0 stay zero
        u = np.zeros((5, longest, m))
        u[0, 0] = y0
        u[1, 0] = v0
        YV[:, 0] = u[:2, 0]
        # with q = 0 every stage is zero: no stencil is read, and the only
        # input of a piece is u[b], so each of its partial sums is A u[b]
        stages = not self.q_zero
        with np.errstate(over="ignore", invalid="ignore"):
            # powers[:, :, l-1] = A^l for 0 < l < longest
            powers = _powers(A, longest - 1)
            inverse = _powers(np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / (
                A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]), longest - 1)
            (inverse[:, :, None] * C[:, :, None]).sum(axis=1, out=K[:, :, 1:])
            del inverse
            # per piece length L: its stage slots, inputs and tables
            views = [None] + [(u[2:, :L], u[:, :L], K[:, :, :L], powers[:, :, :L - 1])
                              for L in range(1, longest + 1)]
            if stages:
                # peeled step 0: the node stage is the initial state, the
                # others read its Taylor extrapolant
                nq = self.negq[:, 0]
                g = u[2:, 0]
                g[0] = nq[0] * u[0, 0]
                a0 = g[0] - z * u[0, 0]
                g[1:] = nq[1:] * (u[0, 0] + self.first_d * u[1, 0]
                                  + (0.5 * self.first_d * self.first_d) * a0)
            state = u[:2, 0]
            for b, e, stencil, weights in pieces:
                L = e - b
                out = YV[:, b + 1:e + 1]
                g, inputs, coef, power = views[L]
                if stages:
                    if b:
                        state[...] = YV[:, b]
                        gather = rows.take(stencil, axis=0)
                        gather *= weights
                        np.add.reduce(gather, axis=0, out=g)
                    np.add.reduce(coef * inputs, axis=1, out=out)
                    if L > 1:
                        np.add.accumulate(out, axis=1, out=out)
                else:
                    np.add.reduce(A * YV[None, :, b], axis=1, out=out[:, 0])
                    out[:, 1:] = out[:, :1]
                if L > 1:
                    np.add.reduce(power * out[None, :, 1:], axis=1, out=out[:, 1:])
        return YV

    def second_derivs(self, lam: np.ndarray, YV: np.ndarray) -> np.ndarray:
        """y'' = -q y(x - Delta) - lambda y at every node of a finished
        sweep, shape (steps+1, m).  The node-stage stencil terms are added
        one at a time in the order the sweep sums them, so the values are
        the ones the sweep used and no temporary exceeds (steps+1, m)."""
        rows = YV.reshape(-1, YV.shape[-1])
        idx = self.gather[:, 0]
        w = self.weights[:, 0]
        acc = rows[idx[0]] * w[0]
        for k in range(1, 4):
            acc += rows[idx[k]] * w[k]
        return acc - np.asarray(lam, dtype=float) * YV[0]


def _run_bounds(reach: np.ndarray) -> np.ndarray:
    """First step of every run, then the step count, given the newest row
    ``reach[i] <= i`` that step i reads.  The run from step b ends at the
    first step that reads a row past b: one ``searchsorted`` per run on the
    running maximum of ``reach``."""
    top = np.maximum.accumulate(reach)
    bounds = [0]
    while bounds[-1] < reach.shape[0]:
        bounds.append(int(np.searchsorted(top, bounds[-1], side="right")))
    return np.array(bounds)


def _powers(A: np.ndarray, count: int) -> np.ndarray:
    """A^1 .. A^count of a batch of 2x2 matrices A of shape (2, 2, m), as
    (2, 2, count, m) with power l at [:, :, l-1].  By doubling: A^(k+i) =
    A^k A^i with k the largest power of two below k + i, so each power is
    the same product whatever ``count`` is.  The products are written out
    elementwise per column."""
    P = np.empty(A.shape[:2] + (count,) + A.shape[2:])
    if count:
        P[:, :, 0] = A
    k = 1
    while k < count:
        top = min(2 * k, count)
        (P[:, :, None, k - 1, None] * P[None, :, :, :top - k]).sum(axis=1, out=P[:, :, k:top])
        k = top
    return P


@lru_cache(maxsize=32)
def _tables(q_expr: Expr, delta_expr: Expr, a: float, b: float, steps: int) -> _SegmentTables:
    return _SegmentTables(q_expr, delta_expr, a, b, steps)


def _left_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_left, spec.retard_left, 0.0, HALF, steps)


def _right_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_right, spec.retard_right, HALF, math.pi, steps)


def _non_finite(side: int, YV: np.ndarray, cols) -> list[tuple[int, int, int]]:
    """[(side, row, batch column)] of the first non-finite state of a block
    of segment ``side`` (0 left, 1 right) by row, or [] if all are finite."""
    # one channel at a time keeps the temporary at (steps+1, width) booleans
    if all(np.isfinite(YV[k]).all() for k in (0, 1)):
        return []
    bad = ~np.isfinite(YV).all(axis=0)
    row = int(np.argmax(bad.any(axis=1)))
    return [(side, row, int(cols[np.argmax(bad[row])]))]


def _raise_first(failed: list, tables: tuple, lams: np.ndarray) -> None:
    """NonFiniteStateError naming the earliest of ``failed``: the left
    segment before the right, then by x and by batch position."""
    if failed:
        side, row, col = min(failed)
        raise NonFiniteStateError(f"state became non-finite near x = {tables[side].nodes[row]:.6g} "
                                  f"(lambda = {float(lams[col])!r})")


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
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
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
    YV = tabs.sweep(lam_arr, float(y0), float(dy0), int(tabs.piece_caps(lam_arr)[0]))
    _raise_first(_non_finite(0, YV, [0]), (tabs,), lam_arr)
    return _segments(tabs, lam_arr, YV)[0]


def _shoot_blocks(spec: ProblemSpec, lams: np.ndarray, steps: int, keep):
    """The one sweep driver: a loop over column blocks.

    The left segment starts from y(0) = sin(alpha), y'(0) = -cos(alpha); the
    right segment continues from the transmission mapping
    y(pi/2+) = lambda^(-1/3) delta^(-1) y(pi/2-) (and likewise for y').
    A block holds lambda columns of one piece cap (both segments have the
    same step, so the same caps), as many as the two byte budgets allow.
    Each segment's states go to ``keep(tables, z, states)`` as soon as they
    are swept and are then dropped; yields (cols, left, right) per block,
    with what ``keep`` returned.  A non-finite state stops the yields and
    raises after the last block, naming the batch's first such column.
    """
    if not np.all((lams > 0.0) & np.isfinite(lams)):
        raise ValueError("lambda must be positive and finite")
    lt = _left_tables(spec, steps)
    rt = _right_tables(spec, steps)
    caps = lt.piece_caps(lams)
    failed = []
    for cap in sorted(set(caps.tolist())):
        group = np.flatnonzero(caps == cap)
        longest = max(lt.pieces(cap)[1], rt.pieces(cap)[1])
        width = max(1, min(SWEEP_BYTES // (2 * 8 * (steps + 1)),
                           PIECE_BYTES // (4 * 3 * 8 * longest)))
        for cols in np.split(group, range(width, group.shape[0], width)):
            z = lams[cols]
            YV = lt.sweep(z, math.sin(spec.alpha), -math.cos(spec.alpha), cap)
            failed += _non_finite(0, YV, cols)
            left = None if failed else keep(lt, z, YV)
            scale = 1.0 / (lam_cbrt(z) * spec.coupling)
            y0, v0 = scale * YV[:, -1]
            del YV
            YV = rt.sweep(z, y0, v0, cap)
            failed += _non_finite(1, YV, cols)
            right = None if failed else keep(rt, z, YV)
            del YV
            if not failed:
                yield cols, left, right
    _raise_first(failed, (lt, rt), lams)


def shoot_many(spec: ProblemSpec, lams, steps_per_segment: int = DEFAULT_STEPS) -> list[ShootingResult]:
    """Shooting solutions for a batch of positive lambda values."""
    lams = np.asarray(lams, dtype=float)
    out: list[ShootingResult] = [None] * lams.shape[0]
    for cols, left, right in _shoot_blocks(spec, lams, steps_per_segment, _segments):
        for k, l, r in zip(cols.tolist(), left, right):
            out[k] = ShootingResult(left=l, right=r, lam=l.lam)
    return out


def shoot(spec: ProblemSpec, lam: float, steps_per_segment: int = DEFAULT_STEPS) -> ShootingResult:
    """Shooting solution at a single positive lambda."""
    return shoot_many(spec, [lam], steps_per_segment)[0]


def shoot_endpoints(spec: ProblemSpec, lams, steps_per_segment: int = DEFAULT_STEPS):
    """Values (w(pi), w'(pi)) of the shooting solution for a lambda batch.

    Skips segment construction entirely and keeps of each block only the
    last node of its right segment; this is the fast path behind
    characteristic-function scans.
    """
    lams = np.asarray(lams, dtype=float)
    ends = np.empty((2, lams.shape[0]))
    # a copy of the end row: a view would keep the block alive into the next
    for cols, _, right in _shoot_blocks(spec, lams, steps_per_segment,
                                        lambda tables, z, YV: YV[:, -1].copy()):
        ends[:, cols] = right
    return ends[0], ends[1]
