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
steps).  Inside a run a step's end stage is the next step's node stage,
with the same stencil (a piece is cut at the rare exception, see
``_SegmentTables``), so the L steps of a run share 2L+1 stage rows
(node, half, node, ..., half, end) instead of 3L: the stencil tables are
interleaved in that order, and all stage values of a piece of a run come
from one gather.  The linear recurrence inside it has the closed form
u[b+1+l] = A^(l+1) (u[b] + sum_{k<=l} A^-(k+1) B g[b+k]), so the sweep
loops over pieces, not steps: one contraction of the stage triples with
A^-(k+1) B, one cumulative sum from u[b] and one product with A^(l+1),
the powers A^-L .. A^L built by doubling once per sweep.  A piece of one
step is the step above.  Runs are cut into pieces of at most
(steps + 1) // ``PIECE_SHARE`` steps (85 at the default resolution), and
per lambda at most the longest power of two that keeps the inverse powers
within a bit (64 steps from s h ~ 0.98 on).  Below 383 steps that cap would
be under ``SHORTEST_PIECE`` steps, where a piece saves fewer numpy calls than
its partial sums and powers cost on a wide batch, and pieces are one step.

The arrays are laid out so that every contraction sums over an axis in
front of a contiguous (piece rows, lambda columns) block: the states are
channel-major, (2, steps+1, m), the stencil tables term-major, (4, stage
rows), and the per-sweep coefficients put the piece row next to the
columns, (2, 3, L, m) and (2, 2, L, m).  numpy's inner loops then run
over L m elements instead of m, so a sweep costs a fixed number of numpy
calls per piece, whatever its length: six on a block of ``WIDE_BLOCK``
(32) columns or more, which sums each contraction's products with
``np.einsum`` as it forms them, and eight on a narrower block, which
stores and reduces them (see ``sweep``).  A one-step piece is two calls,
or three with its stage gather; at cap 1, where every piece is one step,
a step inside a stretch between ``bounds`` has a two-row table, its half
and end stages, and copies its node stage from the step before.

Every coefficient sample, stencil and run is independent of lambda, so they
are computed once per problem and the integration runs vectorized over a
batch of lambda values -- eigenvalue scans and bracket refinements pay for
one sweep per round instead of one per lambda.  One loop over column
blocks, ``_shoot_blocks``, drives every shooting call; a block's width is
bounded by ``SWEEP_BYTES`` and ``PIECE_BYTES``, and the loop holds one
block's state array at a time.  The width never sets a piece, and it
changes no column's arithmetic: the pieces depend on the steps and on the
column's own lambda only, every 2x2 product is written out elementwise,
and both forms of a contraction add each column's products, each rounded
on its own, in the same order.  So a lambda gives bit-identical results
alone, in any batch and in any block.  That the einsum form rounds each
product before adding it, with no fused multiply-add, is a property of the
numpy build (it holds for numpy 2.4.6 with SIMD baseline X86_V2); on a
build that fused them, a column's last bits would depend on its block's
width, and the tests comparing wide and narrow blocks would fail.

Only lambda > 0 is addressed; the transmission scaling uses the real cube
root of lambda, computed as exp(log(lambda)/3).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._frozen import Frozen
from .exprlang import Expr
from .problem import (DEFAULT_STEPS, HALF, DelayRangeError, ProblemSpec, SegmentSamples,
                      segment_samples)
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

# bytes of one column block's (2, steps+1, width) state array: one bound on
# the block width (1023 lambda columns at the default steps, 63 at 65536)
SWEEP_BYTES = 64 * 2**20
# runs are integrated in pieces of at most (steps + 1) // PIECE_SHARE steps
# (85 at the default steps); a cap under SHORTEST_PIECE steps (below 383
# steps) saves fewer numpy calls than its partial sums and powers cost on a
# wide batch, so there pieces are one step
PIECE_SHARE = 48
SHORTEST_PIECE = 8
# bytes of 12 doubles per step of a piece and column, which bound its
# (4, 2L+1, width) stencil gather, its largest temporary in either form of
# the contractions (see WIDE_BLOCK): the other bound on the block width (128
# columns of 85-step pieces), so that a wide batch keeps its temporaries in
# cache
PIECE_BYTES = 2**20
# a block of at least WIDE_BLOCK columns sums the products of its
# contractions with np.einsum, which forms no product array; in a narrower
# block einsum's inner loops are too short to pay, and at one column its sum
# of the five one-step terms would not be the product-and-reduce sum bit for
# bit
WIDE_BLOCK = 32


class NonFiniteStateError(RuntimeError):
    """Integration state overflowed to a non-finite value."""


def lam_cbrt(lam):
    """Real cube root of a positive spectral parameter."""
    return np.exp(np.log(lam) / 3.0)


class SolutionSegment(Frozen):
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


class ShootingResult(Frozen):
    """The two matched segments built from the initial conditions at 0 and
    the transmission mapping at pi/2."""

    left: SolutionSegment
    right: SolutionSegment


# stencil term k reads channel _CHANNEL[k] of node (j + _ROW_OFFSET[k]) of
# the (2, steps+1) state rows: y(xi) = w0 Y[j] + w1 Y[j+1] + w2 V[j] + w3 V[j+1]
_CHANNEL = np.array([0, 0, 1, 1])
_ROW_OFFSET = np.array([0, 1, 0, 1])


class _SegmentTables:
    """All lambda-independent data for integrating one subinterval.

    Built from the subinterval's ``problem.segment_samples``: samples that
    fail one of its checks raise that check's ``ExprDomainError`` or
    ``DelayRangeError``, so the tables accept what ``validate`` passes.

    Step i evaluates the retarded term at three stages: the node x_i, the
    half step and the step end.  Each stage is a cubic Hermite stencil on
    the rows of the channel-major (2, steps+1) states of (y, y'), channel c
    of node r being row c (steps+1) + r: ``gather[k, r]`` holds the flat
    index of term k of stencil row r and ``weights[k, r]`` the matching
    Hermite weight times -q at the stage (with a trailing axis for the
    lambda columns), so that g is their sum over k; a lookup of the current
    state is the Hermite stencil (0, 1, 0, 0) on rows (i-1, i).  Step 0 is
    peeled: its half and end stages read the Taylor extrapolant
    y0 + d y0' + d^2/2 y0'' at distance ``first_d`` (0 where the stage reads
    the current state), scaled by ``first_negq``.

    A step's end stage is the next node, and its stencil is bitwise the
    next step's node stencil unless the delayed argument falls within
    1e-14 of x_i or past it, where the end stage reads the step's own rows.
    ``breaks`` holds the steps whose node stencil is not the end stencil of
    the step before (none when q = 0, where no stencil is read).  The
    stencil rows are interleaved: between neighbours b < e of ``bounds``,
    the sorted union of ``run_bounds`` and ``breaks``, they run node b, half
    b, ..., half e-1, end e-1, so L steps' 2L+1 stages are one stretch of
    rows; a last row holds the node stage that gives y'' at the last node,
    and ``node_rows`` the row of every node.

    ``run_bounds`` holds the first step of every run and, last, n.  A run
    is a maximal stretch of steps whose stencils read only rows at or
    before the row b where it starts, so all its stage values g are known
    when it begins and the scheme's recurrence u[i+1] = A u[i] + B g[i]
    (u = (y, y'), A and B fixed per lambda) has the closed form

        u[b+1+l] = A^(l+1) (u[b] + sum_{k<=l} A^-(k+1) B g[b+k]).

    The peeled step 0 is a run of its own unless q = 0, when nothing is
    read and the segment is one run.  Any piece of a run is a run itself;
    ``pieces`` cuts them at ``breaks`` and to at most ``piece_cap`` steps,
    (steps + 1) // ``PIECE_SHARE``, or one step when that is under
    ``SHORTEST_PIECE``.  ``sweep`` integrates one column block at one cap;
    the block loop of ``_shoot_blocks`` picks the blocks.
    """

    def __init__(self, samples: SegmentSamples):
        if samples.error is not None:
            # the samples are cached and shared: raise their error afresh
            raise samples.error.with_traceback(None)
        self.a, self.b, self.h, self.nodes = samples.a, samples.b, samples.h, samples.nodes
        self.steps = n = self.nodes.shape[0] - 1
        h = self.h
        (q_node, q_half), (d_node, d_half) = samples.q, samples.delta
        self.q_zero = bool(np.all(q_node == 0.0) and np.all(q_half == 0.0))

        # the stage points: node 0, half 0, node 1, ..., half n-1, node n,
        # then the end of every step; ctx is the step that reads each
        step = np.arange(n)
        x_node = self.nodes - d_node
        xi = np.concatenate([np.stack([x_node[:-1], samples.half - d_half], axis=1).ravel(),
                             x_node[-1:], x_node[1:]])
        negq = -np.concatenate([np.stack([q_node[:-1], q_half], axis=1).ravel(),
                                q_node[-1:], q_node[1:]])
        ctx = np.concatenate([np.repeat(step, 2), [n], step])
        x_ctx = self.a + ctx * h
        # fp tidy-up only; the samples passed both delay checks
        xi = np.minimum(np.maximum(xi, self.a), x_ctx + h)
        inside = xi > x_ctx + 1e-14
        current = ~inside & (x_ctx - xi <= 1e-14)
        t_idx = (xi - self.a) / h
        j = np.minimum(np.maximum(np.floor(t_idx).astype(np.int64), 0), n - 1)
        j = np.where(inside | current, np.maximum(ctx - 1, 0), j)
        theta = np.where(current, ctx - j, t_idx - j)
        # the node, half and end stages of step 0
        first = np.array([0, 1, 2 * n + 1])
        self.first_d = np.where(inside[first[1:]], xi[first[1:]] - self.a, 0.0)[:, None]
        self.first_negq = negq[first, None]

        # newest row each step reads: row j + 1 of its stencils, never past
        # the step's own row; the peeled step 0 reads only row 0, through its
        # Taylor extrapolant, and step 1 always reads row 1, so step 0 is a
        # run of its own unless q = 0, when nothing is read
        end, node = 2 * n + 1 + step, 2 * step
        reach = np.maximum(np.maximum(j[node], j[node + 1]), j[end]) + 1
        reach[0] = 0
        self.breaks = np.flatnonzero((j[end] != j[node + 2]) | (theta[end] != theta[node + 2])) + 1
        if self.q_zero:
            reach[:] = 0
            self.breaks = self.breaks[:0]
        self.run_bounds = _run_bounds(reach)
        # (np.union1d would import numpy.ma, half a megabyte)
        bounds = self.bounds = np.array(sorted({*self.run_bounds.tolist(),
                                                *self.breaks.tolist()}))

        # node i sits at row 2i + (bounds at or before i) - 1, and the end of
        # the step before a bound e in the row before node e's
        self.node_rows = 2 * np.arange(n + 1) + np.searchsorted(bounds, np.arange(n + 1),
                                                                side="right") - 1
        order = np.empty(self.node_rows[-1] + 1, dtype=np.int64)
        order[self.node_rows[:-1]] = node
        order[self.node_rows[:-1] + 1] = node + 1
        order[self.node_rows[bounds[1:]] - 1] = end[bounds[1:] - 1]
        order[-1] = 2 * n
        j, theta = j[order], theta[order]
        t2 = theta * theta
        t3 = t2 * theta
        self.weights = np.stack([2.0 * t3 - 3.0 * t2 + 1.0, -2.0 * t3 + 3.0 * t2,
                                 h * (t3 - 2.0 * t2 + theta), h * (t3 - t2)])[..., None]
        self.weights *= negq[order, None]
        self.gather = j + _ROW_OFFSET[:, None]
        self.gather += _CHANNEL[:, None] * (n + 1)

        self.piece_cap = (n + 1) // PIECE_SHARE
        if self.piece_cap < SHORTEST_PIECE:
            self.piece_cap = 1
        self._pieces: dict[int, tuple[list[tuple], int]] = {}

    def pieces(self, cap: int) -> tuple[list[tuple], int]:
        """Steps [b, e) of every run cut at ``breaks`` and into pieces of at
        most ``cap``, as (b, e, gather, weights) with the 2L+1 stencil rows
        node b, half b, ..., half e-1, end e-1 of those L steps, and the
        length of the longest piece.  Inside a piece the end stencil of a
        step is the next node's row.  The tables are views, contiguous
        (4, 3) ones for a piece of one step: numpy gathers and weights
        through a strided (4, 3) view about half as fast, and with zero
        delay every step is such a piece.

        At cap 1, where every piece is one step, a piece whose node stage is
        the end stage of the piece before carries only its contiguous (4, 2)
        half and end rows, and ``sweep`` copies the node stage.  That holds
        from step 2 on (step 1 follows the peeled step 0, whose end stage is
        a Taylor extrapolant) except at ``breaks``: the stencil is the same
        and so are the rows it reads, which were complete before the step
        before began."""
        if cap not in self._pieces:
            bounds = self.bounds.tolist()
            cut = [(s, min(s + cap, e)) for b, e in zip(bounds[:-1], bounds[1:])
                   for s in range(b, e, cap)]
            # the stencil rows of every one-step piece in one gather, laid
            # out (piece, term, row) so that each piece's tables are contiguous
            single = [b for b, e in cut if e - b == 1]
            at = self.node_rows[single][:, None] + np.arange(3)
            gather = np.moveaxis(self.gather[:, at], 1, 0).copy()
            weights = np.moveaxis(self.weights[:, at], 1, 0).copy()
            one_step = zip(gather, weights)
            if cap == 1 and not self.q_zero:
                # piece b is step b
                breaks = set(self.breaks.tolist())
                steps = [b for b in range(2, self.steps) if b not in breaks]
                shared = dict(zip(steps, zip(gather[steps, :, 1:], weights[steps, :, 1:])))
                one_step = (shared.get(b, tables) for b, tables in enumerate(one_step))
            node_rows = self.node_rows.tolist()
            pieces = [(b, e, *next(one_step)) if e - b == 1 else
                      (b, e, self.gather[:, node_rows[b]:node_rows[b] + 2 * (e - b) + 1],
                       self.weights[:, node_rows[b]:node_rows[b] + 2 * (e - b) + 1])
                      for b, e in cut]
            self._pieces[cap] = (pieces, max(e - b for b, e in cut))
        return self._pieces[cap]

    def piece_caps(self, lam: np.ndarray) -> np.ndarray:
        """The longest piece each lambda column is integrated in.

        A piece of L steps uses the powers A^-L .. A^L, which grow like
        det(A)^(-L/2) in one direction or the other; det A =
        |R(i s h)|^2 = 1 - (s h)^6/72 + (s h)^8/576 for the scheme's
        stability function R, 1 - 7e-13 at s = 50 and 4096 steps.  Every
        lambda gets the longest power-of-two L that keeps det(A)^(-(L-1)/2)
        within 2, capped at ``piece_cap``, so the inverse powers lose at
        most one bit and a factor det(A)^(-1/2), at most 2^(1/(L-1)) (2 at
        L = 2, 1.01 at L = 64).  The floor to a power of two cuts pieces
        before the factor at ``piece_cap`` itself passes 2: at 4096 steps
        (cap 85, whose factor passes 2 from s h ~ 1.054) pieces are 64 steps
        from s h ~ 0.980, 32 from 1.108, 16 from 1.256 and 8 from 1.430.
        """
        t = (self.h * self.h) * np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            det = 1.0 - t ** 3 / 72.0 + t ** 4 / 576.0
            longest = np.where(det < 1.0, 1.0 + math.log(4.0) / -np.log(det), np.inf)
        return np.minimum(self.piece_cap, 2.0 ** np.floor(np.log2(longest))).astype(np.int64)

    def sweep(self, z: np.ndarray, y0, v0, cap: int, coefficients=None) -> np.ndarray:
        """The states (y, y') at every node of one column block, shape
        (2, steps+1, m), integrated in pieces of at most ``cap`` steps from
        y0 and v0, scalars or one value per column, with ``coefficients``
        (C, powers, K) from ``_coefficients``, built for this segment when
        not given.  A state may overflow; the caller checks with
        ``_non_finite``.

        A step is u[i+1] = C (u[i], g[i]) with C = [A | B] the (2, 5) scheme
        coefficients and g[i] its (node, half, end) stage values, and a
        piece of one step is just that.  At cap 1, where every piece is one
        step, a step whose table has two rows, its half and end stages (see
        ``pieces``), copies its node stage from the end stage of the step
        before and gathers only those.  A longer piece [b, e) gathers its
        2L+1 stage values in one pass, reads the triple of its step l as a
        strided (3, L) view (rows 2l, 2l+1, 2l+2, the end stage shared with
        the next node), contracts the triples with K[:, :, l] = A^-(l+1) B
        into rows b+1..e of the partial sums, sums them cumulatively from
        row b, u[b] itself, and multiplies partial sum l by A^(l+1): the
        closed form

            u[b+1+l] = A^(l+1) (u[b] + sum_{k<=l} A^-(k+1) B g[b+k]).

        K is (2, 3, L, m) and the powers (2, 2, L, m), so both contractions
        sum over axis 1 of products whose inputs broadcast over its leading
        axis, and the partial sums are one ``np.add.accumulate`` down the
        piece's rows.  On a block of ``WIDE_BLOCK`` columns or more
        ``np.einsum`` sums the products as it forms them, and the partial
        sums live in a scratch whose rows are padded to an even width: the
        accumulate runs on its complex view, which adds two columns per
        element with the same two IEEE additions, and the power contraction
        reads the scratch and writes the states.  A narrower block stores
        the products and reduces them, and sums in place in the states.
        Either way each column adds the same products in the same order.
        With q = 0 the g inputs are zero, so only A u[b] is computed and
        every partial sum is that.  The views of each piece length in use
        are built once per sweep.
        """
        m = z.shape[0]
        pieces, longest = self.pieces(cap)
        # with q = 0 every stage is zero: no stencil is read, and the only
        # input of a piece is u[b], so each of its partial sums is A u[b]
        stages = not self.q_zero
        if coefficients is None:
            coefficients = _coefficients(z, self.h, longest, stages)
        C, powers, K = coefficients
        A = C[:, :2]
        YV = np.empty((2, self.steps + 1, m))
        rows = YV.reshape(-1, m)
        YV[0, 0] = y0
        YV[1, 0] = v0
        # (y, y', g) of a one-step piece, or the stage values of a longer
        # piece in u[2:]
        u = np.empty((2 * longest + 3, m))
        wide = m >= WIDE_BLOCK
        if stages and longest > 1:
            triples = np.lib.stride_tricks.as_strided(
                u[2:], (3, longest, m), (u.strides[0], 2 * u.strides[0], u.strides[1]),
                writeable=False)
            # the partial sums of a wide block's piece, row 0 being u[b]
            sums = np.zeros((2, longest + 1, m + m % 2)) if wide else None
            # per piece length L > 1 in use: its stage rows, triples,
            # coefficients and powers, and in a wide block the first row of
            # its partial sums, the others, and the complex view of both
            views = {L: (u[2:2 * L + 3], triples[:, :L], K[:, :, :L], powers[:, :, :L])
                     + ((sums[:, 0, :m], sums[:, 1:L + 1, :m], sums[:, :L + 1].view(np.complex128))
                        if wide else ())
                     for L in {e - b for b, e, _, _ in pieces} if L > 1}
        with np.errstate(over="ignore", invalid="ignore"):
            if stages:
                # peeled step 0: the node stage is the initial state, the
                # others read its Taylor extrapolant
                u[:2] = YV[:, 0]
                g = u[2:5]
                g[0] = self.first_negq[0] * u[0]
                a0 = g[0] - z * u[0]
                g[1:] = self.first_negq[1:] * (u[0] + self.first_d * u[1]
                                               + (0.5 * self.first_d * self.first_d) * a0)
            state, stage3, stage2 = u[:5], u[2:5], u[3:5]
            for b, e, stencil, weights in pieces:
                out = YV[:, b:e + 1]
                if not stages:
                    np.add.reduce(A * YV[None, :, b], axis=1, out=out[:, 1])
                    if e - b > 1:
                        out[:, 2:] = out[:, 1:2]
                        np.add.reduce(powers[:, :, :e - b - 1] * out[None, :, 2:], axis=1,
                                      out=out[:, 2:])
                elif e - b == 1:
                    if b:
                        u[:2] = YV[:, b]
                        g = stage3
                        if stencil.shape[1] == 2:
                            # the node stage is the end stage of step b - 1
                            u[2] = u[4]
                            g = stage2
                        gather = rows.take(stencil, axis=0)
                        if wide:
                            np.einsum("krm,krm->rm", weights, gather, out=g)
                        else:
                            gather *= weights
                            np.add.reduce(gather, axis=0, out=g)
                    if wide:
                        np.einsum("ckm,km->cm", C, state, out=out[:, 1])
                    else:
                        np.add.reduce(C * state, axis=1, out=out[:, 1])
                elif wide:
                    g, triple, coef, power, first, partial, paired = views[e - b]
                    np.einsum("krm,krm->rm", weights, rows.take(stencil, axis=0), out=g)
                    first[...] = out[:, 0]
                    np.einsum("cklm,klm->clm", coef, triple, out=partial)
                    np.add.accumulate(paired, axis=1, out=paired)
                    np.einsum("cklm,klm->clm", power, partial, out=out[:, 1:])
                else:
                    g, triple, coef, power = views[e - b]
                    gather = rows.take(stencil, axis=0)
                    gather *= weights
                    np.add.reduce(gather, axis=0, out=g)
                    np.add.reduce(coef * triple, axis=1, out=out[:, 1:])
                    np.add.accumulate(out, axis=1, out=out)
                    np.add.reduce(power * out[None, :, 1:], axis=1, out=out[:, 1:])
        return YV

    def second_derivs(self, lam: np.ndarray, YV: np.ndarray) -> np.ndarray:
        """y'' = -q y(x - Delta) - lambda y at every node of a finished
        sweep, shape (steps+1, m).  The node-stage stencil terms are added
        one at a time in the order the sweep sums them, so the values are
        the ones the sweep used and no temporary exceeds (steps+1, m)."""
        rows = YV.reshape(-1, YV.shape[-1])
        idx = self.gather[:, self.node_rows]
        w = self.weights[:, self.node_rows]
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
    """A^1 .. A^count, count >= 1, of a batch of 2x2 matrices A of shape
    (2, 2, m), as (2, 2, count, m) with power l at [:, :, l-1].  By
    doubling: A^(k+i) = A^k A^i with k the largest power of two below
    k + i, so each power is the same product whatever ``count`` is.  The
    products are written out elementwise per column."""
    P = np.empty(A.shape[:2] + (count,) + A.shape[2:])
    P[:, :, 0] = A
    k = 1
    while k < count:
        top = min(2 * k, count)
        (P[:, :, None, k - 1, None] * P[None, :, :, :top - k]).sum(axis=1, out=P[:, :, k:top])
        k = top
    return P


def _coefficients(z: np.ndarray, h: float, longest: int, stages: bool) -> tuple:
    """The scheme coefficients of a column block at step h: C = [A | B],
    shape (2, 5, m), the powers A^1 .. A^longest, (2, 2, longest, m), and,
    with ``stages``, K[:, :, l] = A^-(l+1) B, (2, 3, longest, m).  The
    powers and K are None when no piece is longer than one step, and K also
    without stages (q = 0).  Every power is the same whatever ``longest``
    is, so one set serves any segment of that step whose pieces are at most
    ``longest`` long.  A lambda that overflows them ends in a non-finite
    state."""
    m = z.shape[0]
    h2 = h * h
    powers = K = None
    with np.errstate(over="ignore", invalid="ignore"):
        C = np.empty((2, 5, m))
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
        if longest > 1:
            # powers[:, :, l] = A^(l+1)
            powers = _powers(A, longest)
            if stages:
                # K[:, :, l] = A^-(l+1) B
                inverse = _powers(np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / (
                    A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]), longest)
                K = (inverse[:, :, None] * C[:, 2:, None]).sum(axis=1)
    return C, powers, K


@lru_cache(maxsize=32)
def _tables(q_expr: Expr, delta_expr: Expr, a: float, b: float, steps: int) -> _SegmentTables:
    return _SegmentTables(segment_samples(q_expr, delta_expr, a, b, steps))


def _left_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_left, spec.retard_left, 0.0, HALF, steps)


def _right_tables(spec: ProblemSpec, steps: int) -> _SegmentTables:
    return _tables(spec.q_right, spec.retard_right, HALF, math.pi, steps)


def _non_finite(side: int, YV: np.ndarray, cols, absorbing: bool = False) -> list[tuple[int, int, int]]:
    """[(side, row, batch column)] of the first non-finite state of a block
    of segment ``side`` (0 left, 1 right) by row, or [] if all are finite.

    ``absorbing`` says that every state of the block was computed from the
    one before it with finite coefficients, as in a segment whose pieces are
    all one step: a product with a non-finite operand is non-finite, 0 * inf
    included, and so is a sum with a non-finite term, so the first
    non-finite state makes every later one non-finite and a finite end row
    clears the block without the scan.  A longer piece computes each row
    from the piece's partial sums, not from the row before, so a row whose
    product overflowed need not reach the end row, and its segment is
    scanned."""
    if absorbing and np.isfinite(YV[:, -1]).all():
        return []
    # one channel at a time keeps the temporary at (steps+1, width) booleans
    if all(np.isfinite(channel).all() for channel in YV):
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
    with np.errstate(over="ignore", invalid="ignore"):  # y'' may overflow where y did not
        A = tables.second_derivs(lams, YV)
    _raise_first(_non_finite(0, A[None], range(lams.shape[0])), (tables,), lams)
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
    same step, so the same caps), as many as the two byte budgets allow,
    and one set of scheme coefficients, built for the longer of the two
    segments' longest pieces and passed to both sweeps.  Each segment's
    states go to ``keep(tables, z, states)`` as soon as they are swept and
    are then dropped; yields (cols, left, right) per block, with what
    ``keep`` returned.  A non-finite state stops the yields and raises after
    the last block, naming the batch's first such column; a segment whose
    pieces are all one step is checked at its end row while the block's
    coefficients are finite, any other in full.
    """
    if not np.all((lams > 0.0) & np.isfinite(lams)):
        raise ValueError("lambda must be positive and finite")
    lt = _left_tables(spec, steps)
    rt = _right_tables(spec, steps)
    # both segments are pi/2 long: one coefficient set serves both
    assert lt.h == rt.h
    stages = not (lt.q_zero and rt.q_zero)
    caps = lt.piece_caps(lams)
    failed = []
    for cap in sorted(set(caps.tolist())):
        group = np.flatnonzero(caps == cap)
        longest = max(lt.pieces(cap)[1], rt.pieces(cap)[1])
        one_step = [tables.pieces(cap)[1] == 1 for tables in (lt, rt)]
        width = max(1, min(SWEEP_BYTES // (2 * 8 * (steps + 1)),
                           PIECE_BYTES // (4 * 3 * 8 * longest)))
        for cols in np.split(group, range(width, group.shape[0], width)):
            z = lams[cols]
            coefficients = _coefficients(z, lt.h, longest, stages)
            finite = bool(np.isfinite(coefficients[0]).all())
            YV = lt.sweep(z, math.sin(spec.alpha), -math.cos(spec.alpha), cap, coefficients)
            failed += _non_finite(0, YV, cols, finite and one_step[0])
            left = None if failed else keep(lt, z, YV)
            # a tiny coupling overflows the mapping: the right sweep fails
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scale = 1.0 / (lam_cbrt(z) * spec.coupling)
                y0, v0 = scale * YV[:, -1]
            del YV
            YV = rt.sweep(z, y0, v0, cap, coefficients)
            failed += _non_finite(1, YV, cols, finite and one_step[1])
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
            out[k] = ShootingResult(left=l, right=r)
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
