"""Cumulative composite-Simpson quadrature and cubic Hermite interpolation
on uniform grids.

``cumulative_simpson`` returns the running integral at every node (a full
integral is its last entry), for one row of samples or for many at once;
odd-indexed nodes use the one-sided three-point rule so the result stays
fourth-order accurate everywhere.  ``hermite`` reads node values and slopes
between the nodes: the integrator's dense output, and K, L between
quadrature nodes; ``hermite_weights`` gives the weights of a set of x
once, for ``hermite`` to apply to many rows.  ``hermite_basis`` is the one
form of the four cubic Hermite weights, which the integrator's delayed
lookups use too.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cumulative_simpson", "hermite", "hermite_basis", "hermite_weights"]


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of uniformly sampled values, fourth order, along
    the last axis of an array of any leading shape.

    Even nodes accumulate standard Simpson pairs; each odd node adds the
    integral of the local quadratic over its trailing subinterval
    (coefficients 5/12, 8/12, -1/12).  Works for any sample count >= 3.
    Every row is bitwise the result of integrating it alone.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if n < 3:
        raise ValueError("need at least 3 samples")
    out = np.empty(y.shape, dtype=float)
    out[..., 0] = 0.0
    # pairs: integral over [x_{2k}, x_{2k+2}]
    end = 2 * ((n - 1) // 2)
    pair = (h / 3.0) * (y[..., 0:end:2] + 4.0 * y[..., 1:end + 1:2] + y[..., 2:end + 1:2])
    np.cumsum(pair, axis=-1, out=out[..., 2:end + 1:2])
    # odd nodes: quadratic through (i-1, i, i+1) integrated over [x_i, x_{i+1}]
    # added to out at the even node before it
    inc = (h / 12.0) * (5.0 * y[..., 0:end - 1:2] + 8.0 * y[..., 1:end:2]
                        - y[..., 2:end + 1:2])
    out[..., 1:end:2] = out[..., 0:end - 1:2] + inc
    if end < n - 1:
        # trailing odd node: quadratic through the last three samples
        inc = (h / 12.0) * (-y[..., n - 3] + 8.0 * y[..., n - 2] + 5.0 * y[..., n - 1])
        out[..., n - 1] = out[..., n - 2] + inc
    return out


def hermite_basis(t):
    """The four cubic Hermite weights at t (scalar or array) in [0, 1] of a
    unit interval: the value weights at its ends, then the slope weights,
    which a step h scales by h."""
    t2 = t * t
    t3 = t2 * t
    return 2.0 * t3 - 3.0 * t2 + 1.0, -2.0 * t3 + 3.0 * t2, t3 - 2.0 * t2 + t, t3 - t2


def hermite_weights(nodes: np.ndarray, x):
    """Where x (scalar or array) falls on the uniform grid ``nodes`` and its
    cubic Hermite weights: (j, (value weights at j and j+1, slope weights at
    j and j+1), h), for ``hermite`` to apply to any rows of values and
    slopes on that grid."""
    x = np.asarray(x, dtype=float)
    a = nodes[0]
    n = nodes.shape[0] - 1
    h = (nodes[-1] - a) / n
    j = np.clip(np.floor((x - a) / h).astype(np.int64), 0, n - 1)
    # x on the upper node of its interval: t = 1 exactly, where the weights
    # are exactly (0, 1, 0, 0); on the lower node t is 0 exactly already
    t = np.where(x == nodes[j + 1], 1.0, (x - nodes[j]) / h)
    return j, hermite_basis(t), h


def hermite(nodes: np.ndarray, f: np.ndarray, df: np.ndarray, x, weights=None):
    """Cubic Hermite interpolant of values ``f`` and slopes ``df`` on the
    uniform grid ``nodes`` at x (scalar or array), without a range check;
    an x equal to a node bit-exactly gets that node's value exactly.  Rows
    of ``f`` and ``df`` along leading axes are interpolated alike.
    ``weights``, if given, is ``hermite_weights(nodes, x)``, reused."""
    j, (w0, w1, v0, v1), h = hermite_weights(nodes, x) if weights is None else weights
    out = w0 * f[..., j] + w1 * f[..., j + 1] + h * (v0 * df[..., j] + v1 * df[..., j + 1])
    return float(out) if out.ndim == 0 else out
