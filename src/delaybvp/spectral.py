"""Characteristic function and eigenvalue location.

An eigenvalue is a positive root of

    F(lambda) = w(pi, lambda) cos(beta) + w'(pi, lambda) sin(beta)

where w is the shooting solution that already satisfies the boundary
condition at 0 and both transmission conditions.  Roots are searched in the
variable s = sqrt(lambda) because they are asymptotically equispaced there
(s_n ~ n), so uniform s-grids sample F efficiently.

Two locators are provided: a general scan over an s-range for the low end of
the spectrum (no completeness claim there), and a per-index localization
that finds the unique root in the unit window around each integer n, which
is the regime the asymptotic theory guarantees.  A sign change needs no
accuracy beyond its sign, so localization screens its windows on a coarse
integrator grid (s h <= ``SCREEN_SH``) and confirms each window's
sign-change cell with four full-resolution values around it; only windows
the coarse screen cannot settle are screened again at full resolution.
One sign rule holds throughout: F <= 0 counts as negative, so an F that is
exactly zero at a sample still makes a sign change.  Refinement keeps a
sign-change bracket throughout: each round probes every bracket on both
sides of its regula-falsi point, so it closes from both ends and narrows
superlinearly near a simple root, with a midpoint probe whenever the
previous round did not halve it, so it never needs more than twice
bisection's rounds.  Brackets for distinct roots are refined in lock-step
so each round costs a single batched sweep of the integrator.

All eigenvalues of the problem are simple; numerically that shows up as a
transversal crossing of F, which ``simplicity_certificate`` checks through a
central difference of dF/dlambda against the refinement residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dde_solver, picard
from .problem import HALF, Case1RequiredError, ProblemSpec, is_case1

__all__ = [
    "CharacteristicSample",
    "Eigenpair",
    "SimplicityCertificate",
    "ZeroOrManyError",
    "char_fn",
    "char_fn_picard",
    "char_fn_samples",
    "scan_roots",
    "localize_near_n",
    "localize_range",
    "simplicity_certificate",
    "simplicity_certificates",
]

DEFAULT_REFINE_TOL = 1e-10
LOCALIZE_SUBGRID = 64
# window screening runs at the fewest steps (at least SCREEN_MIN_STEPS, at
# most the configured ones) that keep s * h <= SCREEN_SH at the largest s,
# h = (pi/2) / steps: 265 steps for n <= 50, 108 for n <= 20
SCREEN_SH = 0.3
SCREEN_MIN_STEPS = 64
SCAN_SAMPLES_PER_UNIT = 100


class ZeroOrManyError(RuntimeError):
    """Localization windows held no single sign change (those indices are
    below the asymptotic regime; fall back to a scan).

    ``windows`` maps every failing n to its sign-change count; ``n`` and
    ``count`` are those of the first one.
    """

    def __init__(self, windows: dict[int, int]):
        self.windows = dict(windows)
        self.n, self.count = next(iter(self.windows.items()))
        listed = ", ".join(f"{count} in [{n - 0.5}, {n + 0.5}] (n = {n})"
                           for n, count in self.windows.items())
        super().__init__(f"expected 1 sign change per window, found {listed}")


@dataclass(frozen=True)
class CharacteristicSample:
    lam: float
    F: float
    method: str  # "shooting" or "picard"


@dataclass(frozen=True)
class Eigenpair:
    """A located eigenvalue with its eigenfunction segments.

    ``index`` is the window integer for localized roots and the ordinal
    within the returned set for scanned roots.  ``lam == s * s`` exactly as
    stored.  The eigenfunction is the raw shooting solution (it satisfies
    the boundary condition at 0 by construction and the one at pi to the
    refinement residual).
    """

    index: int
    s: float
    lam: float
    left: dde_solver.SolutionSegment
    right: dde_solver.SolutionSegment
    F_residual: float


@dataclass(frozen=True)
class SimplicityCertificate:
    dF_dlambda: float
    residual: float
    threshold: float
    h: float
    passed: bool
    reliable: bool


def _assemble_F(spec: ProblemSpec, w_pi, wp_pi):
    return w_pi * math.cos(spec.beta) + wp_pi * math.sin(spec.beta)


def char_fn(spec: ProblemSpec, lam: float, steps: int = dde_solver.DEFAULT_STEPS) -> CharacteristicSample:
    """Characteristic value F(lambda) from a fresh shooting solution."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
    w, wp = dde_solver.shoot_endpoints(spec, [lam], steps)
    return CharacteristicSample(lam=float(lam), F=float(_assemble_F(spec, w[0], wp[0])),
                                method="shooting")


def char_fn_picard(spec: ProblemSpec, lam: float,
                   grid_points: int = picard.DEFAULT_GRID,
                   max_iters: int = picard.DEFAULT_MAX_ITERS,
                   tol: float = picard.DEFAULT_TOL) -> CharacteristicSample:
    """F(lambda) assembled from the fixed-point oracle segments."""
    w1 = picard.picard_w1(spec, lam, grid_points, max_iters, tol)
    w2 = picard.picard_w2(spec, lam, w1, grid_points, max_iters, tol)
    F = _assemble_F(spec, w2.values[-1], w2.derivs[-1])
    return CharacteristicSample(lam=float(lam), F=float(F), method="picard")


def char_fn_samples(spec: ProblemSpec, s_values, steps: int = dde_solver.DEFAULT_STEPS) -> np.ndarray:
    """F(s^2) on a batch of s values (one batched sweep per segment)."""
    s_values = np.asarray(s_values, dtype=float)
    if not np.all((s_values > 0.0) & np.isfinite(s_values)):
        raise ValueError("s must be positive and finite")
    w, wp = dde_solver.shoot_endpoints(spec, s_values * s_values, steps)
    return _assemble_F(spec, w, wp)


def _sign_changes(F) -> np.ndarray:
    """Where consecutive values along the last axis of F change sign.

    F <= 0 counts as negative: the one sign rule of screening, scanning and
    refinement, under which an exact zero still makes a sign change.
    """
    neg = np.asarray(F) <= 0.0
    return neg[..., :-1] != neg[..., 1:]


def _refine_brackets(spec: ProblemSpec, lo, hi, f_lo, f_hi, refine_tol: float, steps: int):
    """Shrink sign-change brackets [lo_i, hi_i] in s to width < refine_tol.

    A safeguarded two-probe secant, all brackets in lock-step.  Each round
    probes every bracket still at least ``refine_tol`` wide at x - d and
    x + d, where x is its regula-falsi point (the midpoint if that is not
    strictly inside) and d = max(refine_tol/4, min(w^2, w/8)) for width w.
    Near a simple root x is off by O(w^2), so the two probes straddle the
    root and the bracket closes from both sides.  A bracket that the
    previous round did not halve is also probed at its midpoint, so two
    rounds at least halve it: at worst twice bisection's round count.
    Probes that are not strictly inside their bracket are dropped; all
    others go through one batched sweep, and each bracket becomes the
    first subinterval of its sorted points with a sign change, so the
    bracket invariant holds exactly as in bisection.  A round that changes
    no bracket ends the loop: the brackets are then as narrow as floating
    point allows, which is wider than a ``refine_tol`` below one ulp of the
    root.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    halved = np.ones(lo.shape[0], dtype=bool)
    while True:
        act = np.nonzero(hi - lo >= refine_tol)[0]
        if act.size == 0:
            break
        a, b, fa, fb = lo[act], hi[act], f_lo[act], f_hi[act]
        w = b - a
        mid = 0.5 * (a + b)
        with np.errstate(all="ignore"):
            x = a - fa * w / (fb - fa)
        x = np.where((a < x) & (x < b), x, mid)
        d = np.maximum(0.25 * refine_tol, np.minimum(w * w, 0.125 * w))
        probes = np.stack([x - d, x + d, np.where(halved[act], np.nan, mid)], axis=1)
        inside = (a[:, None] < probes) & (probes < b[:, None])
        if not inside.any():
            break
        F = np.empty_like(probes)
        F[inside] = char_fn_samples(spec, probes[inside], steps)
        # a dropped probe becomes a copy of hi, which adds no sign change
        pts = np.column_stack([a, np.where(inside, probes, b[:, None]), b])
        vals = np.column_stack([fa, np.where(inside, F, fb[:, None]), fb])
        order = np.argsort(pts, axis=1, kind="stable")
        pts = np.take_along_axis(pts, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        first = _sign_changes(vals).argmax(axis=1)
        rows = np.arange(act.size)
        new_lo, new_hi = pts[rows, first], pts[rows, first + 1]
        if np.array_equal(new_lo, a) and np.array_equal(new_hi, b):
            break
        halved[act] = new_hi - new_lo <= 0.5 * w
        lo[act], hi[act] = new_lo, new_hi
        f_lo[act], f_hi[act] = vals[rows, first], vals[rows, first + 1]
    return lo, hi


def _pairs_from_roots(spec: ProblemSpec, s_roots, indices, steps: int) -> list[Eigenpair]:
    lams = [s * s for s in s_roots]
    shots = dde_solver.shoot_many(spec, lams, steps)
    pairs = []
    for idx, s, shot in zip(indices, s_roots, shots):
        F = _assemble_F(spec, shot.right.values[-1], shot.right.derivs[-1])
        pairs.append(Eigenpair(index=int(idx), s=float(s), lam=float(s * s),
                               left=shot.left, right=shot.right,
                               F_residual=float(F)))
    return pairs


def scan_roots(spec: ProblemSpec, s_min: float, s_max: float,
               samples: int | None = None, refine_tol: float = DEFAULT_REFINE_TOL,
               steps: int = dde_solver.DEFAULT_STEPS) -> list[Eigenpair]:
    """Locate eigenvalues by s-scan over [s_min, s_max].

    Samples F(s^2) uniformly (default 100 samples per unit of s, matching
    the ~unit spacing of roots), refines every sign change, and returns the
    eigenpairs ordered by s with ordinal indices.  Roots of even multiplicity
    produce no sign change and are not found; an empty list is a valid
    outcome.
    """
    if not 0.0 < s_min < s_max < math.inf:
        raise ValueError("need 0 < s_min < s_max")
    if not 0.0 < refine_tol < math.inf:
        raise ValueError("refine_tol must be positive and finite")
    if samples is None:
        samples = int(math.ceil((s_max - s_min) * SCAN_SAMPLES_PER_UNIT)) + 1
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(s_min, s_max, samples)
    F = char_fn_samples(spec, grid, steps)
    flips = np.nonzero(_sign_changes(F))[0]
    lo, hi = _refine_brackets(spec, grid[flips], grid[flips + 1], F[flips],
                              F[flips + 1], refine_tol, steps)
    roots = 0.5 * (lo + hi)
    return _pairs_from_roots(spec, roots, range(len(roots)), steps)


def _screen(spec: ProblemSpec, grid: np.ndarray, steps: int):
    """Sign changes of F along each row of ``grid``, in one batched sweep.

    Returns per row the number of sign changes, the cell of the first one
    and F at both ends of that cell.
    """
    F = char_fn_samples(spec, grid.ravel(), steps).reshape(grid.shape)
    flips = _sign_changes(F)
    cell = flips.argmax(axis=1)
    rows = np.arange(grid.shape[0])
    return flips.sum(axis=1), cell, F[rows, cell], F[rows, cell + 1]


def _confirm(spec: ProblemSpec, grid: np.ndarray, cell, f_lo, f_hi, steps: int):
    """Check coarse one-sign-change brackets at full resolution.

    F is evaluated, in one batched sweep, at points cell - 1 .. cell + 2 of
    each row, clipped to the row (a clipped point repeats its neighbour and
    adds no sign change).  A row is confirmed when these four values change
    sign exactly once and the outer two keep the signs the coarse F had
    there, which for a row with one coarse sign change are the signs of the
    coarse ``f_lo`` and ``f_hi``.  Returns per row whether it is confirmed,
    the cell of its first full-resolution sign change and F at both ends.
    """
    cols = np.clip(cell[:, None] + np.arange(-1, 3), 0, LOCALIZE_SUBGRID - 1)
    rows = np.arange(grid.shape[0])
    F = char_fn_samples(spec, grid[rows[:, None], cols].ravel(), steps).reshape(cols.shape)
    flips = _sign_changes(F)
    at = flips.argmax(axis=1)
    ok = ((flips.sum(axis=1) == 1) & ((F[:, 0] <= 0.0) == (f_lo <= 0.0))
          & ((F[:, -1] <= 0.0) == (f_hi <= 0.0)))
    return ok, cols[rows, at], F[rows, at], F[rows, at + 1]


def _window_brackets(spec: ProblemSpec, n_values, steps: int):
    """One sign-change bracket per unit window around each integer n.

    Each window is sampled at ``LOCALIZE_SUBGRID`` points.  All windows are
    first screened at ``coarse`` steps, the fewest (at least
    ``SCREEN_MIN_STEPS``, at most ``steps``) that keep s * h <= ``SCREEN_SH``
    at the largest s.  A window with exactly one coarse sign change is then
    confirmed at full resolution from four points around it (``_confirm``),
    all windows in one sweep; the cell that changes sign there is its
    bracket.  Every window not confirmed is screened again at full
    resolution.
    When ``coarse == steps`` the coarse screen already is the full one.
    The brackets are therefore those of a full-resolution screen whenever
    the coarse and full-resolution F agree in sign away from the confirmed
    cells.

    Returns lo, hi and the full-resolution F at both ends.  Raises
    ZeroOrManyError naming every window whose full-resolution subgrid does
    not show exactly one sign change.
    """
    n_values = [int(n) for n in n_values]
    grid = np.array([np.linspace(n - 0.5, n + 0.5, LOCALIZE_SUBGRID) for n in n_values])
    coarse = min(steps, max(SCREEN_MIN_STEPS, math.ceil(grid.max() * HALF / SCREEN_SH)))
    count, cell, f_lo, f_hi = _screen(spec, grid, coarse)
    if coarse < steps:
        single = np.nonzero(count == 1)[0]
        ok = np.zeros(len(n_values), dtype=bool)
        if single.size:
            ok[single], cell[single], f_lo[single], f_hi[single] = _confirm(
                spec, grid[single], cell[single], f_lo[single], f_hi[single], steps)
        redo = np.nonzero(~ok)[0]
        if redo.size:
            count[redo], cell[redo], f_lo[redo], f_hi[redo] = _screen(spec, grid[redo], steps)
    failed = {n: int(c) for n, c in zip(n_values, count) if c != 1}
    if failed:
        raise ZeroOrManyError(failed)
    rows = np.arange(len(n_values))
    return grid[rows, cell], grid[rows, cell + 1], f_lo, f_hi


def localize_range(spec: ProblemSpec, n_values, refine_tol: float = DEFAULT_REFINE_TOL,
                   steps: int = dde_solver.DEFAULT_STEPS) -> list[Eigenpair]:
    """Localized eigenpairs for every integer index in ``n_values``.

    Windows for distinct n are independent; they are batched here purely for
    speed and the results are ordered by index.
    """
    if not is_case1(spec):
        raise Case1RequiredError(
            "localization near n needs sin(alpha) != 0 and sin(beta) != 0")
    n_values = sorted(int(n) for n in n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("indices must be positive integers")
    if not 0.0 < refine_tol < math.inf:
        raise ValueError("refine_tol must be positive and finite")
    if not n_values:
        return []
    lo, hi, f_lo, f_hi = _window_brackets(spec, n_values, steps)
    lo, hi = _refine_brackets(spec, lo, hi, f_lo, f_hi, refine_tol, steps)
    roots = 0.5 * (lo + hi)
    return _pairs_from_roots(spec, roots, n_values, steps)


def localize_near_n(spec: ProblemSpec, n: int, refine_tol: float = DEFAULT_REFINE_TOL,
                    steps: int = dde_solver.DEFAULT_STEPS) -> Eigenpair:
    """The unique eigenvalue in the unit s-window around the integer n."""
    return localize_range(spec, [n], refine_tol, steps)[0]


def simplicity_certificates(spec: ProblemSpec, pairs: list[Eigenpair], h: float = 1e-3,
                            steps: int = dde_solver.DEFAULT_STEPS) -> list[SimplicityCertificate]:
    """Transversality checks for a batch of eigenpairs (one shared sweep).

    dF/dlambda is estimated by a central difference with step h (in lambda);
    a certificate passes when the slope clears 10x the refinement residual
    over h, and is marked unreliable for h > 1.
    """
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if any(p.lam <= h for p in pairs):
        raise ValueError("h must be smaller than every eigenvalue")
    if not pairs:
        return []
    lams = np.array([[p.lam - h, p.lam + h] for p in pairs])
    F = char_fn_samples(spec, np.sqrt(lams.ravel()), steps).reshape(-1, 2)
    out = []
    for pair, (f_lo, f_hi) in zip(pairs, F):
        slope = float((f_hi - f_lo) / (2.0 * h))
        threshold = 10.0 * abs(pair.F_residual) / h
        out.append(SimplicityCertificate(
            dF_dlambda=slope, residual=pair.F_residual, threshold=threshold, h=h,
            passed=bool(abs(slope) > threshold), reliable=bool(h <= 1.0)))
    return out


def simplicity_certificate(spec: ProblemSpec, pair: Eigenpair, h: float = 1e-3,
                           steps: int = dde_solver.DEFAULT_STEPS) -> SimplicityCertificate:
    """Transversality check of the root crossing at one eigenvalue."""
    return simplicity_certificates(spec, [pair], h, steps)[0]
