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
sign-change cell with four full-resolution values: at the subgrid points
one cell outside it, and beside the coarse root moved by the phase error
between the two grids (``dde_solver.phase_error``); only windows the coarse
screen cannot settle are screened again at full resolution.
One sign rule holds throughout: F <= 0 counts as negative, so an F that is
exactly zero at a sample still makes a sign change.  Refinement keeps a
sign-change bracket throughout: each round probes every bracket on both
sides of its regula-falsi point, so it closes from both ends and narrows
superlinearly near a simple root, with a midpoint probe whenever the
previous round did not halve it, so it never needs more than twice
bisection's rounds.  The confirmation is refinement's round 0: its four
full-resolution values (or, for a window screened at full resolution and
for a scan, the four grid values around the sign change) seed the first
round at their inverse cubic root.  Its two inner points straddle the
root on every window of the shipped configs, so that round closes the
bracket, where from four grid points it took two.  Brackets for distinct
roots are refined in lock-step so each round costs a single batched sweep
of the integrator.

Both locators return as the root the end of its final bracket where |F|
is smaller, with F there and the slope dF/ds that refinement measured on
the way, the secant over the narrowest span at least ``SLOPE_WIDTH`` wide
between sampled points that holds the root's final bracket; a reader
builds an eigenfunction with ``dde_solver.shoot``.  All
eigenvalues of the problem are simple; numerically that shows up as a
transversal crossing of F, which ``simplicity_certificates`` checks by
weighing that slope against the residual F at the root, both measured by
refinement, so a certificate costs no sweep.
"""

from __future__ import annotations

import math

import numpy as np

from . import dde_solver
from ._frozen import Frozen
from .exprlang import ExprDomainError
from .problem import HALF, Case1RequiredError, DelayRangeError, ProblemSpec, is_case1

__all__ = [
    "Eigenpair",
    "SimplicityCertificate",
    "ZeroOrManyError",
    "char_fn_samples",
    "scan_roots",
    "localize_near_n",
    "localize_range",
    "simplicity_certificates",
]

DEFAULT_REFINE_TOL = 1e-10
LOCALIZE_SUBGRID = 64
# window screening runs at the fewest steps (at least SCREEN_MIN_STEPS, at
# most the configured ones) that keep s * h <= SCREEN_SH at the largest s,
# h = (pi/2) / steps: 265 steps for n <= 50, 108 for n <= 20
SCREEN_SH = 0.3
SCREEN_MIN_STEPS = 64
# lambda step over which a simplicity certificate asks the slope to clear
# its residual, lambda/2 below lambda = 2e-3; the slope itself is
# refinement's secant, ``Eigenpair.dF_ds``
CERT_STEP = 1e-3
# a root's slope dF/ds is the secant over the narrowest span of the points
# refinement sampled around it that is at least this wide: narrower spans
# lose digits to rounding in F
SLOPE_WIDTH = 1e-9
# the first refinement round probes at x_c +- SEED |x_c - x_q| around the
# inverse cubic root x_c, where x_q are the inverse quadratic roots; its
# error is at most 0.036 |x_c - x_q| from n = 4 on across the sine specs
# of the seeded-refinement property, more only further below
SEED = 0.1
# the confirmation samples each window at x -+ d, where x is its coarse
# inverse cubic root x_c moved by the phase error between the coarse and the
# full steps, and d = REMAINDER x^3 h^4 plus the spread max |x_q - x_c|,
# h = (pi/2) / coarse.  Past that spread the full-resolution root was at
# most 0.092 x^3 h^4 from x from n = 2 on (6.6 at n = 1), across the
# delayed, constant-q, null and sine specs of the screening property at 512
# to 4096 steps; and with d past about 1e-4 (0.18 x^3 h^4 at n = 12 and 66
# coarse steps) refinement's first round no longer ends below refine_tol
REMAINDER = 0.12


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


class Eigenpair(Frozen):
    """A located eigenvalue: its index, its root s, ``lam == s * s``, the
    slope ``dF_ds`` of F(s^2) there and the residual ``F_residual``.

    ``index`` is the window integer for localized roots and the ordinal
    within the returned set for scanned roots.  ``s`` is the end of the
    root's final refinement bracket where |F| is smaller, and
    ``F_residual`` is F there, as refinement evaluated it: by batch
    invariance bitwise ``char_fn_samples(spec, [s], steps)``.  ``dF_ds``
    is refinement's secant over the narrowest span at least ``SLOPE_WIDTH``
    wide between points it sampled that holds the root's final bracket
    (over that bracket if no span is that wide).  Neither costs a
    sweep of its own.  The eigenfunction is ``dde_solver.shoot(spec, lam,
    steps)`` (it satisfies the boundary condition at 0 by construction and
    the one at pi to the residual).
    """

    index: int
    s: float
    lam: float
    dF_ds: float
    F_residual: float


class SimplicityCertificate(Frozen):
    dF_dlambda: float
    h: float
    F_residual: float
    passed: bool


def char_fn_samples(spec: ProblemSpec, s_values, steps: int = dde_solver.DEFAULT_STEPS) -> np.ndarray:
    """F(s^2) on a batch of s values (one batched sweep per segment)."""
    s_values = np.asarray(s_values, dtype=float)
    if not np.all((s_values > 0.0) & np.isfinite(s_values)):
        raise ValueError("s must be positive and finite")
    w, wp = dde_solver.shoot_endpoints(spec, s_values * s_values, steps)
    return w * math.cos(spec.beta) + wp * math.sin(spec.beta)


def _sign_changes(F) -> np.ndarray:
    """Where consecutive values along the last axis of F change sign.

    F <= 0 counts as negative: the one sign rule of screening, scanning and
    refinement, under which an exact zero still makes a sign change.
    """
    neg = np.asarray(F) <= 0.0
    return neg[..., :-1] != neg[..., 1:]


def _neighbourhood(cell, size: int) -> np.ndarray:
    """Columns cell - 1 .. cell + 2 of rows ``size`` long, one row per cell,
    clipped to the row (a clipped column repeats its neighbour)."""
    return np.clip(np.asarray(cell)[:, None] + np.arange(-1, 3), 0, size - 1)


def _inverse_interpolants(pts, vals):
    """Neville's tableau for s as a polynomial in F, evaluated at F = 0.

    Returns the root of the interpolant through all k points of each row
    and, as the two columns of an array, those through its first and its
    last k - 1 points.  Values that are not distinct give non-finite roots.
    """
    level = pts
    for gap in range(1, pts.shape[1]):
        lower = level
        f_i, f_j = vals[:, :-gap], vals[:, gap:]
        level = (f_i * lower[:, 1:] - f_j * lower[:, :-1]) / (f_i - f_j)
    return level[:, 0], lower


def _probe_centres(pts, vals, a, b, fa, fb):
    """Centre x of a round's two probes and their spread before clamping.

    By default x is the regula-falsi point of [a, b], clamped into it, with
    spread w^2: a root within rounding of an end then gets a probe beside
    that end (the midpoint would start a bisection).  Given more than the
    two bracket points, with F strictly monotone across them, x is instead
    the root x_c of the inverse interpolant through all of them if that is
    strictly inside, with spread ``SEED`` times its largest distance to
    the interpolants through the first and the last k - 1 points.
    """
    with np.errstate(all="ignore"):
        w = b - a
        x = a - fa * w / (fb - fa)
        x = np.fmin(np.fmax(x, a), b)
        spread = w * w
        if pts.shape[1] > 2:
            x_c, x_q = _inverse_interpolants(pts, vals)
            rise = np.diff(vals, axis=1)
            seeded = (((rise > 0.0).all(axis=1) | (rise < 0.0).all(axis=1))
                      & (a < x_c) & (x_c < b))
            x = np.where(seeded, x_c, x)
            spread = np.where(seeded, SEED * np.abs(x_q - x_c[:, None]).max(axis=1), spread)
    return x, spread


def _secants(pts, vals, lo, hi, f_lo, f_hi):
    """Per row, the secant dF/ds over the narrowest span between two of its
    points (a NaN point holds nothing) that holds [lo, hi] and is at least
    ``SLOPE_WIDTH`` wide, or over [lo, hi] where no span is."""
    a, b = pts[:, :, None], pts[:, None, :]
    rows, k = np.arange(len(pts)), pts.shape[1]
    # with a tiny coupling F is finite but can be large enough that the
    # difference overflows: the slope is then infinite
    with np.errstate(all="ignore"):
        width = np.where((a <= lo[:, None, None]) & (b >= hi[:, None, None])
                         & (b - a >= SLOPE_WIDTH), b - a, np.inf).reshape(len(pts), k * k)
        i, j = np.divmod(width.argmin(axis=1), k)
        return np.where(np.isfinite(width.min(axis=1)),
                        (vals[rows, j] - vals[rows, i]) / (pts[rows, j] - pts[rows, i]),
                        (f_hi - f_lo) / (hi - lo))


def _refine_brackets(spec: ProblemSpec, pts, vals, refine_tol: float, steps: int):
    """Shrink sign-change brackets in s to width < refine_tol.

    Returns the bracket ends; per bracket, the secant dF/ds over the
    narrowest span at least ``SLOPE_WIDTH`` wide between two of the points
    it sampled, its row's and every round's probes, that holds the final
    bracket, or over that bracket if none is that wide (``_secants``); and
    the root, the end with the smaller |F| (``lo`` on a tie), with F there.

    Row i of ``pts`` holds k >= 2 sorted points in s and row i of ``vals``
    F there; the bracket is the first cell of the row with a sign change.
    A safeguarded two-probe secant, all brackets in lock-step.  Each round
    probes every bracket still at least ``refine_tol`` wide at x - d and
    x + d, d = max(refine_tol/4, min(spread, w/8)) for width w, with x and
    spread from ``_probe_centres``: the first round reads all k points,
    later rounds the bracket ends alone, whose regula-falsi point is off by
    O(w^2) near a simple root, so the two probes straddle it and the
    bracket closes from both sides.  From the four points around a window
    bracket the first round starts at the inverse cubic root (the
    interpolation step of Alefeld, Potra & Shi, Algorithm 748, ACM TOMS 21,
    1995): from a confirmation whose inner points straddle the root, close
    enough that its probes x -+ refine_tol/4 end refinement; if F is not
    strictly monotone across the points (a clipped
    repeat included) or that root is not strictly inside the bracket, the
    round starts at the regula-falsi point.  A bracket that the previous
    round did not halve, or whose probes beside x both fall outside it, is
    also probed at its midpoint, so two rounds at least halve it: at worst
    twice bisection's round count.  Probes that are not strictly inside
    their bracket are dropped; all others go through one batched sweep, and
    each bracket becomes the first subinterval of its sorted points with a
    sign change, so the bracket invariant holds exactly as in bisection and
    a poor start costs rounds, never a wrong root.  A probe strictly inside
    its bracket always narrows it, and the loop ends when a round has no
    such probe: the brackets are then as narrow as floating point allows,
    which is wider than a ``refine_tol`` below one ulp of the root.
    """
    pts, vals = np.array(pts, dtype=float), np.array(vals, dtype=float)
    rows = np.arange(pts.shape[0])
    first = _sign_changes(vals).argmax(axis=1)
    lo, hi = pts[rows, first], pts[rows, first + 1]
    f_lo, f_hi = vals[rows, first], vals[rows, first + 1]
    # for the slope, every point sampled and F there (NaN where a round
    # probed less), as (2, rows, points) blocks
    sampled = [np.stack([pts, vals])]
    halved = np.ones(rows.size, dtype=bool)
    while True:
        act = np.nonzero(hi - lo >= refine_tol)[0]
        if act.size == 0:
            break
        a, b, fa, fb = lo[act], hi[act], f_lo[act], f_hi[act]
        w = b - a
        mid = 0.5 * (a + b)
        x, spread = _probe_centres(pts[act], vals[act], a, b, fa, fb)
        d = np.maximum(0.25 * refine_tol, np.minimum(spread, 0.125 * w))
        probes = np.stack([x - d, x + d, mid], axis=1)
        inside = (a[:, None] < probes) & (probes < b[:, None])
        inside[:, 2] &= ~halved[act] | ~inside[:, :2].any(axis=1)
        if not inside.any():
            break
        F = np.empty_like(probes)
        F[inside] = char_fn_samples(spec, probes[inside], steps)
        probed = np.full((2, rows.size, 3), np.nan)
        probed[:, act] = np.where(inside, np.stack([probes, F]), np.nan)
        sampled.append(probed)
        # a dropped probe becomes a copy of hi, which adds no sign change
        seen = np.column_stack([a, np.where(inside, probes, b[:, None]), b])
        seen_F = np.column_stack([fa, np.where(inside, F, fb[:, None]), fb])
        order = np.argsort(seen, axis=1, kind="stable")
        seen = np.take_along_axis(seen, order, axis=1)
        seen_F = np.take_along_axis(seen_F, order, axis=1)
        cut = _sign_changes(seen_F).argmax(axis=1)
        at = np.arange(act.size)
        new_lo, new_hi = seen[at, cut], seen[at, cut + 1]
        halved[act] = new_hi - new_lo <= 0.5 * w
        lo[act], hi[act] = new_lo, new_hi
        f_lo[act], f_hi[act] = seen_F[at, cut], seen_F[at, cut + 1]
        # later rounds start from the bracket ends alone
        pts, vals = np.column_stack([lo, hi]), np.column_stack([f_lo, f_hi])
    slope = _secants(*np.concatenate(sampled, axis=2), lo, hi, f_lo, f_hi)
    return lo, hi, slope, *np.where(np.abs(f_hi) < np.abs(f_lo), [hi, f_hi], [lo, f_lo])


def scan_roots(spec: ProblemSpec, s_min: float, s_max: float, samples: int,
               refine_tol: float = DEFAULT_REFINE_TOL,
               steps: int = dde_solver.DEFAULT_STEPS) -> list[Eigenpair]:
    """Locate eigenvalues by s-scan over [s_min, s_max].

    Samples F(s^2) at ``samples`` uniform points (roots are about a unit
    apart), refines every sign change, and returns the eigenpairs ordered
    by s with ordinal indices.  Roots of even multiplicity produce no sign
    change and are not found; an empty list is a valid outcome.
    """
    if not 0.0 < s_min < s_max < math.inf:
        raise ValueError("need 0 < s_min < s_max")
    if not 0.0 < refine_tol < math.inf:
        raise ValueError("refine_tol must be positive and finite")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(s_min, s_max, samples)
    F = char_fn_samples(spec, grid, steps)
    cols = _neighbourhood(np.nonzero(_sign_changes(F))[0], samples)
    # an outer cell with a sign change of its own is left out: its inner
    # end is repeated, so each row keeps the one sign change of its cell
    neg = F[cols] <= 0.0
    cols[:, 0] = np.where(neg[:, 0] != neg[:, 1], cols[:, 1], cols[:, 0])
    cols[:, 3] = np.where(neg[:, 2] != neg[:, 3], cols[:, 2], cols[:, 3])
    _, _, slope, root, F_root = _refine_brackets(spec, grid[cols], F[cols], refine_tol, steps)
    return [Eigenpair(int(i), float(s), float(s * s), float(k), float(f))
            for i, (s, k, f) in enumerate(zip(root, slope, F_root))]


def _screen(spec: ProblemSpec, grid: np.ndarray, steps: int):
    """F along each row of ``grid``, in one batched sweep, with per row the
    number of sign changes and the cell of the first one."""
    F = char_fn_samples(spec, grid.ravel(), steps).reshape(grid.shape)
    flips = _sign_changes(F)
    return F, flips.sum(axis=1), flips.argmax(axis=1)


def _confirm(spec: ProblemSpec, pts: np.ndarray, coarse: np.ndarray, steps: int):
    """Check coarse one-sign-change brackets at full resolution.

    ``pts`` holds per row four sorted points: the outer two are the subgrid
    points cell - 1 and cell + 2 around the coarse sign-change cell, clipped
    to the window (a clipped or repeated point adds no sign change), and
    ``coarse`` holds the coarse F at the subgrid points cell - 1 .. cell + 2.
    F is evaluated at the four points in one batched sweep.  A row is
    confirmed when these four values change sign exactly once and the outer
    two keep the signs the coarse F had there.  Returns per row whether it
    is confirmed and the four full-resolution values.
    """
    F = char_fn_samples(spec, pts.ravel(), steps).reshape(pts.shape)
    ok = ((_sign_changes(F).sum(axis=1) == 1) & ((F[:, 0] <= 0.0) == (coarse[:, 0] <= 0.0))
          & ((F[:, -1] <= 0.0) == (coarse[:, -1] <= 0.0)))
    return ok, F


def _window_brackets(spec: ProblemSpec, n_values, steps: int):
    """One sign-change bracket per unit window around each integer n, with
    the full-resolution samples around it.

    Each window is sampled at ``LOCALIZE_SUBGRID`` points.  All windows are
    first screened at ``coarse`` steps, the fewest (at least
    ``SCREEN_MIN_STEPS``, at most ``steps``) that keep s * h <= ``SCREEN_SH``
    at the largest s.  A window with exactly one coarse sign change is then
    confirmed at full resolution (``_confirm``), all windows in one sweep,
    from its subgrid points cell - 1 and cell + 2 and the two points x -+ d,
    all clamped into the span of the outer two: x is the root x_c of the
    inverse cubic through the coarse F at cell - 1 .. cell + 2 (of the
    quadratic through the three distinct points where the window's edge
    clips one) minus the difference of the phase errors at the coarse and
    the full steps, and d = ``REMAINDER`` x^3 h^4 plus max |x_q - x_c| over
    the inverse quadratic roots x_q, h = (pi/2) / coarse.  The cell that
    changes sign there is its bracket: x -+ d when they straddle the root,
    else a cell beside them.  Every window not confirmed is screened again at full
    resolution.  When ``coarse == steps`` the coarse screen already is the
    full one, and so it is when the coarse grid's samples of q and Delta
    fail their checks (it samples points ``validate`` at ``steps`` does
    not).  Each bracket is therefore a full-resolution sign change within
    the cells around a full-resolution screen's whenever the coarse and
    full-resolution F agree in sign away from the confirmed cells.

    Returns, one row per window, four sorted points around its bracket and
    the full-resolution F there: the ``_confirm`` points, or for a window
    screened at full resolution the subgrid points cell - 1 .. cell + 2,
    clipped as ``_confirm`` clips.  Raises ZeroOrManyError naming every
    window whose full-resolution subgrid does not show exactly one sign
    change.
    """
    n_values = [int(n) for n in n_values]
    grid = np.array([np.linspace(n - 0.5, n + 0.5, LOCALIZE_SUBGRID) for n in n_values])
    rows = np.arange(len(n_values))[:, None]
    coarse = min(steps, max(SCREEN_MIN_STEPS, math.ceil(grid.max() * HALF / SCREEN_SH)))
    try:
        F, count, cell = _screen(spec, grid, coarse)
    except (DelayRangeError, ExprDomainError):
        if coarse == steps:
            raise
        coarse = steps
        F, count, cell = _screen(spec, grid, steps)
    cols = _neighbourhood(cell, LOCALIZE_SUBGRID)
    pts, vals = grid[rows, cols], F[rows, cols]
    if coarse < steps:
        single = np.nonzero(count == 1)[0]
        ok = np.zeros(len(n_values), dtype=bool)
        if single.size:
            at = pts[single]
            lo, hi = at[:, :1], at[:, 3:]
            # the coarse inverse cubic root, moved by the phase error between
            # the coarse and the full steps; at a window's edge a clipped
            # point repeats, the cubic is NaN and the quadratic through the
            # three distinct points stands in.  fmax and fmin skip a NaN and
            # clamp into the outer span
            with np.errstate(all="ignore"):
                x_c, x_q = _inverse_interpolants(at, vals[single])
                x_c = np.where(np.isnan(x_c), np.fmax(x_q[:, 0], x_q[:, 1]), x_c)
                x = x_c - (dde_solver.phase_error(x_c, coarse) - dde_solver.phase_error(x_c, steps))
                x = np.fmin(np.fmax(x[:, None], lo), hi)
                spread = np.abs(x_q - x_c[:, None])
                d = (REMAINDER * x * x * x * (HALF / coarse) ** 4
                     + np.fmax(spread[:, :1], spread[:, 1:]))
                at[:, 1:3] = np.fmin(np.fmax(x + d * [-1.0, 1.0], lo), hi)
            ok[single], vals[single] = _confirm(spec, at, vals[single], steps)
            pts[single] = at
        redo = np.nonzero(~ok)[0]
        if redo.size:
            F, count[redo], cell[redo] = _screen(spec, grid[redo], steps)
            cols = _neighbourhood(cell[redo], LOCALIZE_SUBGRID)
            pts[redo] = grid[redo[:, None], cols]
            vals[redo] = F[np.arange(redo.size)[:, None], cols]
    failed = {n: int(c) for n, c in zip(n_values, count) if c != 1}
    if failed:
        raise ZeroOrManyError(failed)
    return pts, vals


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
    pts, vals = _window_brackets(spec, n_values, steps)
    _, _, slope, root, F_root = _refine_brackets(spec, pts, vals, refine_tol, steps)
    return [Eigenpair(int(i), float(s), float(s * s), float(k), float(f))
            for i, s, k, f in zip(n_values, root, slope, F_root)]


def localize_near_n(spec: ProblemSpec, n: int, refine_tol: float = DEFAULT_REFINE_TOL,
                    steps: int = dde_solver.DEFAULT_STEPS) -> Eigenpair:
    """The unique eigenvalue in the unit s-window around the integer n."""
    return localize_range(spec, [n], refine_tol, steps)[0]


def simplicity_certificates(pairs: list[Eigenpair]) -> list[SimplicityCertificate]:
    """Transversality checks for a batch of eigenpairs, from the pairs alone.

    The residual is the pair's ``F_residual``, F at its root s; the slope
    is refinement's, dF/dlambda = ``dF_ds / (2 s)``.  A certificate passes
    when the slope clears 10x the residual over its ``h`` =
    min(``CERT_STEP``, lambda/2).
    """
    out = []
    for p in pairs:
        d = min(CERT_STEP, 0.5 * p.lam)
        slope = p.dF_ds / (2.0 * p.s)
        out.append(SimplicityCertificate(
            dF_dlambda=slope, h=d, F_residual=p.F_residual,
            passed=bool(abs(slope) > 10.0 * abs(p.F_residual) / d)))
    return out
