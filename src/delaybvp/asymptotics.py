"""Closed-form asymptotic predictions and their verification against the
computed spectrum.

For large n the eigenvalue roots s_n = sqrt(lambda_n) sit near the integers,
with a first-order correction driven by the boundary angles and by the
retardation integrals

    K(x, s) = 1/2 * integral_0^x q(t) sin(s Delta(t)) dt,
    L(x, s) = 1/2 * integral_0^x q(t) cos(s Delta(t)) dt,

namely  s_n = n + (cot(beta) - cot(alpha) - L(pi, n)) / (n pi) + O(1/n^2).
K and L at any set of points x in [0, pi] and any set of s come from one
cumulative Simpson pass per subinterval over the integrator's node samples
of q and Delta, integrated for blocks of s at once along the node axis and
read between the nodes by cubic Hermite interpolation.  So a whole
eigenfunction profile and pi cost one evaluation for every index together,
and it yields every refined prediction of those indices: ``predict_s_many``
makes one at pi alone for its root estimates, and ``eigenfunction_table``
one for every index's forms and root estimates, which it tabulates beside
the computed eigenfunctions, the one path from roots to eigenfunction rows;
``verify_rates`` reads its estimates from that table.
Matching refined eigenfunction forms exist on both subintervals; on the
right interval the printed inner correction carries a 1/(n^(5/3) pi)
scaling that looks inconsistent with the structurally parallel left form
(1/(n pi)).  It is implemented exactly as printed, and the rate report
additionally measures the 1/(n pi) variant so the data can adjudicate.
Every refined prediction first calls ``require_refined``, the one refusal
of a problem that fails ``check_refined_conditions``.

Predictions never add the remainder terms; ``verify_rates`` measures them
instead (log-log slope fits with a floor cutoff, since residuals at the
precision floor would flatten any fit).  The module also evaluates the
a-priori solution bounds that hold for lambda above thresholds set by the
integral norms of q, and the O(1/s) decay of the oscillatory q-integrals
that the refined formulas rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dde_solver
from .problem import (DEFAULT_STEPS, HALF, Case1RequiredError, ProblemSpec,
                      check_refined_conditions, coefficient_samples, q_norms)
from .quadrature import cumulative_simpson, hermite
from .spectral import Eigenpair

__all__ = [
    "AsymptoticEstimate",
    "AprioriBounds",
    "RateReport",
    "DegenerateNormError",
    "InsufficientRangeError",
    "kl_integrals",
    "require_refined",
    "predict_s",
    "predict_s_many",
    "predict_eigenfunction",
    "eigenfunction_table",
    "apriori_bounds",
    "oscillatory_q_integral",
    "verify_rates",
]

# fit-exclusion floors: residuals below these are measurement noise, not
# signal, and would flatten or invert the slope fits.  Root locations are
# good to ~1e-8 at the default 4096-step resolution (integrator phase error
# at n ~ 50 plus the refinement tolerance), eigenfunction samples to ~1e-7.
# Rate verification at coarser resolution will fit integrator noise instead
# of signal; run it at default steps.
RESIDUAL_FLOOR = 1e-12
S_RESIDUAL_FLOOR = 1e-7
EIGFN_RESIDUAL_FLOOR = 1e-6

# the slope gates, as (summary label, ``RateReport`` field, threshold): a fit
# passes at or below its threshold; margins allow pre-asymptotic effects at
# the modest n reachable on a desk machine
SLOPE_GATES = (
    ("eigenvalue refinement", "refined_s_fit", -1.7),
    ("eigenfunction (leading)", "leading_eigfn_fit", -0.3),
    ("eigenfunction (refined)", "refined_eigfn_fit", -1.7),
    ("oscillatory integral decay", "osc_fit", -0.8),
)
DRIFT_RATIO_MAX = 1.5
AMP_REL_ERR_MAX = 0.2
OSC_S_VALUES = (10.0, 20.0, 40.0, 80.0)  # s of the oscillatory integral's decay fit
EIGFN_SAMPLES = 257  # points per subinterval of the eigenfunction error grids
MIN_RATE_INDICES = 8  # fewest indices a rate report fits over
# K/L and the oscillatory integral integrate blocks of s whose (block, nodes)
# arrays stay within KL_BYTES (3 values of s at 4096 steps), so that a batch
# of any length adds no more to the heap than a few single-s passes; K/L
# stacks a block's sin and cos channels, so its temporaries are twice that
KL_BYTES = 2 ** 17


class DegenerateNormError(ValueError):
    """q vanishes identically, so the 1/q1 bound factors are undefined."""


class InsufficientRangeError(ValueError):
    """Too few indices supplied for a meaningful rate fit."""


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Predicted root location for index n.

    The leading estimate is n itself; ``s_refined`` adds the first-order correction.
    """

    n: int
    s_refined: float


@dataclass(frozen=True)
class AprioriBounds:
    """A-priori sup bounds for the shooting solutions.

    ``bound1`` caps |w1| for lambda >= 4 q1^2, ``bound2`` caps |w2| for
    lambda >= max(4 q1^2, 4 q2^2), ``deriv_bound`` caps |w1'| / s^(5/3) for
    s >= 2 q1.  The applicability flags report whether the supplied lambda
    clears each threshold; the bound values are reported regardless.
    """

    bound1: float
    bound2: float
    deriv_bound: float
    applicable1: bool
    applicable2: bool
    deriv_applicable: bool


@dataclass(frozen=True)
class SlopeFit:
    slope: float | None
    points: int
    floor_limited: bool

    def ok(self, threshold: float) -> bool:
        return self.floor_limited or (self.slope is not None and self.slope <= threshold)


@dataclass(frozen=True)
class RateReport:
    indices: tuple[int, ...]
    s_values: tuple[float, ...]
    s_refined: tuple[float, ...]
    drift: tuple[float, ...]               # n^(1/3) |s_n - n|
    drift_first_max: float
    drift_second_max: float
    drift_bounded: bool
    refined_s_fit: SlopeFit                # |s_n - s_refined(n)| vs n
    leading_eigfn_fit: SlopeFit            # left-interval sup error, leading form
    refined_eigfn_fit: SlopeFit            # left-interval sup error, refined form
    right_refined_fit_printed: SlopeFit    # right interval, inner term as printed
    right_refined_fit_alt: SlopeFit        # right interval, 1/(n pi) variant
    amp_ratio: float
    amp_ratio_expected: float
    amp_rel_err: float
    osc_s: tuple[float, ...]
    osc_values: tuple[float, ...]
    osc_fit: SlopeFit

    @property
    def passed(self) -> bool:
        return (self.drift_bounded
                and self.amp_rel_err <= AMP_REL_ERR_MAX
                and all(getattr(self, field).ok(threshold)
                        for _, field, threshold in SLOPE_GATES))


def _s_values(s) -> np.ndarray:
    """s, a scalar or a 1-D array, as a 1-D array whose entries are finite."""
    ss = np.asarray(s, dtype=float)
    if ss.ndim > 1:
        raise ValueError("s must be a scalar or a 1-D array")
    if not np.all(np.isfinite(ss)):
        raise ValueError("s must be finite")
    return np.atleast_1d(ss)


def _s_blocks(count: int, nodes: int) -> list[slice]:
    """Slices cutting ``count`` values of s into consecutive blocks, each of
    as many values (at least one) as keep a (block, nodes) array of doubles
    within ``KL_BYTES``."""
    rows = max(1, KL_BYTES // (8 * nodes))
    return [slice(lo, lo + rows) for lo in range(0, count, rows)]


def kl_integrals(spec: ProblemSpec, x, s, steps: int = DEFAULT_STEPS):
    """The retardation integrals (K(x, s), L(x, s)) for x in [0, pi], scalar
    or array: one cumulative Simpson pass per subinterval over that side's
    ``coefficient_samples`` at ``steps`` steps gives them at the integrator's
    nodes, and between nodes they are the cubic Hermite interpolant with the
    integrands as slopes.  Any x gets the same value alone or in any array;
    x = 0 gets exactly 0.

    s is a scalar, or a 1-D array whose values are integrated together in
    blocks along the node axis; then K and L have shape (len(s), len(x)),
    or (len(s),) for a scalar x, and every entry is bitwise the value of a
    call with that s alone."""
    ss = _s_values(s)
    scalar_x = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xs >= 0.0) & (xs <= math.pi)):
        raise ValueError("x must lie in [0, pi]")
    right = xs > HALF
    tables = coefficient_samples(spec, steps)
    kl = np.empty((2, ss.size, xs.size))
    for rows in _s_blocks(ss.size, tables[0].nodes.size):
        block = ss[rows, None]
        offset = np.zeros((2, block.shape[0], 1))
        for samples, side in zip(tables, (~right, right)):
            nodes, q, d = samples.nodes, samples.q[0], samples.delta[0]
            h = float(nodes[1] - nodes[0])
            # the sin and cos channels as one (2, block, nodes) array
            integrand = q * np.stack([trig(block * d) for trig in (np.sin, np.cos)])
            running = cumulative_simpson(integrand, h)
            kl[:, rows][:, :, side] = offset + hermite(nodes, running, integrand, xs[side])
            offset += running[..., -1:]
    kl *= 0.5
    k, l = kl
    if scalar_x:
        k, l = k[:, 0], l[:, 0]
    if np.ndim(s) > 0:
        return k, l
    return (float(k[0]), float(l[0])) if scalar_x else (k[0], l[0])


def require_refined(spec: ProblemSpec, steps: int = DEFAULT_STEPS) -> None:
    """Raise ``Case1RequiredError`` naming every failed check of
    ``check_refined_conditions`` at ``steps`` steps, the angles' included."""
    report = check_refined_conditions(spec, steps)
    if not report.passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise Case1RequiredError(f"fails {failed}, needed by the refined asymptotics")


def predict_s_many(spec: ProblemSpec, indices,
                   steps: int = DEFAULT_STEPS) -> list[AsymptoticEstimate]:
    """Asymptotic root estimates for every index of ``indices``, in order,
    from one ``kl_integrals`` call at pi, after ``require_refined``."""
    ns = [int(n) for n in indices]
    if any(n < 1 for n in ns):
        raise ValueError("n must be a positive integer")
    return [AsymptoticEstimate(n=n, s_refined=s)
            for n, s in zip(ns, _predictions(spec, ns, np.empty(0), steps)[3])]


def predict_s(spec: ProblemSpec, n: int, steps: int = DEFAULT_STEPS) -> AsymptoticEstimate:
    """Asymptotic root estimate for index n: ``predict_s_many`` of n alone."""
    return predict_s_many(spec, [n], steps)[0]


def _amplitude(spec: ProblemSpec, n23, xs: np.ndarray) -> np.ndarray:
    """sin(alpha) on the left, sin(alpha) / (n^(2/3) delta) past the interface,
    for ``n23`` = n^(2/3), a float or an (indices, 1) column."""
    sin_a = math.sin(spec.alpha)
    return np.where(xs > HALF, sin_a / (n23 * spec.coupling), sin_a)


def _refined_form(spec: ProblemSpec, n, xs: np.ndarray, k: np.ndarray,
                  l: np.ndarray, right_scaling) -> np.ndarray:
    """The refined eigenfunction over its amplitude at xs, from K and L at xs
    followed by pi on their last axis: cos nx [1 + K/n] - sin nx / scaling *
    [bracket], the inner scaling n pi on the left and ``right_scaling`` past
    the interface; n and it are (indices, 1) columns."""
    cot_a = 1.0 / math.tan(spec.alpha)
    cot_b = 1.0 / math.tan(spec.beta)
    scaling = np.where(xs > HALF, right_scaling, n * math.pi)
    bracket = (cot_b - cot_a - l[..., -1:]) * xs + (cot_a + l[..., :-1]) * math.pi
    return np.cos(n * xs) * (1.0 + k[..., :-1] / n) - (np.sin(n * xs) / scaling) * bracket


def _eigfn_points(x) -> np.ndarray:
    """x raveled to floats, each in [0, pi] but off the interface point."""
    xs = np.ravel(np.asarray(x, dtype=float))
    if not np.all((xs >= 0.0) & (xs <= math.pi) & (xs != HALF)):
        raise ValueError("x must lie in [0, pi/2) u (pi/2, pi]")
    return xs


def _predictions(spec: ProblemSpec, indices: list[int], xs: np.ndarray,
                 steps: int) -> tuple:
    """(leading, printed, alt, s_refined) for every index, after
    ``require_refined``, from one ``kl_integrals`` call at xs followed by pi:
    the leading, printed and 1/(n pi) eigenfunction forms at xs as (indices,
    xs) arrays, and the refined root estimates as a list of floats.  The one
    path from K and L to refined forms and estimates: ``predict_s_many`` and
    ``predict_eigenfunction``'s refined form read them from here, and each
    leading row is bitwise ``predict_eigenfunction``'s."""
    require_refined(spec, steps)
    n = np.array(indices, dtype=float)[:, None]
    k, l = kl_integrals(spec, np.append(xs, math.pi), n[:, 0], steps)
    # Python's pow, as for one index: numpy's array power differs from it in
    # the last bit at some n (n^(5/3) at n = 17 with numpy 2.4)
    amplitude = _amplitude(spec, np.array([[m ** (2.0 / 3.0)] for m in indices]), xs)
    printed = np.array([[(m ** (5.0 / 3.0)) * math.pi] for m in indices])
    cot_gap = (1.0 / math.tan(spec.beta)) - (1.0 / math.tan(spec.alpha))
    return (amplitude * np.cos(n * xs),
            amplitude * _refined_form(spec, n, xs, k, l, printed),
            amplitude * _refined_form(spec, n, xs, k, l, n * math.pi),
            [m + (cot_gap - float(l_pi)) / (m * math.pi) for m, l_pi in zip(indices, l[:, -1])])


def predict_eigenfunction(spec: ProblemSpec, n: int, x, order: str = "leading",
                          steps: int = DEFAULT_STEPS):
    """Asymptotic eigenfunction value(s) at x, omitting the remainder.

    ``order`` selects the leading form (pure cosine with the n^(-2/3)/delta
    amplitude drop past the interface) or the refined form with the
    retardation corrections, whose right-interval inner term carries the
    printed 1/(n^(5/3) pi) scaling: the printed row of ``_predictions``
    for n alone, after ``require_refined``.  The interface point itself is
    rejected: the eigenfunction is two-valued there.
    """
    if order not in ("leading", "refined"):
        raise ValueError("order must be 'leading' or 'refined'")
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    shape = np.shape(x)
    xs = _eigfn_points(x)
    if order == "leading":
        out = _amplitude(spec, n ** (2.0 / 3.0), xs) * np.cos(n * xs)
    else:
        out = _predictions(spec, [n], xs, steps)[1][0]
    return out.reshape(shape) if shape else float(out[0])


def eigenfunction_table(spec: ProblemSpec, pairs: list[Eigenpair], xs,
                        steps: int = DEFAULT_STEPS) -> tuple:
    """(u, leading, printed, alt, s_refined): the computed eigenfunction of
    every pair and its leading, printed refined and 1/(n pi) refined forms at
    xs, as (pairs, xs) arrays, and every pair's refined root estimate, after
    ``require_refined``; x is checked like ``predict_eigenfunction``'s.  One
    ``kl_integrals`` call serves every form and estimate, and then one
    ``shoot_many`` call every row of u, one ``hermite`` call per side on the
    pairs' stacked node data.  Each row is bitwise the pair's own ``shoot``
    segments' ``eval`` and ``predict_eigenfunction``, and each estimate
    ``predict_s``'s."""
    xs = _eigfn_points(xs)
    if not pairs:
        raise ValueError("need at least one eigenpair")
    predictions = _predictions(spec, [p.index for p in pairs], xs, steps)
    shots = dde_solver.shoot_many(spec, [p.lam for p in pairs], steps)
    right = xs > HALF
    u = np.empty((len(pairs), xs.size))
    for part, segments in ((~right, [shot.left for shot in shots]),
                           (right, [shot.right for shot in shots])):
        u[:, part] = hermite(segments[0].nodes, np.array([g.values for g in segments]),
                             np.array([g.derivs for g in segments]), xs[part])
    return (u, *predictions)


def apriori_bounds(spec: ProblemSpec, lam: float,
                   steps: int = DEFAULT_STEPS) -> AprioriBounds:
    """A-priori sup bounds for |w1|, |w2| and |w1'|/s^(5/3).

    The bound values depend only on q1 and the angles (the |w2| bound keeps
    its printed q1-only right side even though its threshold involves q2).
    Degenerate when q1 = 0: the 1/q1 factors are undefined, so identically
    vanishing q is excluded from bound checks.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
    norms = q_norms(spec, steps)
    q1, q2 = norms.q1, norms.q2
    if q1 == 0.0:
        raise DegenerateNormError("bounds need q1 > 0")
    s = math.sqrt(lam)
    amplitude = math.sqrt(4.0 * q1 * q1 * math.sin(spec.alpha) ** 2
                          + math.cos(spec.alpha) ** 2)
    bound1 = amplitude / abs(q1)
    bound2 = 2.0 * 2.0 ** (1.0 / 3.0) / (q1 ** (5.0 / 3.0) * spec.coupling) * amplitude
    deriv_bound = amplitude / (4.0 * q1 ** 5) ** (1.0 / 3.0)
    # thresholds inherit quadrature rounding from q1, q2; compare with slack
    slack = 1.0 - 1e-9
    return AprioriBounds(
        bound1=bound1, bound2=bound2, deriv_bound=deriv_bound,
        applicable1=bool(lam >= 4.0 * q1 * q1 * slack),
        applicable2=bool(lam >= max(4.0 * q1 * q1, 4.0 * q2 * q2) * slack),
        deriv_applicable=bool(s >= 2.0 * q1 * slack),
    )


def oscillatory_q_integral(spec: ProblemSpec, s, steps: int = DEFAULT_STEPS):
    """integral_0^(pi/2) q(t) cos(s (2t - Delta(t))) dt over the left node samples,
    the oscillatory integral whose O(1/s) decay underpins the refined formulas.

    A scalar s gives a float; a 1-D array of s gives an array, integrated in
    blocks like ``kl_integrals``, each entry bitwise the scalar call's."""
    ss = _s_values(s)
    left = coefficient_samples(spec, steps)[0]
    xs, q, d = left.nodes, left.q[0], left.delta[0]
    h = float(xs[1] - xs[0])
    phase = 2.0 * xs - d
    out = np.empty(ss.size)
    for rows in _s_blocks(ss.size, xs.size):
        out[rows] = cumulative_simpson(q * np.cos(ss[rows, None] * phase), h)[:, -1]
    return out if np.ndim(s) > 0 else float(out[0])


def _fit_slope(n_values, residuals, floor: float = RESIDUAL_FLOOR) -> SlopeFit:
    n_values = np.asarray(n_values, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    keep = residuals > floor
    if int(keep.sum()) < 3:
        return SlopeFit(slope=None, points=int(keep.sum()), floor_limited=True)
    slope = float(np.polyfit(np.log(n_values[keep]), np.log(residuals[keep]), 1)[0])
    return SlopeFit(slope=slope, points=int(keep.sum()), floor_limited=False)


def verify_rates(spec: ProblemSpec, pairs: list[Eigenpair],
                 steps: int = DEFAULT_STEPS) -> RateReport:
    """Measure the remainder orders of every asymptotic claim at once.

    Checks, over the pairs' indices: boundedness of n^(1/3) |s_n - n|
    (second-half max against first-half max), the decay rate of the refined
    eigenvalue residual, the decay rates of the eigenfunction errors against
    the leading and refined forms (left interval; the right interval is
    reported for both printed and alternative inner scalings), the
    n^(-2/3)/|delta| amplitude drop across the interface at the largest n,
    and the O(1/s) decay of the oscillatory q-integral.  One
    ``oscillatory_q_integral`` call serves every s of ``OSC_S_VALUES``, and
    one ``eigenfunction_table`` call over every index, at both eigenfunction
    grids (``EIGFN_SAMPLES`` points per subinterval), the computed
    eigenfunctions, every form and the refined root estimates, so one
    ``kl_integrals`` call serves the whole report; both quadratures run
    before the table's ``shoot_many``, and the table refuses failed refined
    conditions.
    """
    by_n = {p.index: p for p in pairs}
    indices = sorted(by_n)
    if len(indices) < MIN_RATE_INDICES:
        raise InsufficientRangeError(
            f"need at least {MIN_RATE_INDICES} indices, got {len(indices)}")

    ns = np.array(indices, dtype=float)
    s_vals = np.array([by_n[n].s for n in indices])
    xs = np.concatenate([np.linspace(0.0, HALF, EIGFN_SAMPLES, endpoint=False),
                         np.linspace(HALF, math.pi, EIGFN_SAMPLES)[1:]])
    left, right = slice(None, EIGFN_SAMPLES), slice(EIGFN_SAMPLES, None)
    osc_vals = np.abs(oscillatory_q_integral(spec, np.array(OSC_S_VALUES), steps))
    u, leading, printed, alt, s_ref = eigenfunction_table(
        spec, [by_n[n] for n in indices], xs, steps)

    drift = np.cbrt(ns) * np.abs(s_vals - ns)
    mid = 0.5 * (ns[0] + ns[-1])
    # indices whose shift sits at the root-location floor carry no signal
    meaningful = np.abs(s_vals - ns) > S_RESIDUAL_FLOOR
    first = drift[(ns <= mid) & meaningful]
    second = drift[(ns > mid) & meaningful]
    drift_first = float(np.max(first)) if first.size else 0.0
    drift_second = float(np.max(second)) if second.size else 0.0
    drift_bounded = bool(drift_second <= DRIFT_RATIO_MAX * max(drift_first, S_RESIDUAL_FLOOR))

    refined_s_fit = _fit_slope(ns, np.abs(s_vals - s_ref), S_RESIDUAL_FLOOR)

    # sup errors per index: leading and refined on the left, then the right
    # interval's inner scaling as printed, 1/(n^(5/3) pi), and the 1/(n pi)
    # variant that parallels the left interval
    errors = [np.max(np.abs(u[:, part] - form[:, part]), axis=1) for form, part in
              ((leading, left), (printed, left), (printed, right), (alt, right))]

    # the rows run in index order: u[-1] holds the largest index's samples
    n_top = indices[-1]
    amp_ratio = float(np.max(np.abs(u[-1, right])) / np.max(np.abs(u[-1, left])))
    amp_expected = n_top ** (-2.0 / 3.0) / abs(spec.coupling)
    amp_rel_err = abs(amp_ratio - amp_expected) / amp_expected

    osc_fit = _fit_slope(np.asarray(OSC_S_VALUES), osc_vals)

    return RateReport(
        indices=tuple(indices),
        s_values=tuple(float(v) for v in s_vals),
        s_refined=tuple(float(v) for v in s_ref),
        drift=tuple(float(v) for v in drift),
        drift_first_max=drift_first,
        drift_second_max=drift_second,
        drift_bounded=drift_bounded,
        refined_s_fit=refined_s_fit,
        leading_eigfn_fit=_fit_slope(ns, errors[0], EIGFN_RESIDUAL_FLOOR),
        refined_eigfn_fit=_fit_slope(ns, errors[1], EIGFN_RESIDUAL_FLOOR),
        right_refined_fit_printed=_fit_slope(ns, errors[2], EIGFN_RESIDUAL_FLOOR),
        right_refined_fit_alt=_fit_slope(ns, errors[3], EIGFN_RESIDUAL_FLOOR),
        amp_ratio=amp_ratio,
        amp_ratio_expected=amp_expected,
        amp_rel_err=float(amp_rel_err),
        osc_s=OSC_S_VALUES,
        osc_values=tuple(float(v) for v in osc_vals),
        osc_fit=osc_fit,
    )
