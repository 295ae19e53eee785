"""Problem instances for the delayed transmission boundary value problem.

A problem couples the second order equation

    y''(x) + q(x) * y(x - Delta(x)) + lambda * y(x) = 0

on [0, pi/2) u (pi/2, pi] with boundary conditions

    y(0) cos(alpha) + y'(0) sin(alpha) = 0,
    y(pi) cos(beta) + y'(pi) sin(beta) = 0,

and transmission conditions at the interface point pi/2 that carry the
spectral parameter through a real coupling constant delta:

    y(pi/2 - 0)  = lambda^(1/3) * delta * y(pi/2 + 0),
    y'(pi/2 - 0) = lambda^(1/3) * delta * y'(pi/2 + 0).

The coefficient q and the retardation Delta are given per subinterval as
expression trees.  Instances are immutable; every operation here is a pure
read of the instance.

``segment_samples`` is the one sampler of q and Delta: ``validate``, the
integrator and the Picard oracle take its checks, and ``coefficient_samples``
gives its node samples to the q norms and to K/L.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import exprlang
from ._frozen import Frozen
from .exprlang import Expr, ExprDomainError
from .quadrature import cumulative_simpson

__all__ = [
    "HALF",
    "ProblemSpec",
    "QNorms",
    "CheckResult",
    "ValidationReport",
    "Case1RequiredError",
    "DelayRangeError",
    "segment_samples",
    "coefficient_samples",
    "validate",
    "check_refined_conditions",
    "q_norms",
    "is_case1",
]

HALF = math.pi / 2.0
DEFAULT_STEPS = 4096

# absolute tolerance for the refined "= 0" retardation conditions and Delta' <= 1
ZERO_TOL = 1e-9
# slack of Delta >= 0 and x - Delta(x) >= a, the integrator's admissibility rule
DELAY_TOL = 1e-12


class Case1RequiredError(ValueError):
    """Raised when an operation needs sin(alpha) != 0 and sin(beta) != 0, or
    all the conditions of the refined asymptotics."""


class DelayRangeError(ValueError):
    """A delayed argument left the admissible range [a, x]."""


class ProblemSpec(Frozen):
    """Immutable problem instance.

    ``q_left``/``retard_left`` apply on [0, pi/2), ``q_right``/``retard_right``
    on (pi/2, pi].  ``alpha`` and ``beta`` are the finite boundary angles in
    radians, ``coupling`` is the finite, nonzero transmission constant.  The
    interface point is fixed at pi/2.  A tree nested more than
    ``exprlang.MAX_DEPTH`` levels deep is refused, as ``parse`` refuses its
    text, since evaluating and hashing it recurse once per level.
    """

    q_left: Expr
    q_right: Expr
    retard_left: Expr
    retard_right: Expr
    alpha: float
    beta: float
    coupling: float

    def __post_init__(self):
        for name in ("q_left", "q_right", "retard_left", "retard_right"):
            if sum(1 for _ in exprlang.levels(getattr(self, name))) > exprlang.MAX_DEPTH + 1:
                raise ValueError(f"{name}: more than {exprlang.MAX_DEPTH} levels of nesting")
        for name in ("alpha", "beta", "coupling"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.coupling == 0.0:
            raise ValueError("transmission coupling must be nonzero")

    @classmethod
    def from_strings(cls, q_left: str, q_right: str, retard_left: str,
                     retard_right: str, alpha: float, beta: float,
                     coupling: float) -> "ProblemSpec":
        return cls(
            q_left=exprlang.parse(q_left),
            q_right=exprlang.parse(q_right),
            retard_left=exprlang.parse(retard_left),
            retard_right=exprlang.parse(retard_right),
            alpha=float(alpha),
            beta=float(beta),
            coupling=float(coupling),
        )


class QNorms(Frozen):
    """Integrals of |q| over the two subintervals."""

    q1: float
    q2: float


class CheckResult(Frozen):
    name: str
    passed: bool
    worst_x: float | None
    detail: str


class ValidationReport(Frozen):
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            loc = "" if c.worst_x is None else f" (worst x = {c.worst_x:.9g})"
            out.append(f"[{mark}] {c.name}: {c.detail}{loc}")
        return out


class SegmentSamples(Frozen):
    """q and Delta at the integrator's nodes ``linspace(a, b, steps+1)`` and
    half steps ``nodes[:-1] + h/2``, each a (nodes, half steps) pair or None
    if the domain check fails; the checks and the first failure's exception."""

    a: float
    b: float
    h: float
    nodes: np.ndarray
    half: np.ndarray
    q: tuple | None
    delta: tuple | None
    checks: tuple[CheckResult, ...]
    error: Exception | None


def _inequality_check(name, xs, values, threshold, tol=ZERO_TOL):
    """Check values >= threshold - tol, reporting the margin over threshold."""
    worst = int(np.argmin(values))
    margin = float(values[worst]) - threshold
    passed = bool(values[worst] >= threshold - tol)
    detail = f"min margin {margin:.3e}" if passed else f"violated by {-margin:.3e}"
    return CheckResult(name, passed, float(xs[worst]), detail)


def _bounded_check(name, xs, values, label):
    """Check that finite-difference values of ``label`` are all finite,
    reporting the largest magnitude, or else the first node where one is not."""
    bad = ~np.isfinite(values)
    if bad.any():
        return CheckResult(name, False, float(xs[bad.argmax()]), f"first non-finite {label}")
    worst = int(np.argmax(np.abs(values)))
    return CheckResult(name, True, float(xs[worst]), f"max |{label}| ~ {abs(values[worst]):.6g}")


def _sampled(expr: Expr, nodes: np.ndarray, half: np.ndarray) -> tuple:
    """expr at the nodes and the half steps.  Evaluating warns of nothing;
    a value that is not finite where evaluation raised nothing (``1e308*10``,
    ``sin`` of an infinity) is a domain error at the first x where it is."""
    values = tuple(np.asarray(expr.eval(xs), dtype=float) for xs in (nodes, half))
    bad = np.concatenate([xs[~np.isfinite(v)] for xs, v in zip((nodes, half), values)])
    if bad.size:
        raise ExprDomainError(expr, float(bad.min()), "non-finite value")
    return values


@lru_cache(maxsize=32)
def segment_samples(q_expr: Expr, delta_expr: Expr, a: float, b: float,
                    steps: int) -> SegmentSamples:
    """q and Delta where the integrator reads them on [a, b] at ``steps``
    steps, checked by ``domain_<side>`` (evaluation raised nothing and gave
    finite values), then
    ``delay_nonnegative_<side>`` and ``delayed_argument_<side>``
    (x - Delta(x) >= a), both with slack ``DELAY_TOL``."""
    if steps < 2:
        raise ValueError("need at least 2 steps per segment")
    h = (b - a) / steps
    nodes = np.linspace(a, b, steps + 1)
    half = nodes[:-1] + 0.5 * h
    side = "left" if a + b < 2.0 * HALF else "right"
    q = None
    try:
        q = _sampled(q_expr, nodes, half)
        delta = _sampled(delta_expr, nodes, half)
    except ExprDomainError as exc:
        key = ("q_" if q is None else "retard_") + side
        domain = CheckResult(f"domain_{side}", False, exc.x, f"{key}: {exc}")
        return SegmentSamples(a, b, h, nodes, half, None, None, (domain,),
                              exc.with_traceback(None))
    for v in (nodes, half, *q, *delta):  # cached and shared by every reader
        v.flags.writeable = False
    xs, ds = np.concatenate([nodes, half]), np.concatenate(delta)
    checks = (CheckResult(f"domain_{side}", True, None, f"q and Delta defined at {xs.size} points"),
              _inequality_check(f"delay_nonnegative_{side}", xs, ds, 0.0, DELAY_TOL),
              _inequality_check(f"delayed_argument_{side}", xs, xs - ds, a, DELAY_TOL))
    bad = [c for c in checks if not c.passed]
    error = (DelayRangeError(f"{bad[0].name}: {bad[0].detail} at x = {bad[0].worst_x:.12g}")
             if bad else None)
    return SegmentSamples(a, b, h, nodes, half, q, delta, checks, error)


def _spec_samples(spec: ProblemSpec, steps: int) -> tuple[SegmentSamples, SegmentSamples]:
    return (segment_samples(spec.q_left, spec.retard_left, 0.0, HALF, steps),
            segment_samples(spec.q_right, spec.retard_right, HALF, math.pi, steps))


def _one_sided_limit_check(name, expr: Expr, approach: str) -> CheckResult:
    """Probe for a finite one-sided limit at the interface by sampling a
    geometric approach and requiring Cauchy behavior of the tail."""
    sign = -1.0 if approach == "left" else +1.0
    offsets = 10.0 ** -np.arange(3, 10, dtype=float)
    xs = HALF + sign * offsets
    try:
        vals = np.asarray(expr.eval(xs), dtype=float)
    except ExprDomainError as exc:
        return CheckResult(name, False, exc.x, str(exc))
    # finite samples near the largest double may differ by an overflow: not settled
    with np.errstate(over="ignore", invalid="ignore"):
        cauchy = bool(np.all(np.isfinite(vals))
                      and np.all(np.abs(np.diff(vals[-4:])) <= 1e-6 * (1.0 + abs(float(vals[-1])))))
    detail = (f"limit ~ {vals[-1]:.9g}" if cauchy
              else "samples do not settle approaching pi/2")
    return CheckResult(name, cauchy, float(xs[-1]), detail)


def validate(spec: ProblemSpec, steps_per_segment: int = DEFAULT_STEPS) -> ValidationReport:
    """Check the constraints of the problem class on the integrator's grid
    at ``steps_per_segment``.

    Verified: on each subinterval the ``segment_samples`` checks (q and
    Delta defined, Delta >= 0, x - Delta(x) >= 0 on the left and >= pi/2 on
    the right); finite one-sided limits of q at the interface.  Passing
    means the integrator builds its tables at that step count.  Failures
    are report entries; fewer than 2 steps is a ValueError.
    """
    left, right = _spec_samples(spec, steps_per_segment)
    return ValidationReport((
        *left.checks,
        *right.checks,
        _one_sided_limit_check("q_limit_left", spec.q_left, "left"),
        _one_sided_limit_check("q_limit_right", spec.q_right, "right"),
    ))


def is_case1(spec: ProblemSpec) -> bool:
    """True when sin(alpha) != 0 and sin(beta) != 0 (beyond 1e-12), the only
    angle regime covered by the refined asymptotic formulas."""
    return abs(math.sin(spec.alpha)) > 1e-12 and abs(math.sin(spec.beta)) > 1e-12


# eigfn and verify read the report in the CLI and again in the refined forms
@lru_cache(maxsize=8)
def check_refined_conditions(spec: ProblemSpec, steps: int = DEFAULT_STEPS) -> ValidationReport:
    """Report on the extra smoothness/retardation conditions for the refined
    asymptotics, read from the integrator's node samples at ``steps`` steps,
    the grid K and L integrate.

    Condition a): q' and Delta'' exist and stay bounded on each subinterval
    (estimated by finite differences; where one is not finite, the check
    fails at the first node where it is not).  Condition b): Delta'(x) <= 1 at the
    nodes, Delta(0) = 0 and Delta(pi/2 + 0) = 0 within 1e-9.  A subinterval
    whose samples fail their domain check reports that check instead.  The
    last check, ``case1_angles``, is the angle regime (sin(alpha) != 0 and
    sin(beta) != 0) required before any refined prediction may be used.
    """
    checks = []
    for name, zero_at, label, s in zip(("left", "right"), ("origin", "interface"),
                                       ("Delta(0)", "Delta(pi/2 + 0)"),
                                       _spec_samples(spec, steps)):
        if s.delta is None:
            checks.append(s.checks[0])
            continue
        xs, q, d = s.nodes, s.q[0], s.delta[0]
        # a difference that overflows is an unbounded derivative, reported by name
        with np.errstate(over="ignore", invalid="ignore"):
            qp = np.gradient(q, s.h, edge_order=2)
            dp = np.gradient(d, s.h, edge_order=2)
            dpp = np.gradient(dp, s.h, edge_order=2)
        checks.append(_bounded_check(f"q_derivative_bounded_{name}", xs, qp, "q'"))
        checks.append(_bounded_check(f"delay_second_derivative_bounded_{name}", xs, dpp,
                                     "Delta''"))
        checks.append(_inequality_check(f"delay_slope_{name}", xs, -dp, -1.0))
        d0 = float(d[0])
        checks.append(CheckResult(f"delay_zero_at_{zero_at}", abs(d0) <= ZERO_TOL, s.a,
                                  f"{label} = {d0:.3e}"))

    checks.append(CheckResult(
        "case1_angles", is_case1(spec), None,
        f"sin(alpha) = {math.sin(spec.alpha):.6g}, sin(beta) = {math.sin(spec.beta):.6g}"))
    return ValidationReport(tuple(checks))


def coefficient_samples(spec: ProblemSpec, steps: int = DEFAULT_STEPS) -> tuple:
    """Both subintervals' ``segment_samples`` at ``steps`` steps, for
    quadrature: a side whose q or Delta left its domain raises that
    ``ExprDomainError`` afresh; a failed delay rule does not stop quadrature."""
    sides = _spec_samples(spec, steps)
    for s in sides:
        if s.delta is None:
            raise s.error.with_traceback(None)
    return sides


def q_norms(spec: ProblemSpec, steps: int = DEFAULT_STEPS) -> QNorms:
    """Composite-Simpson integrals of |q| over each subinterval's nodes at ``steps`` steps."""
    q1, q2 = (cumulative_simpson(np.abs(s.q[0]), s.h)[-1]
              for s in coefficient_samples(spec, steps))
    return QNorms(q1=float(q1), q2=float(q2))
