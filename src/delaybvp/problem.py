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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exprlang
from .exprlang import Expr
from .quadrature import cumulative_simpson, odd_point_count

__all__ = [
    "HALF",
    "ProblemSpec",
    "QNorms",
    "CheckResult",
    "ValidationReport",
    "ConditionReport",
    "Case1RequiredError",
    "validate",
    "check_refined_conditions",
    "q_norms",
    "is_case1",
]

HALF = math.pi / 2.0

# absolute tolerance for the "= 0" retardation conditions and inequality slack
ZERO_TOL = 1e-9
# offset used to probe one-sided limits at the interface
LIMIT_OFFSET = 1e-9


class Case1RequiredError(ValueError):
    """Raised when an operation needs sin(alpha) != 0 and sin(beta) != 0."""


def _as_expr(value) -> Expr:
    return value if not isinstance(value, str) else exprlang.parse(value)


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable problem instance.

    ``q_left``/``retard_left`` apply on [0, pi/2), ``q_right``/``retard_right``
    on (pi/2, pi].  ``alpha`` and ``beta`` are the boundary angles in radians,
    ``coupling`` is the nonzero transmission constant.  The interface point is
    fixed at pi/2.
    """

    q_left: Expr
    q_right: Expr
    retard_left: Expr
    retard_right: Expr
    alpha: float
    beta: float
    coupling: float

    def __post_init__(self):
        if self.coupling == 0.0:
            raise ValueError("transmission coupling must be nonzero")

    @classmethod
    def from_strings(cls, q_left: str, q_right: str, retard_left: str,
                     retard_right: str, alpha: float, beta: float,
                     coupling: float) -> "ProblemSpec":
        return cls(
            q_left=_as_expr(q_left),
            q_right=_as_expr(q_right),
            retard_left=_as_expr(retard_left),
            retard_right=_as_expr(retard_right),
            alpha=float(alpha),
            beta=float(beta),
            coupling=float(coupling),
        )


@dataclass(frozen=True)
class QNorms:
    """Integrals of |q| over the two subintervals."""

    q1: float
    q2: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_x: float | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
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


@dataclass(frozen=True)
class ConditionReport(ValidationReport):
    case1: bool


def _grids(grid_points: int):
    """Half-open sampling grids for the two subintervals."""
    left = np.linspace(0.0, HALF, grid_points, endpoint=False)
    right = np.linspace(HALF, math.pi, grid_points + 1)[1:]
    return left, right


def _inequality_check(name, xs, values, threshold, sense, tol=ZERO_TOL):
    """Check values >= threshold (sense '>=') or <= threshold ('<=')."""
    values = np.asarray(values, dtype=float)
    margin = values - threshold if sense == ">=" else threshold - values
    worst = int(np.argmin(margin))
    passed = bool(margin[worst] >= -tol)
    detail = (f"min margin {margin[worst]:.3e}" if passed
              else f"violated by {-margin[worst]:.3e}")
    return CheckResult(name, passed, float(np.asarray(xs)[worst]), detail)


def _one_sided_limit_check(name, expr: Expr, approach: str) -> CheckResult:
    """Probe for a finite one-sided limit at the interface by sampling a
    geometric approach and requiring Cauchy behavior of the tail."""
    sign = -1.0 if approach == "left" else +1.0
    offsets = 10.0 ** -np.arange(3, 10, dtype=float)
    xs = HALF + sign * offsets
    vals = np.asarray(expr.eval(xs), dtype=float)
    finite = np.all(np.isfinite(vals))
    diffs = np.abs(np.diff(vals[-4:]))
    scale = 1.0 + abs(float(vals[-1]))
    cauchy = bool(finite and np.all(diffs <= 1e-6 * scale))
    detail = (f"limit ~ {vals[-1]:.9g}" if cauchy
              else "samples do not settle approaching pi/2")
    return CheckResult(name, cauchy, float(xs[-1]), detail)


def validate(spec: ProblemSpec, grid_points: int = 4096) -> ValidationReport:
    """Check the structural constraints of the problem class on a grid.

    Verified: coupling != 0, Delta >= 0 on both sides, x - Delta(x) >= 0 on
    the left and >= pi/2 on the right, and finite one-sided limits of q at
    the interface.  Failures are report entries, never exceptions; malformed
    expressions do raise (as expression-language errors).
    """
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    left, right = _grids(grid_points)
    d_left = np.asarray(spec.retard_left.eval(left), dtype=float)
    d_right = np.asarray(spec.retard_right.eval(right), dtype=float)

    checks = [
        CheckResult("coupling_nonzero", spec.coupling != 0.0, None,
                    f"coupling = {spec.coupling:.9g}"),
        _inequality_check("delay_nonnegative_left", left, d_left, 0.0, ">="),
        _inequality_check("delay_nonnegative_right", right, d_right, 0.0, ">="),
        _inequality_check("delayed_argument_left", left, left - d_left, 0.0, ">="),
        _inequality_check("delayed_argument_right", right, right - d_right, HALF, ">="),
        _one_sided_limit_check("q_limit_left", spec.q_left, "left"),
        _one_sided_limit_check("q_limit_right", spec.q_right, "right"),
    ]
    return ValidationReport(tuple(checks))


def _fd_first(values: np.ndarray, h: float) -> np.ndarray:
    return np.gradient(values, h, edge_order=2)


def _fd_second(values: np.ndarray, h: float) -> np.ndarray:
    d2 = np.empty_like(values)
    d2[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    d2[0] = d2[1]
    d2[-1] = d2[-2]
    return d2


def is_case1(spec: ProblemSpec, tol: float = 1e-12) -> bool:
    """True when sin(alpha) != 0 and sin(beta) != 0, the only angle regime
    covered by the refined asymptotic formulas."""
    return abs(math.sin(spec.alpha)) > tol and abs(math.sin(spec.beta)) > tol


def check_refined_conditions(spec: ProblemSpec, grid_points: int = 4096) -> ConditionReport:
    """Report on the extra smoothness/retardation conditions for the refined
    asymptotics.

    Condition a): q' and Delta'' exist and stay bounded on each subinterval
    (estimated by finite differences).  Condition b): Delta'(x) <= 1 on the
    grid, Delta(0) = 0 and Delta(pi/2 + 0) = 0 within 1e-9.  The report also
    flags the angle regime (sin(alpha) != 0 and sin(beta) != 0) required
    before any refined prediction may be used.
    """
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    left, right = _grids(grid_points)
    h_l = float(left[1] - left[0])
    h_r = float(right[1] - right[0])

    checks = []
    for name, xs, h, q_expr, d_expr in (
        ("left", left, h_l, spec.q_left, spec.retard_left),
        ("right", right, h_r, spec.q_right, spec.retard_right),
    ):
        qv = np.asarray(q_expr.eval(xs), dtype=float)
        dv = np.asarray(d_expr.eval(xs), dtype=float)
        qp = _fd_first(qv, h)
        dp = _fd_first(dv, h)
        dpp = _fd_second(dv, h)
        checks.append(CheckResult(
            f"q_derivative_bounded_{name}", bool(np.all(np.isfinite(qp))),
            float(xs[int(np.argmax(np.abs(qp)))]),
            f"max |q'| ~ {np.max(np.abs(qp)):.6g}"))
        checks.append(CheckResult(
            f"delay_second_derivative_bounded_{name}", bool(np.all(np.isfinite(dpp))),
            float(xs[int(np.argmax(np.abs(dpp)))]),
            f"max |Delta''| ~ {np.max(np.abs(dpp)):.6g}"))
        checks.append(_inequality_check(
            f"delay_slope_{name}", xs, dp, 1.0, "<="))

    d0 = float(spec.retard_left.eval(0.0))
    checks.append(CheckResult(
        "delay_zero_at_origin", abs(d0) <= ZERO_TOL, 0.0, f"Delta(0) = {d0:.3e}"))
    d_half = float(spec.retard_right.eval(HALF + LIMIT_OFFSET))
    checks.append(CheckResult(
        "delay_zero_at_interface", abs(d_half) <= ZERO_TOL,
        HALF + LIMIT_OFFSET, f"Delta(pi/2 + 0) = {d_half:.3e}"))

    case1 = is_case1(spec)
    checks.append(CheckResult(
        "case1_angles", case1, None,
        f"sin(alpha) = {math.sin(spec.alpha):.6g}, sin(beta) = {math.sin(spec.beta):.6g}"))
    return ConditionReport(tuple(checks), case1=case1)


@lru_cache(maxsize=64)
def _q_norms_cached(spec: ProblemSpec, quadrature_points: int) -> QNorms:
    n = odd_point_count(quadrature_points)
    left = np.linspace(0.0, HALF, n)
    right = np.linspace(HALF, math.pi, n)
    q1 = cumulative_simpson(np.abs(np.asarray(spec.q_left.eval(left), dtype=float)),
                            float(left[1] - left[0]))[-1]
    q2 = cumulative_simpson(np.abs(np.asarray(spec.q_right.eval(right), dtype=float)),
                            float(right[1] - right[0]))[-1]
    return QNorms(q1=float(q1), q2=float(q2))


def q_norms(spec: ProblemSpec, quadrature_points: int = 4097) -> QNorms:
    """Composite-Simpson integrals of |q| over each subinterval."""
    return _q_norms_cached(spec, int(quadrature_points))
