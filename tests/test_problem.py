import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaybvp import dde_solver
from delaybvp.exprlang import MAX_DEPTH, BinOp, Call, ExprDomainError, Num, Var
from delaybvp.problem import (HALF, DelayRangeError, ProblemSpec, check_refined_conditions,
                              is_case1, q_norms, validate)
from test_exprlang import _random_tree

PI = math.pi


def spec_of(q_l="0", q_r="0", d_l="0", d_r="0", alpha=HALF, beta=HALF, delta=1.0):
    return ProblemSpec.from_strings(q_l, q_r, d_l, d_r, alpha, beta, delta)


def test_zero_delay_passes_everything(null_spec):
    report = validate(null_spec)
    assert report.passed
    assert {c.name for c in report.checks} >= {
        "delay_nonnegative_left", "delayed_argument_left",
        "delayed_argument_right", "q_limit_left", "q_limit_right"}


def test_excessive_delay_fails_left_constraint():
    report = validate(spec_of(d_l="2*x"))
    bad = {c.name: c for c in report.checks}["delayed_argument_left"]
    assert not bad.passed
    assert not report.passed
    assert bad.worst_x is not None and bad.worst_x > 0.0


def test_delayed_reference_spec_passes(delayed_spec):
    assert validate(delayed_spec).passed


def test_delayed_reference_constraints_brute_force():
    # independent oracle: direct formulas minimized over a 10^4-point grid
    d_left = lambda x: 0.5 * x * (PI / 2 - x)
    d_right = lambda x: (x - PI / 2) * (PI - x) * 0.25
    xl = np.linspace(0.0, PI / 2, 10_000, endpoint=False)
    xr = np.linspace(PI / 2, PI, 10_001)[1:]
    assert d_left(xl).min() >= 0.0
    assert d_right(xr).min() >= 0.0
    assert (xl - d_left(xl)).min() >= 0.0
    assert (xr - d_right(xr)).min() >= PI / 2
    assert d_left(0.0) == 0.0
    assert d_right(PI / 2 + 1e-12) == pytest.approx(0.0, abs=1e-11)


def test_coupling_must_be_nonzero():
    with pytest.raises(ValueError, match="^transmission coupling must be nonzero$"):
        spec_of(delta=0.0)


@pytest.mark.parametrize("field", ["alpha", "beta", "coupling"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_angles_and_coupling_must_be_finite(field, value):
    values = {"alpha": HALF, "beta": HALF, "coupling": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a finite number$"):
        ProblemSpec.from_strings("0", "0", "0", "0", **values)


def _chain(levels):
    """A sum chain ``levels`` operators high, built without the parser, its
    deeper operand alternately on the left and on the right."""
    tree = Num(0.0)
    for level in range(levels):
        tree = BinOp("+", tree, Num(0.0)) if level % 2 else BinOp("+", Num(0.0), tree)
    return tree


@pytest.mark.parametrize("field", ["q_left", "q_right", "retard_left", "retard_right"])
def test_trees_nested_past_the_parser_bound_are_refused(field):
    # the parser's bound holds for trees built without it: a 3000-level tree
    # would end hashing or evaluating it in a RecursionError
    trees = dict.fromkeys(("q_left", "q_right", "retard_left", "retard_right"), Num(0.0))
    for levels in (3000, MAX_DEPTH + 1):
        with pytest.raises(ValueError, match=f"^{field}: more than {MAX_DEPTH} levels of nesting$"):
            ProblemSpec(**{**trees, field: _chain(levels)}, alpha=HALF, beta=HALF, coupling=1.0)
    spec = ProblemSpec(**{**trees, field: _chain(MAX_DEPTH)}, alpha=HALF, beta=HALF, coupling=1.0)
    assert validate(spec, 64).passed


def test_validate_min_grid():
    # validate samples the integrator's grid, which needs 2 steps per segment
    assert validate(spec_of(), steps_per_segment=2).passed
    for steps in (1, 0):
        with pytest.raises(ValueError):
            validate(spec_of(), steps_per_segment=steps)


def test_validate_is_deterministic(delayed_spec):
    assert validate(delayed_spec) == validate(delayed_spec)


def test_malformed_expression_surfaces_as_expr_error():
    # log of a negative value from x = 1 on: a failing check, not an exception
    report = validate(spec_of(q_l="log(1 - x)"))
    domain = {c.name: c for c in report.checks}["domain_left"]
    assert not domain.passed and not report.passed
    assert domain.detail.startswith("q_left: log of a non-positive value")
    assert "at x = " in domain.detail
    assert domain.worst_x == pytest.approx(1.0, abs=HALF / 4096)


@pytest.mark.parametrize("d_l, admissible", [("-1e-10", False), ("x + 1e-10", False),
                                             ("-1e-13", True), ("x + 1e-13", True),
                                             ("x + 1e-9*sin(128*x)^2", False)])
def test_delay_slack_is_the_integrators(d_l, admissible):
    # at 64 steps sin(128 x) vanishes at the nodes, so the last delay puts
    # x - Delta(x) below 0 only at the half steps, which the integrator reads too
    spec = spec_of(q_l="1", d_l=d_l)
    assert validate(spec, steps_per_segment=64).passed == admissible
    if admissible:
        dde_solver._left_tables(spec, 64)
    else:
        for _ in range(2):  # the failing samples are cached; the error is raised again
            with pytest.raises(DelayRangeError):
                dde_solver._left_tables(spec, 64)


SAMPLER_CHECKS = ("domain", "delay_nonnegative", "delayed_argument")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), admissible_delay=st.booleans(),
       steps=st.integers(2, 1024))
def test_validate_passing_means_the_tables_build(seed, admissible_delay, steps):
    """validate and check_refined_conditions never raise on random formulas,
    and a segment's tables build exactly when its sampled checks pass."""
    rng = random.Random(seed)
    q_l, q_r, d_l, d_r = (_random_tree(rng, depth=4, total_only=False) for _ in range(4))
    if admissible_delay:
        # Delta = (x - a) |sin(tree)| keeps Delta >= 0 and x - Delta >= a
        d_l, d_r = (BinOp("*", BinOp("-", Var(), Num(a)), Call("abs", Call("sin", t)))
                    for a, t in ((0.0, d_l), (HALF, d_r)))
    spec = ProblemSpec(q_l, q_r, d_l, d_r, alpha=HALF, beta=HALF, coupling=1.0)
    report = validate(spec, steps)
    check_refined_conditions(spec, steps)
    by_name = {c.name: c for c in report.checks}
    for side, tables in (("left", dde_solver._left_tables), ("right", dde_solver._right_tables)):
        if all(by_name[f"{name}_{side}"].passed for name in SAMPLER_CHECKS
               if f"{name}_{side}" in by_name):
            tables(spec, steps)
        else:
            assert not report.passed
            with pytest.raises((ExprDomainError, DelayRangeError)):
                tables(spec, steps)


# --- refined conditions -----------------------------------------------------


@pytest.mark.parametrize("q_l, refined_failed", [
    ("1.7e308*sin(1e12*x)", set()),
    ("1.7e308*sin(1000000*x)", {"q_derivative_bounded_left"}),
])
def test_differences_past_the_largest_double_fail_by_name(q_l, refined_failed):
    # finite samples of q whose differences overflow fail by name and warn of
    # nothing: the limit probe's tail always, q' where its grid differences do
    spec = spec_of(q_l=q_l)
    assert {c.name for c in validate(spec, 128).checks if not c.passed} == {"q_limit_left"}
    report = check_refined_conditions(spec, 128)
    assert {c.name for c in report.checks if not c.passed} == refined_failed


def test_zero_delay_satisfies_condition_b(null_spec):
    report = check_refined_conditions(null_spec)
    by_name = {c.name: c for c in report.checks}
    assert by_name["delay_slope_left"].passed
    assert by_name["delay_zero_at_origin"].passed
    assert by_name["delay_zero_at_interface"].passed
    assert by_name["case1_angles"].passed


def test_delayed_slope_peaks_at_origin(delayed_spec):
    # Delta_left'(x) = pi/4 - x: maximal slope pi/4 ~ 0.785 at x = 0
    report = check_refined_conditions(delayed_spec)
    slope = {c.name: c for c in report.checks}["delay_slope_left"]
    assert slope.passed
    assert slope.worst_x == pytest.approx(0.0, abs=1e-3)
    assert report.passed


def test_refined_conditions_read_the_grid_of_their_steps():
    # q' and Delta'' peak inside each subinterval, so a worst x off the
    # 300-step nodes means the checks sampled a second grid
    spec = spec_of(q_l="exp(-10*(x - 0.7)^2)", q_r="exp(-10*(x - 2.3)^2)",
                   d_l="0.5*x*(pi/2 - x)", d_r="(x - pi/2)*(pi - x)*0.25")
    nodes = np.concatenate([np.linspace(0.0, HALF, 301), np.linspace(HALF, PI, 301)])
    report = check_refined_conditions(spec, 300)
    worst = [c.worst_x for c in report.checks if c.worst_x is not None]
    assert len(worst) == 8
    assert all(np.any(nodes == x) for x in worst)


def test_steep_delay_fails_condition_b():
    report = check_refined_conditions(spec_of(d_l="1.2*x"))
    slope = {c.name: c for c in report.checks}["delay_slope_left"]
    assert not slope.passed


def test_alpha_zero_clears_case1_flag():
    report = check_refined_conditions(spec_of(alpha=0.0))
    assert not {c.name: c for c in report.checks}["case1_angles"].passed
    assert not is_case1(spec_of(alpha=0.0))
    assert is_case1(spec_of(alpha=PI / 4, beta=PI / 3))


# --- q norms ----------------------------------------------------------------


def test_q_norms_zero(null_spec):
    norms = q_norms(null_spec)
    assert norms.q1 == 0.0 and norms.q2 == 0.0


def test_q_norms_unit(constq_spec):
    norms = q_norms(constq_spec)
    assert norms.q1 == pytest.approx(PI / 2, rel=1e-12)
    assert norms.q2 == pytest.approx(PI / 2, rel=1e-12)


def test_q_norms_sine_closed_form():
    # integral of sin over [0, pi/2] = 1 - cos(pi/2) = 1
    norms = q_norms(spec_of(q_l="sin(x)", q_r="0"))
    assert norms.q1 == pytest.approx(1.0, rel=1e-10)
    assert norms.q2 == 0.0


def test_q_norms_scale_linearly():
    base = q_norms(spec_of(q_l="sin(x)", q_r="cos(x)"))
    scaled = q_norms(spec_of(q_l="3.5*sin(x)", q_r="3.5*cos(x)"))
    assert scaled.q1 == pytest.approx(3.5 * base.q1, rel=1e-12)
    assert scaled.q2 == pytest.approx(3.5 * base.q2, rel=1e-12)
