import math

import numpy as np
import pytest

from delaybvp import dde_solver
from delaybvp.picard import (ContractionError, PicardDivergedError,
                             picard_w1, picard_w2)
from delaybvp.problem import HALF, DelayRangeError, ProblemSpec, q_norms
from delaybvp.quadrature import cumulative_simpson

PI = math.pi


def spec_of(q_l="0", q_r="0", d_l="0", d_r="0", alpha=HALF, beta=HALF, delta=1.0):
    return ProblemSpec.from_strings(q_l, q_r, d_l, d_r, alpha, beta, delta)


def test_zero_q_converges_in_one_iteration(null_spec):
    w1 = picard_w1(null_spec, 4.0)
    assert w1.iterations == 1
    exact = np.cos(2.0 * w1.nodes)
    assert np.max(np.abs(w1.values - exact)) < 1e-14
    assert np.max(np.abs(w1.derivs + 2.0 * np.sin(2.0 * w1.nodes))) < 1e-14


def test_zero_q_right_is_pure_free_term(null_spec):
    lam = 9.0
    w1 = picard_w1(null_spec, lam)
    w2 = picard_w2(null_spec, lam, w1)
    assert w2.iterations == 1
    s = 3.0
    expected = (1.0 / lam ** (1.0 / 3.0)) * np.cos(s * w2.nodes)
    assert np.max(np.abs(w2.values - expected)) < 1e-13


def test_cross_method_agreement_constant_q(constq_spec):
    lam = 25.0
    w1 = picard_w1(constq_spec, lam)
    w2 = picard_w2(constq_spec, lam, w1)
    shot = dde_solver.shoot(constq_spec, lam)
    xl = np.linspace(0, HALF, 801)
    xr = np.linspace(HALF, PI, 801)
    assert np.max(np.abs(w1.eval(xl) - shot.left.eval(xl))) < 1e-6
    assert np.max(np.abs(w2.eval(xr) - shot.right.eval(xr))) < 1e-6


def test_iteration_count_respects_contraction_bound(constq_spec):
    tol = 1e-12
    w1 = picard_w1(constq_spec, 25.0, tol=tol)
    q1 = q_norms(constq_spec).q1
    bound = math.ceil(math.log(tol) / math.log(q1 / 5.0)) + 2
    assert w1.iterations <= bound


def test_coupling_scales_free_term_inversely():
    # q = 0 on the right: w2 is the free term, proportional to 1/delta
    lam = 16.0
    base = spec_of(q_l="1", q_r="0", delta=1.0)
    halved = spec_of(q_l="1", q_r="0", delta=2.0)
    w1 = picard_w1(base, lam)
    w2_base = picard_w2(base, lam, w1)
    w2_half = picard_w2(halved, lam, w1)
    assert np.allclose(w2_half.values, 0.5 * w2_base.values, rtol=0, atol=1e-15)


def test_residual_field_below_tolerance(delayed_spec):
    tol = 1e-10
    w1 = picard_w1(delayed_spec, 100.0, tol=tol)
    assert w1.residual < tol


def test_converged_iterate_satisfies_equation(delayed_spec):
    # independent residual check: substitute the iterate into the right-hand
    # side once more with this test's own quadrature
    lam = 100.0
    s = 10.0
    w1 = picard_w1(delayed_spec, lam, tol=1e-12)
    xs = w1.nodes
    h = float(xs[1] - xs[0])
    q = np.sin(xs)
    delta = 0.5 * xs * (HALF - xs)
    g = q * np.interp(xs - delta, xs, w1.values)
    ic = cumulative_simpson(g * np.cos(s * xs), h)
    is_ = cumulative_simpson(g * np.sin(s * xs), h)
    rhs = np.cos(s * xs) - (np.sin(s * xs) * ic - np.cos(s * xs) * is_) / s
    assert np.max(np.abs(rhs - w1.values)) < 1e-10


def test_contraction_precondition_enforced():
    strong = spec_of(q_l="10", q_r="10")  # q1 = 5 pi ~ 15.7
    with pytest.raises(ContractionError):
        picard_w1(strong, 9.0)  # s = 3 <= q1
    right_only = spec_of(q_l="0", q_r="10")  # q1 = 0 but q2 = 5 pi
    w1 = picard_w1(right_only, 9.0)
    with pytest.raises(ContractionError):
        picard_w2(right_only, 9.0, w1)


def test_divergence_reported_when_starved_of_iterations(constq_spec):
    with pytest.raises(PicardDivergedError) as err:
        picard_w1(constq_spec, 25.0, max_iters=1, tol=1e-14)
    assert err.value.iterations == 1
    assert err.value.residual > 0


def test_no_iterations_allowed_is_divergence(constq_spec):
    with pytest.raises(PicardDivergedError) as err:
        picard_w1(constq_spec, 25.0, max_iters=0)
    assert err.value.iterations == 0
    assert err.value.residual == math.inf


@pytest.mark.parametrize("side, retard, check", [
    ("left", "-0.1", "delay_nonnegative_left"),
    ("left", "2*x", "delayed_argument_left"),
    ("right", "-0.1", "delay_nonnegative_right"),
])
def test_oracle_rejects_what_the_stepper_rejects(constq_spec, side, retard, check):
    # the oracle samples q and Delta as the stepper does, so a delay the
    # stepper refuses is refused here too, not clamped into range
    spec = spec_of(q_l="1", q_r="1", **{"d_l" if side == "left" else "d_r": retard})
    with pytest.raises(DelayRangeError, match=check):
        dde_solver.shoot(spec, 25.0)
    with pytest.raises(DelayRangeError, match=check):
        if side == "left":
            picard_w1(spec, 25.0)
        else:
            picard_w2(spec, 25.0, picard_w1(constq_spec, 25.0))


def test_w1_lambda_mismatch_rejected(constq_spec):
    w1 = picard_w1(constq_spec, 25.0)
    with pytest.raises(ValueError):
        picard_w2(constq_spec, 36.0, w1)


def test_positive_lambda_required(constq_spec):
    with pytest.raises(ValueError):
        picard_w1(constq_spec, -4.0)
