import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaybvp import asymptotics, cli, dde_solver
from delaybvp.asymptotics import (EIGFN_RESIDUAL_FLOOR, EIGFN_SAMPLES, OSC_S_VALUES,
                                  DegenerateNormError, InsufficientRangeError, _fit_slope,
                                  kl_integrals, apriori_bounds,
                                  oscillatory_q_integral, predict_s, predict_s_many,
                                  predict_eigenfunction, verify_rates)
from delaybvp.exprlang import ExprDomainError
from delaybvp.problem import Case1RequiredError, HALF, ProblemSpec, q_norms
from delaybvp.quadrature import cumulative_simpson, hermite
from delaybvp.spectral import localize_range

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def spec_of(q_l="0", q_r="0", d_l="0", d_r="0", alpha=HALF, beta=HALF, delta=1.0):
    return ProblemSpec.from_strings(q_l, q_r, d_l, d_r, alpha, beta, delta)


# --- retardation integrals ----------------------------------------------------


def test_kl_zero_delay(constq_spec):
    for s in (1.0, 7.0, 33.0):
        k, l = kl_integrals(constq_spec, PI, s)
        assert k == 0.0
        assert l == pytest.approx(PI / 2, rel=1e-12)
    k, l = kl_integrals(constq_spec, 1.0, 5.0)
    assert l == pytest.approx(0.5, rel=1e-12)


def test_kl_zero_q(null_spec):
    assert kl_integrals(null_spec, PI, 9.0) == (0.0, 0.0)


def test_kl_constant_delay_closed_form():
    # q = 1, Delta = 0.3 (quadrature check only; a constant delay violates
    # the retardation conditions and is never used as a problem instance);
    # 0.37, 1.0 and 2.5 fall between quadrature nodes on either side
    spec = spec_of(q_l="1", q_r="1", d_l="0.3", d_r="0.3")
    for s in (2.0, 11.5):
        for x in (0.37, 1.0, HALF, 2.5, PI):
            k, l = kl_integrals(spec, x, s)
            assert k == pytest.approx((x / 2) * math.sin(0.3 * s), rel=1e-12)
            assert l == pytest.approx((x / 2) * math.cos(0.3 * s), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(xs=st.lists(st.one_of(st.sampled_from([HALF, PI]),
                             st.floats(0.0, PI, exclude_min=True)),
                   min_size=1, max_size=12),
       # values drawn from a short list repeat; up to 7 of them span three
       # blocks of s at the default steps
       s=st.lists(st.floats(0.0, 60.0, exclude_min=True), min_size=1, max_size=3).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=7)))
def test_kl_array_matches_scalar_calls(delayed_spec, xs, s):
    k, l = kl_integrals(delayed_spec, np.array(xs), np.array(s))
    assert k.shape == l.shape == (len(s), len(xs))
    for i, si in enumerate(s):
        singles = np.array([kl_integrals(delayed_spec, x, si) for x in xs])
        assert np.array_equal(k[i], singles[:, 0]) and np.array_equal(l[i], singles[:, 1])
    # a scalar x gives one value per s
    k0, l0 = kl_integrals(delayed_spec, xs[0], np.array(s))
    assert np.array_equal(k0, k[:, 0]) and np.array_equal(l0, l[:, 0])


def test_kl_batch_temporaries_do_not_grow_with_the_batch(delayed_spec):
    # the heap a call needs past the arrays it returns is that of one block
    # of s: unblocked, 64 values at the default 4096 steps would hold
    # (64, 4097) temporaries of 2 MiB each
    xs = np.linspace(0.0, PI, 514)
    kl_integrals(delayed_spec, xs, 1.0)  # sample the coefficients first

    def excess(count):
        tracemalloc.start()
        try:
            k, l = kl_integrals(delayed_spec, xs, np.arange(1.0, count + 1.0))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert k.shape == l.shape == (count, xs.size)
        return peak - retained

    # 3 values of s fill one block at 4096 steps
    assert excess(64) <= excess(3) + 2 ** 16


def test_kl_small_s_limits(delayed_spec):
    k, l = kl_integrals(delayed_spec, PI, 1e-9)
    assert abs(k) < 1e-9
    _, l_half = kl_integrals(delayed_spec, HALF, 1e-9)
    # L -> (1/2) integral of q: (1/2)(1 - cos(pi/2)) = 1/2 on the left piece
    assert l_half == pytest.approx(0.5, rel=1e-6)


def test_kl_domain(delayed_spec):
    # both integrals start at x = 0, so K and L are exactly 0 there, alone
    # or in an array
    assert kl_integrals(delayed_spec, 0.0, 7.0) == (0.0, 0.0)
    k, l = kl_integrals(delayed_spec, np.array([0.0, 1.0, PI]), 7.0)
    assert k[0] == 0.0 and l[0] == 0.0
    for bad in (math.nan, -1e-300, -0.1, PI + 0.1):
        with pytest.raises(ValueError, match=r"x must lie in \[0, pi\]"):
            kl_integrals(delayed_spec, bad, 1.0)


def test_quadrature_reads_the_integrators_node_samples(delayed_spec):
    # K/L, the oscillatory integral and the q norms integrate q and Delta as
    # the integrator samples them at 4096 steps: the same bits as evaluating
    # the expressions directly on linspace(a, b, 4097) and integrating there
    spec, xs, s = delayed_spec, np.array([0.3, HALF, 2.0, PI]), 7.5
    kl_ref = np.empty((2, xs.size))
    offset = np.zeros(2)
    norms = []
    for q_expr, d_expr, a, b, side in (
            (spec.q_left, spec.retard_left, 0.0, HALF, xs <= HALF),
            (spec.q_right, spec.retard_right, HALF, PI, xs > HALF)):
        nodes = np.linspace(a, b, 4097)
        h = float(nodes[1] - nodes[0])
        q, d = q_expr.eval(nodes), d_expr.eval(nodes)
        norms.append(float(cumulative_simpson(np.abs(q), h)[-1]))
        if a == 0.0:
            osc_ref = float(cumulative_simpson(q * np.cos(s * (2.0 * nodes - d)), h)[-1])
        for c, integrand in enumerate((q * np.sin(s * d), q * np.cos(s * d))):
            running = cumulative_simpson(integrand, h)
            kl_ref[c, side] = offset[c] + hermite(nodes, running, integrand, xs[side])
            offset[c] += running[-1]
    k, l = kl_integrals(spec, xs, s)
    assert np.array_equal(np.stack([k, l]), 0.5 * kl_ref)
    assert oscillatory_q_integral(spec, s) == osc_ref
    assert (q_norms(spec).q1, q_norms(spec).q2) == tuple(norms)


@settings(max_examples=20, deadline=None)
@given(s=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=7))
def test_oscillatory_array_matches_scalar_calls(delayed_spec, s):
    values = oscillatory_q_integral(delayed_spec, np.array(s))
    assert np.array_equal(values, [oscillatory_q_integral(delayed_spec, v) for v in s])


def test_kl_raises_where_q_overflows():
    # no numpy warning and no non-finite K/L: the sampler names the first x
    spec = spec_of(q_l="1e200*exp(1000*(0.5 - x))")
    with pytest.raises(ExprDomainError, match=r"non-finite value .* at x = 0\.0$"):
        kl_integrals(spec, PI, 5.0)


# --- eigenvalue predictions ---------------------------------------------------


def test_predict_identity_for_null(null_spec):
    for n in (1, 7, 40):
        est = predict_s(null_spec, n)
        assert est.s_refined == n
        assert kl_integrals(null_spec, PI, float(n)) == (0.0, 0.0)


def test_predict_beta_quarter():
    est = predict_s(spec_of(beta=PI / 4), 20)
    assert est.s_refined == pytest.approx(20.0 + 1.0 / (20.0 * PI), rel=1e-12)


def test_predict_constant_q(constq_spec):
    for n in (5, 12):
        est = predict_s(constq_spec, n)
        assert est.s_refined == pytest.approx(n - 1.0 / (2.0 * n), rel=1e-10)


def test_predict_requires_case1():
    with pytest.raises(Case1RequiredError):
        predict_s(spec_of(alpha=0.0), 10)
    with pytest.raises(Case1RequiredError):
        predict_s_many(spec_of(alpha=0.0), [10, 11])


def test_failed_refined_conditions_refuse_every_refined_prediction():
    # sin(alpha) != 0, but the delay slope exceeds 1 near x = 0.2: predict_s,
    # predict_s_many and the refined eigenfunction all refuse, naming the check
    spec = spec_of(q_l="1", d_l="x*(1 - cos(8*x))/2")
    named = r"^fails delay_slope_left, needed by the refined asymptotics$"
    with pytest.raises(Case1RequiredError, match=named):
        predict_s(spec, 5, 256)
    with pytest.raises(Case1RequiredError, match=named):
        predict_s_many(spec, [5, 6], 256)
    with pytest.raises(Case1RequiredError, match=named):
        predict_eigenfunction(spec, 5, 0.3, "refined", 256)
    # the leading form needs none of the conditions
    assert predict_eigenfunction(spec, 5, 0.0, "leading", 256) == 1.0


def test_predict_s_many_matches_single_predictions(delayed_spec):
    indices = [5, 9, 9, 40, 6]
    assert predict_s_many(delayed_spec, indices, 512) == [
        predict_s(delayed_spec, n, 512) for n in indices]
    # bitwise the closed form on K/L of that index alone at pi alone
    cot_gap = 1.0 / math.tan(delayed_spec.beta) - 1.0 / math.tan(delayed_spec.alpha)
    ns = range(1, 60)
    closed = [n + (cot_gap - kl_integrals(delayed_spec, PI, float(n), 512)[1]) / (n * PI)
              for n in ns]
    assert [e.s_refined for e in predict_s_many(delayed_spec, ns, 512)] == closed
    assert predict_s_many(delayed_spec, [], 512) == []
    with pytest.raises(ValueError, match="n must be a positive integer"):
        predict_s_many(delayed_spec, [3, 0], 512)


@pytest.mark.parametrize("call, match", [
    (lambda spec: kl_integrals(spec, 1.0, [[3.0, 4.0]], 64), "s must be a scalar or a 1-D array"),
    (lambda spec: oscillatory_q_integral(spec, np.full((2, 2), 3.0), 64),
     "s must be a scalar or a 1-D array"),
    (lambda spec: predict_eigenfunction(spec, 5, 0.3, "middle"),
     "order must be 'leading' or 'refined'"),
    (lambda spec: predict_eigenfunction(spec, 0, 0.3), "n must be a positive integer"),
], ids=["kl_integrals_2d", "oscillatory_q_integral_2d", "predict_order", "predict_index"])
def test_asymptotics_arguments_named(delayed_spec, call, match):
    with pytest.raises(ValueError, match=match):
        call(delayed_spec)


# --- eigenfunction predictions --------------------------------------------------


def test_leading_value_at_origin():
    spec = spec_of(alpha=1.1)
    for n in (3, 17):
        assert predict_eigenfunction(spec, n, 0.0) == pytest.approx(math.sin(1.1))


def test_refined_left_reduces_to_cosine_for_null(null_spec):
    xs = np.linspace(0.0, HALF, 33, endpoint=False)
    vals = predict_eigenfunction(null_spec, 6, xs, "refined")
    assert np.allclose(vals, np.cos(6 * xs), rtol=0, atol=1e-12)


def test_refined_left_constant_q_bracket_cancels(constq_spec):
    # L(x) = x/2 makes (-L(pi) x + L(x) pi) vanish: the value is cos(n x)
    n, x = 10, 1.0
    val = predict_eigenfunction(constq_spec, n, x, "refined")
    k, l_pi = kl_integrals(constq_spec, PI, float(n))
    _, l_x = kl_integrals(constq_spec, x, float(n))
    oracle = (math.cos(n * x) * (1.0 + k / n)
              - (math.sin(n * x) / (n * PI)) * (-l_pi * x + l_x * PI))
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(math.cos(10.0), rel=1e-9)


def test_right_amplitude_prefactor(null_spec):
    n = 8
    x = HALF + 1e-3
    left_ref = predict_eigenfunction(null_spec, n, HALF - 1e-3)
    right = predict_eigenfunction(null_spec, n, x)
    ratio = abs(right / left_ref)
    assert ratio == pytest.approx(n ** (-2.0 / 3.0), rel=1e-2)


def test_interface_point_rejected(null_spec):
    with pytest.raises(ValueError):
        predict_eigenfunction(null_spec, 4, HALF)


def test_refined_refuses_non_case1():
    with pytest.raises(Case1RequiredError):
        predict_eigenfunction(spec_of(alpha=0.0), 5, 0.3, "refined")


@settings(max_examples=15, deadline=None)
@given(extra=st.lists(st.integers(1, 120), max_size=4))
def test_eigfn_form_rows_match_single_index_forms(delayed_spec, extra):
    # the table builds every index's forms as one (indices, x) array from one
    # K/L call; each row must be bitwise the form of that index alone on K/L
    # of that index alone, and each root estimate predict_s's.  The batch
    # takes n^(2/3) and n^(5/3) from Python's pow, as one index does: numpy's
    # array power differs from it in the last bit at n^(2/3), n = 24, and at
    # n^(5/3), n = 17, 25, 26, 42 and 45 (numpy 2.4)
    indices = [5, 17, 24, 25, 26, 42, 45] + extra
    xs = np.concatenate([np.linspace(0.0, HALF, EIGFN_SAMPLES, endpoint=False),
                         np.linspace(HALF, PI, EIGFN_SAMPLES)[1:]])
    grid = np.append(xs, PI)
    single_kl = [kl_integrals(delayed_spec, grid, float(n), 512) for n in indices]
    *forms, s_refined = asymptotics._predictions(delayed_spec, indices, xs, 512)
    assert all(form.shape == (len(indices), xs.size) for form in forms)
    assert s_refined == [predict_s(delayed_spec, n, 512).s_refined for n in indices]
    for i, (n, (k_n, l_n)) in enumerate(zip(indices, single_kl)):
        alt = (asymptotics._amplitude(delayed_spec, n ** (2.0 / 3.0), xs)
               * asymptotics._refined_form(delayed_spec, n, xs, k_n, l_n, n * PI))
        singles = (predict_eigenfunction(delayed_spec, n, xs, "leading", 512),
                   predict_eigenfunction(delayed_spec, n, xs, "refined", 512), alt)
        for form, single in zip(forms, singles):
            assert np.array_equal(form[i], single)


def test_leading_refined_gap_shrinks_like_1_over_n(delayed_spec):
    xs = np.linspace(0.0, HALF, 65, endpoint=False)
    gaps = []
    for n in (10, 20, 40):
        lead = predict_eigenfunction(delayed_spec, n, xs, "leading")
        ref = predict_eigenfunction(delayed_spec, n, xs, "refined")
        gaps.append(n * np.max(np.abs(lead - ref)))
    assert max(gaps) < 10.0
    assert max(gaps) < 3.0 * min(gaps)


# --- a-priori bounds ------------------------------------------------------------


def test_apriori_bound_values_constant_q(constq_spec):
    bounds = apriori_bounds(constq_spec, lam=PI * PI)
    assert bounds.bound1 == pytest.approx(2.0, rel=1e-10)
    assert bounds.applicable1 and bounds.applicable2 and bounds.deriv_applicable
    below = apriori_bounds(constq_spec, lam=1.0)
    assert not below.applicable1 and not below.applicable2
    assert below.bound1 == pytest.approx(2.0, rel=1e-10)


def test_apriori_bound_alpha_zero():
    spec = spec_of(q_l="1", q_r="1", alpha=0.0)
    bounds = apriori_bounds(spec, lam=30.0)
    q1 = q_norms(spec).q1
    assert bounds.bound1 == pytest.approx(1.0 / q1, rel=1e-10)


def test_apriori_bounds_degenerate_for_zero_q(null_spec):
    with pytest.raises(DegenerateNormError):
        apriori_bounds(null_spec, 25.0)


def test_sampled_solutions_respect_bounds(constq_spec):
    xs_l = np.linspace(0.0, HALF, 512)
    xs_r = np.linspace(HALF, PI, 512)
    for lam in (25.0, 100.0):
        bounds = apriori_bounds(constq_spec, lam)
        shot = dde_solver.shoot(constq_spec, lam)
        s = math.sqrt(lam)
        assert np.max(np.abs(shot.left.eval(xs_l))) <= bounds.bound1
        assert np.max(np.abs(shot.right.eval(xs_r))) <= bounds.bound2
        assert np.max(np.abs(shot.left.eval_deriv(xs_l))) / s ** (5.0 / 3.0) \
            <= bounds.deriv_bound


def test_every_eigenpair_within_bounds(constq_spec, constq_pairs):
    xs_l = np.linspace(0.0, HALF, 512)
    xs_r = np.linspace(HALF, PI, 512)
    shots = dde_solver.shoot_many(constq_spec, [p.lam for p in constq_pairs])
    for p, shot in zip(constq_pairs, shots):
        bounds = apriori_bounds(constq_spec, p.lam)
        assert bounds.applicable1 and bounds.applicable2 and bounds.deriv_applicable
        assert np.max(np.abs(shot.left.eval(xs_l))) <= bounds.bound1
        assert np.max(np.abs(shot.right.eval(xs_r))) <= bounds.bound2
        assert np.max(np.abs(shot.left.eval_deriv(xs_l))) / p.s ** (5.0 / 3.0) \
            <= bounds.deriv_bound


# --- oscillatory integral and rate report ---------------------------------------


def test_oscillatory_integral_decays(delayed_spec):
    vals = [abs(oscillatory_q_integral(delayed_spec, s)) for s in (10.0, 80.0)]
    assert vals[1] < vals[0] / 8.0


def test_verify_rates_needs_enough_indices(null_spec):
    pairs = localize_range(null_spec, range(5, 10), steps=512)
    with pytest.raises(InsufficientRangeError, match="got 5$"):
        verify_rates(null_spec, pairs, 512)


def test_verify_rates_null_spec_floor_limited(null_spec):
    indices = range(5, 14)
    pairs = localize_range(null_spec, indices, steps=1024)
    report = verify_rates(null_spec, pairs)
    assert report.refined_s_fit.floor_limited
    assert report.leading_eigfn_fit.floor_limited
    assert report.drift_bounded
    assert report.passed


@pytest.fixture(scope="module")
def delayed_rate_inputs(delayed_spec):
    """Eigenpairs n = 5..12 of the delayed problem at 512 steps."""
    return localize_range(delayed_spec, range(5, 13), steps=512)


def test_verify_rates_integrates_kl_in_one_call(delayed_spec, delayed_rate_inputs,
                                                monkeypatch, tmp_path, capsys):
    # one oscillatory call over every s of OSC_S_VALUES, then the table's
    # one K/L call over every index, both before the eigenfunctions are built;
    # the verify command makes no other K/L call
    calls = []

    def recording(name, func):
        def wrapped(spec, *args):
            calls.append((name, args))
            return func(spec, *args)
        return wrapped

    for module, name in ((asymptotics, "kl_integrals"),
                         (asymptotics, "oscillatory_q_integral"),
                         (dde_solver, "shoot_many")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    report = verify_rates(delayed_spec, delayed_rate_inputs, steps=512)
    order = ["oscillatory_q_integral", "kl_integrals", "shoot_many"]
    assert [name for name, _ in calls] == order
    assert np.array_equal(calls[0][1][0], OSC_S_VALUES)
    assert np.array_equal(calls[1][1][1], report.indices)

    calls.clear()
    doc = json.loads((CONFIG_DIR / "delayed.json").read_text())
    doc["solver"]["steps_per_segment"] = 512
    doc["range"] = {"n_min": 5, "n_max": 12}
    (tmp_path / "verify.json").write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(tmp_path / "verify.json")]) == 0
    assert [name for name, _ in calls] == order
    assert json.loads(capsys.readouterr().out)["residual_table"] == [
        {"n": n, "s_n": s, "s_refined": r, "abs_residual": abs(s - r), "drift": d}
        for n, s, r, d in zip(report.indices, report.s_values, report.s_refined, report.drift)]


def test_verify_rates_fits_match_predict_eigenfunction(delayed_spec, delayed_rate_inputs):
    # the report's eigenfunction errors are those of predict_eigenfunction on
    # the report's two grids against the shooting solutions, and its root
    # estimates predict_s's, bit for bit
    pairs = delayed_rate_inputs
    report = verify_rates(delayed_spec, pairs, steps=512)
    assert report.s_refined == tuple(predict_s(delayed_spec, n, 512).s_refined
                                     for n in report.indices)
    shots = dde_solver.shoot_many(delayed_spec, [p.lam for p in pairs], 512)
    xs_left = np.linspace(0.0, HALF, EIGFN_SAMPLES, endpoint=False)
    xs_right = np.linspace(HALF, PI, EIGFN_SAMPLES)[1:]
    ns = [p.index for p in pairs]
    for field, order, xs, side in (("leading_eigfn_fit", "leading", xs_left, "left"),
                                   ("refined_eigfn_fit", "refined", xs_left, "left"),
                                   ("right_refined_fit_printed", "refined", xs_right, "right")):
        errors = [np.max(np.abs(getattr(shot, side).eval(xs) - predict_eigenfunction(
            delayed_spec, p.index, xs, order, 512))) for p, shot in zip(pairs, shots)]
        fit = getattr(report, field)
        assert not fit.floor_limited
        assert fit == _fit_slope(ns, errors, EIGFN_RESIDUAL_FLOOR)


def test_verify_rates_evaluates_no_segment_alone(delayed_spec, delayed_rate_inputs,
                                               monkeypatch):
    # the computed eigenfunctions come from the table's stacked rows, not
    # from one segment evaluation per index and side
    def refuse(self, x):
        raise AssertionError("SolutionSegment.eval called")

    monkeypatch.setattr(dde_solver.SolutionSegment, "eval", refuse)
    assert verify_rates(delayed_spec, delayed_rate_inputs, steps=512).passed


@settings(max_examples=15, deadline=None)
@given(order=st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
       xs=st.lists(st.one_of(st.sampled_from([0.0, PI, HALF - 1e-9, HALF + 1e-9]),
                             st.floats(0.0, PI).filter(lambda x: x != HALF)),
                   min_size=1, max_size=10))
def test_eigenfunction_table_rows_match_single_index_paths(delayed_spec, delayed_rate_inputs,
                                                           order, xs):
    # for any subset and order of the pairs, each row is bitwise what the
    # single-index paths give for its pair alone: its shot's segments, the
    # leading and refined predict_eigenfunction, the 1/(n pi) form and
    # predict_s
    pairs = [delayed_rate_inputs[i] for i in order]
    xs = np.array(xs)
    *table, s_refined = asymptotics.eigenfunction_table(delayed_spec, pairs, xs, 512)
    assert all(rows.shape == (len(pairs), xs.size) for rows in table)
    assert s_refined == [predict_s(delayed_spec, p.index, 512).s_refined for p in pairs]
    right = xs > HALF
    for i, p in enumerate(pairs):
        shot = dde_solver.shoot(delayed_spec, p.lam, 512)
        u = np.empty_like(xs)
        u[~right] = shot.left.eval(xs[~right])
        u[right] = shot.right.eval(xs[right])
        k, l = kl_integrals(delayed_spec, np.append(xs, PI), float(p.index), 512)
        alt = (asymptotics._amplitude(delayed_spec, p.index ** (2.0 / 3.0), xs)
               * asymptotics._refined_form(delayed_spec, p.index, xs, k, l, p.index * PI))
        singles = (u, predict_eigenfunction(delayed_spec, p.index, xs, "leading", 512),
                   predict_eigenfunction(delayed_spec, p.index, xs, "refined", 512), alt)
        for rows, single in zip(table, singles):
            assert rows[i].tobytes() == single.tobytes()


@pytest.mark.parametrize("x", [HALF, -1e-12, PI + 1e-9, math.nan])
def test_eigenfunction_table_rejects_points_without_one_value(delayed_spec,
                                                              delayed_rate_inputs, x):
    with pytest.raises(ValueError, match="x must lie in"):
        asymptotics.eigenfunction_table(delayed_spec, delayed_rate_inputs[:2], [0.3, x], 512)


def test_eigenfunction_table_needs_a_pair(delayed_spec):
    with pytest.raises(ValueError, match="at least one eigenpair"):
        asymptotics.eigenfunction_table(delayed_spec, [], [0.3], 512)


@pytest.mark.parametrize("entry, bad", [
    *((entry, bad) for entry in ("kl_integrals_s", "kl_integrals_s_array", "kl_integrals_x",
                                 "oscillatory_q_integral", "oscillatory_q_integral_array",
                                 "predict_leading", "predict_refined")
      for bad in (math.nan, math.inf, -math.inf))])
def test_non_finite_asymptotics_input_named(delayed_spec, entry, bad):
    # a NaN passes every range comparison; it must not come back as a NaN
    # value, a RuntimeWarning or numpy's zero-size error
    calls = {
        "kl_integrals_s": (lambda: kl_integrals(delayed_spec, 1.0, bad, 64),
                           "s must be finite"),
        "kl_integrals_s_array": (lambda: kl_integrals(delayed_spec, [0.5, 2.0], [3.0, bad], 64),
                                 "s must be finite"),
        "kl_integrals_x": (lambda: kl_integrals(delayed_spec, [0.5, bad], 3.0, 64),
                           "x must lie in"),
        "oscillatory_q_integral": (lambda: oscillatory_q_integral(delayed_spec, bad, 64),
                                   "s must be finite"),
        "oscillatory_q_integral_array": (
            lambda: oscillatory_q_integral(delayed_spec, np.array([10.0, bad]), 64),
            "s must be finite"),
        "predict_leading": (lambda: predict_eigenfunction(delayed_spec, 5, bad),
                            "x must lie in"),
        "predict_refined": (lambda: predict_eigenfunction(delayed_spec, 5, [0.3, bad],
                                                          "refined", 64),
                            "x must lie in"),
    }
    call, match = calls[entry]
    with pytest.raises(ValueError, match=match):
        call()
