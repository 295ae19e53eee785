import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaybvp import asymptotics, dde_solver, picard, spectral
from delaybvp.problem import Case1RequiredError, HALF, ProblemSpec
from delaybvp.spectral import (ZeroOrManyError, _refine_brackets, _window_brackets, char_fn,
                               char_fn_picard, char_fn_samples,
                               localize_near_n, localize_range, scan_roots,
                               simplicity_certificate)

PI = math.pi


def spec_of(q_l="0", q_r="0", d_l="0", d_r="0", alpha=HALF, beta=HALF, delta=1.0):
    return ProblemSpec.from_strings(q_l, q_r, d_l, d_r, alpha, beta, delta)


def closed_form_F(s, beta):
    """q = 0, alpha = pi/2, delta = 1 characteristic function."""
    return (s ** (-2.0 / 3.0) * math.cos(s * PI) * math.cos(beta)
            - s ** (1.0 / 3.0) * math.sin(s * PI) * math.sin(beta))


def bisect_closed_form(f, lo, hi, tol=1e-13):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f(mid)
    return 0.5 * (lo + hi)


def test_char_fn_near_integer_roots(null_spec):
    for n in (1, 2, 5):
        assert abs(char_fn(null_spec, float(n * n)).F) < 1e-8


def test_char_fn_closed_form_value(null_spec):
    sample = char_fn(null_spec, 2.25)
    assert sample.method == "shooting"
    assert sample.F == pytest.approx(1.5 ** (1.0 / 3.0), abs=1e-9)


def test_char_fn_beta_quarter_matches_closed_form():
    spec = spec_of(beta=PI / 4)
    for s in (0.8, 1.3, 2.6):
        got = char_fn(spec, s * s).F
        assert got == pytest.approx(closed_form_F(s, PI / 4), abs=1e-9)


def test_scan_finds_first_five_integer_roots(null_spec):
    pairs = scan_roots(null_spec, 0.5, 5.5, samples=500)
    assert [p.index for p in pairs] == [0, 1, 2, 3, 4]
    for k, p in enumerate(pairs, start=1):
        assert abs(p.s - k) < 1e-8
        assert p.lam == p.s * p.s


def test_scan_below_first_root_is_empty(null_spec):
    assert scan_roots(null_spec, 0.2, 0.8, samples=80) == []


def test_scan_roots_satisfy_residual_contract(constq_spec):
    pairs = scan_roots(constq_spec, 0.5, 3.5, samples=350, steps=1024)
    assert pairs
    for p in pairs:
        assert abs(p.F_residual) < 1e-8
        assert abs(char_fn(constq_spec, p.lam, steps=1024).F) < 1e-8


def test_localize_exact_integers(null_spec):
    pair = localize_near_n(null_spec, 10)
    assert pair.index == 10
    assert abs(pair.s - 10.0) < 1e-9


def test_localize_beta_quarter_against_scalar_oracle():
    # independent oracle: root of the closed form near s = 20
    spec = spec_of(beta=PI / 4)
    oracle = bisect_closed_form(lambda s: closed_form_F(s, PI / 4), 19.5, 20.5)
    assert oracle == pytest.approx(20.0 + 1.0 / (20.0 * PI), abs=5e-5)
    pair = localize_near_n(spec, 20)
    assert pair.s == pytest.approx(oracle, abs=1e-7)


def test_localize_window_membership(delayed_pairs):
    for p in delayed_pairs:
        assert p.index - 0.5 < p.s < p.index + 0.5


def test_localize_requires_case1():
    with pytest.raises(Case1RequiredError):
        localize_near_n(spec_of(alpha=0.0), 5)


def test_localize_no_indices(delayed_spec):
    assert localize_range(delayed_spec, []) == []


def test_zero_or_many_below_asymptotic_regime():
    # a strong potential pushes the lowest eigenvalue far from s = 1: the
    # unit window around n = 1 holds no sign change
    rough = spec_of(q_l="25", q_r="25")
    with pytest.raises(ZeroOrManyError) as err:
        localize_near_n(rough, 1, steps=1024)
    assert err.value.n == 1


def test_zero_or_many_names_every_failing_window():
    rough = spec_of(q_l="25", q_r="25")
    with pytest.raises(ZeroOrManyError) as err:
        localize_range(rough, [1, 2, 3], steps=1024)
    assert err.value.windows == {1: 0, 2: 0}
    assert (err.value.n, err.value.count) == (1, 0)
    assert "[0.5, 1.5] (n = 1)" in str(err.value)
    assert "[1.5, 2.5] (n = 2)" in str(err.value)


def test_counting_thirty_windows(null_spec):
    pairs = scan_roots(null_spec, 0.5, 30.5, refine_tol=1e-9, steps=1024)
    assert len(pairs) == 30
    for k, p in enumerate(pairs, start=1):
        assert abs(p.s - k) < 1e-5


def test_method_agreement_shooting_vs_picard(constq_spec, delayed_spec):
    for spec in (constq_spec, delayed_spec):
        for s in (6.0, 12.0):
            f_shoot = char_fn(spec, s * s).F
            f_picard = char_fn_picard(spec, s * s).F
            assert abs(f_shoot - f_picard) < 1e-6


def test_simplicity_certificate_closed_form(null_spec):
    pair = localize_near_n(null_spec, 5)
    cert = simplicity_certificate(null_spec, pair)
    # d/d lambda of -s^(1/3) sin(s pi) at s = 5 is 5^(1/3) pi / 10
    oracle = 5.0 ** (1.0 / 3.0) * PI / 10.0
    assert cert.dF_dlambda == pytest.approx(oracle, abs=1e-4)
    assert cert.passed and cert.reliable


def test_simplicity_large_h_unreliable(null_spec):
    pair = localize_near_n(null_spec, 5)
    cert = simplicity_certificate(null_spec, pair, h=2.0)
    assert not cert.reliable
    # a NaN step is refused up front, not as a bad s inside the sweep
    with pytest.raises(ValueError, match="h must be positive and finite"):
        spectral.simplicity_certificates(null_spec, [pair], h=math.nan)


def test_char_fn_samples_vectorized(null_spec):
    ss = np.array([1.0, 1.5, 2.0])
    F = char_fn_samples(null_spec, ss)
    assert abs(F[0]) < 1e-8 and abs(F[2]) < 1e-8
    assert F[1] == pytest.approx(1.5 ** (1.0 / 3.0), abs=1e-9)


def test_positive_s_required(null_spec):
    with pytest.raises(ValueError):
        char_fn_samples(null_spec, [-1.0])
    with pytest.raises(ValueError):
        scan_roots(null_spec, 0.0, 2.0)
    with pytest.raises(ValueError, match="need 0 < s_min < s_max"):
        scan_roots(null_spec, 1.0, math.inf)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-10])
@pytest.mark.parametrize("entry", ["localize_range", "localize_near_n", "scan_roots"])
def test_refine_tol_must_be_positive_and_finite(delayed_spec, entry, tol):
    # a NaN or inf tolerance once skipped refinement and returned the
    # unrefined cell midpoint, as the CLI's solver.refine_tol rule forbids
    calls = {
        "localize_range": lambda: localize_range(delayed_spec, [5], tol, 64),
        "localize_near_n": lambda: localize_near_n(delayed_spec, 5, tol, 64),
        "scan_roots": lambda: scan_roots(delayed_spec, 4.5, 5.5, refine_tol=tol, steps=64),
    }
    with pytest.raises(ValueError, match="refine_tol must be positive and finite"):
        calls[entry]()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", ["shoot_endpoints", "char_fn_samples",
                                   "integrate_segment", "char_fn", "picard_w1",
                                   "picard_w2", "apriori_bounds"])
def test_lambda_must_be_positive_and_finite(delayed_spec, entry, bad):
    # a NaN passes a `<= 0` check; it must not reach the integrator and be
    # reported as a non-finite state, nor make the fixed-point iteration
    # run to its limit or the bounds come out as NaN
    calls = {
        "shoot_endpoints": lambda: dde_solver.shoot_endpoints(delayed_spec, [4.0, bad], 64),
        "char_fn_samples": lambda: char_fn_samples(delayed_spec, [2.0, bad], 64),
        "integrate_segment": lambda: dde_solver.integrate_segment(
            delayed_spec, bad, (0.0, HALF), 1.0, 0.0, steps=64),
        "char_fn": lambda: char_fn(delayed_spec, bad, 64),
        "picard_w1": lambda: picard.picard_w1(delayed_spec, bad, 65),
        "picard_w2": lambda: picard.picard_w2(
            delayed_spec, bad, dde_solver.shoot(delayed_spec, 4.0, 64).left, 65),
        "apriori_bounds": lambda: asymptotics.apriori_bounds(delayed_spec, bad),
    }
    with pytest.raises(ValueError, match="positive and finite"):
        calls[entry]()


def test_refinement_below_one_ulp_keeps_its_bracket(null_spec, alarm):
    f_lo, f_hi = char_fn_samples(null_spec, [2.5, 3.5], 256)
    lo, hi = _refine_brackets(null_spec, [2.5], [3.5], [f_lo], [f_hi], 1e-17, 256)
    F = char_fn_samples(null_spec, [lo[0], hi[0]], 256)
    assert (F[0] <= 0.0) != (F[1] <= 0.0)
    assert 0.0 < hi[0] - lo[0] <= 2.0 * np.spacing(lo[0])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(exponent=st.floats(-17.0, -2.0), n=st.integers(1, 6), offset=st.floats(0.05, 0.95))
def test_refinement_keeps_a_bracket_for_any_tolerance(null_spec, alarm, exponent, n, offset):
    # a unit bracket around the root near n, refined to any tolerance down to
    # below one ulp: it ends with its sign change and as narrow as asked or
    # as floating point allows
    tol = 10.0 ** exponent
    lo0 = n - offset
    f_lo, f_hi = char_fn_samples(null_spec, [lo0, lo0 + 1.0], 256)
    lo, hi = _refine_brackets(null_spec, [lo0], [lo0 + 1.0], [f_lo], [f_hi], tol, 256)
    F = char_fn_samples(null_spec, [lo[0], hi[0]], 256)
    assert (F[0] <= 0.0) != (F[1] <= 0.0)
    assert lo0 <= lo[0] < hi[0] <= lo0 + 1.0
    assert hi[0] - lo[0] < tol or hi[0] - lo[0] <= 2.0 * np.spacing(lo[0])


def counted_sampling(monkeypatch):
    """Patches spectral.char_fn_samples to log (columns, steps) per call."""
    calls = []
    sampled = spectral.char_fn_samples

    def counted(spec, s_values, steps):
        calls.append((len(s_values), steps))
        return sampled(spec, s_values, steps)

    monkeypatch.setattr(spectral, "char_fn_samples", counted)
    return calls


def test_refinement_rounds_and_roots_against_bisection(delayed_spec, monkeypatch):
    n_values, tol, steps = range(5, 13), 1e-10, 512
    pairs = localize_range(delayed_spec, n_values, tol, steps)
    lo, hi, f_lo, f_hi = _window_brackets(delayed_spec, n_values, steps)
    # every char_fn_samples call made inside _refine_brackets is one round
    calls = counted_sampling(monkeypatch)
    _refine_brackets(delayed_spec, lo, hi, f_lo, f_hi, tol, steps)
    monkeypatch.undo()
    assert len(calls) <= 4
    while np.max(hi - lo) >= tol:
        mid = 0.5 * (lo + hi)
        f_mid = char_fn_samples(delayed_spec, mid, steps)
        right = (f_mid <= 0.0) == (f_lo <= 0.0)
        lo, f_lo = np.where(right, mid, lo), np.where(right, f_mid, f_lo)
        hi = np.where(right, hi, mid)
    roots = np.array([p.s for p in pairs])
    assert np.max(np.abs(roots - 0.5 * (lo + hi))) <= tol


def test_exact_zero_at_a_sample_is_a_sign_change(null_spec, monkeypatch):
    # a synthetic F that is exactly 0.0 at one subgrid point of the window
    # around n = 5 (and of a scan on the same grid)
    grid = np.linspace(4.5, 5.5, spectral.LOCALIZE_SUBGRID)
    root = grid[20]
    monkeypatch.setattr(spectral, "char_fn_samples",
                        lambda spec, s_values, steps: root - np.asarray(s_values, dtype=float))
    lo, hi, f_lo, f_hi = _window_brackets(null_spec, [5], 4096)
    assert (lo[0], hi[0], f_lo[0], f_hi[0]) == (grid[19], root, root - grid[19], 0.0)
    lo, hi = _refine_brackets(null_spec, lo, hi, f_lo, f_hi, 1e-10, 4096)
    assert lo[0] <= root <= hi[0] < lo[0] + 1e-10
    pairs = scan_roots(null_spec, 4.5, 5.5, samples=spectral.LOCALIZE_SUBGRID, steps=256)
    assert [p.s for p in pairs] == pytest.approx([root], abs=1e-10)


def full_resolution_brackets(spec, n_values, steps):
    """Window brackets from screening every subgrid point at ``steps``."""
    grid = [np.linspace(n - 0.5, n + 0.5, spectral.LOCALIZE_SUBGRID) for n in n_values]
    F = spectral.char_fn_samples(spec, np.concatenate(grid), steps).reshape(len(grid), -1)
    brackets, failed = [], {}
    for n, s, row in zip(n_values, grid, F):
        neg = row <= 0.0
        flips = np.nonzero(neg[:-1] != neg[1:])[0]
        if flips.shape[0] != 1:
            failed[n] = int(flips.shape[0])
            continue
        j = flips[0]
        brackets.append((s[j], s[j + 1], row[j], row[j + 1]))
    if failed:
        raise ZeroOrManyError(failed)
    return tuple(np.array(column) for column in zip(*brackets))


def test_windows_the_coarse_screen_gets_wrong_are_screened_again(null_spec, monkeypatch):
    # synthetic F with one root per window at full resolution; the coarse F
    # agrees in window 5, has its root 0.3 away in window 7 (confirmation
    # fails), three roots in window 9 and none in window 11
    n_values, steps = [5, 7, 9, 11], 4096
    roots = np.array([5.1, 7.2, 8.9, 11.3])
    calls = []

    def synthetic(spec, s_values, steps_):
        s = np.asarray(s_values, dtype=float)
        window = np.searchsorted([5.5, 7.5, 9.5], s)
        F = roots[window] - s
        if steps_ < steps:
            F = np.select([window == 1, window == 2, window == 3],
                          [F - 0.3, (s - 8.7) * (s - 8.8) * (s - 8.9), np.ones_like(s)], F)
        calls.append((s.size, steps_))
        return F

    monkeypatch.setattr(spectral, "char_fn_samples", synthetic)
    expected = full_resolution_brackets(null_spec, n_values, steps)
    calls.clear()
    got = _window_brackets(null_spec, n_values, steps)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    # one coarse screen, then 4 confirmation points for windows 5 and 7 and
    # a full screen of windows 7, 9 and 11
    assert calls == [(256, 64), (8, steps), (192, steps)]


@st.composite
def screening_specs(draw):
    kind = draw(st.sampled_from(["delayed", "constant_q", "null", "sine"]))
    if kind == "delayed":
        return spec_of("sin(x)", "cos(x)", "0.5*x*(pi/2 - x)", "(x - pi/2)*(pi - x)*0.25")
    if kind == "constant_q":
        return spec_of("1", "1")
    if kind == "null":
        return spec_of()
    c0, c1 = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    k, c2 = draw(st.integers(1, 4)), draw(st.floats(0.0, 0.6))
    q = f"({c0!r}) + ({c1!r})*sin({k}*x)"
    return spec_of(q, q, f"({c2!r})*x*(pi/2 - x)")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=screening_specs(), steps=st.integers(256, 1024),
       n_values=st.lists(st.integers(1, 12), min_size=1, max_size=12, unique=True).map(sorted))
def test_coarse_screening_matches_full_resolution(alarm, spec, steps, n_values):
    # the coarse screen, its confirmation and its fallback give bitwise the
    # brackets and F values of a full-resolution screen, or the same error
    try:
        expected = full_resolution_brackets(spec, n_values, steps)
    except ZeroOrManyError as err:
        with pytest.raises(ZeroOrManyError) as got:
            _window_brackets(spec, n_values, steps)
        assert got.value.windows == err.windows
        return
    got = _window_brackets(spec, n_values, steps)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def test_screening_confirms_with_four_columns_per_window(delayed_spec, monkeypatch):
    n_values = range(5, 51)
    calls = counted_sampling(monkeypatch)
    _window_brackets(delayed_spec, n_values, 4096)
    full = sum(columns for columns, steps in calls if steps == 4096)
    assert calls[0] == (len(n_values) * spectral.LOCALIZE_SUBGRID, 265)
    assert full <= 4 * len(n_values)


@pytest.mark.parametrize("steps", [64, 100, 108])
def test_screening_at_most_the_coarse_steps_is_one_call(delayed_spec, monkeypatch, steps):
    # n <= 20 screens at 108 steps; at or below that nothing is confirmed
    n_values = range(5, 21)
    calls = counted_sampling(monkeypatch)
    _window_brackets(delayed_spec, n_values, steps)
    assert calls == [(len(n_values) * spectral.LOCALIZE_SUBGRID, steps)]
