import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from delaybvp import asymptotics, cli, dde_solver, picard, spectral
from delaybvp.problem import Case1RequiredError, DelayRangeError, HALF, ProblemSpec
from delaybvp.spectral import (ZeroOrManyError, _refine_brackets, _window_brackets,
                               char_fn_samples, localize_near_n, localize_range, scan_roots,
                               simplicity_certificates)

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
        assert abs(char_fn_samples(null_spec, [float(n)])[0]) < 1e-8


def test_char_fn_closed_form_value(null_spec):
    F = char_fn_samples(null_spec, [1.5])[0]
    assert F == pytest.approx(1.5 ** (1.0 / 3.0), abs=1e-9)


def test_char_fn_beta_quarter_matches_closed_form():
    spec = spec_of(beta=PI / 4)
    for s in (0.8, 1.3, 2.6):
        got = char_fn_samples(spec, [s])[0]
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
    # for scanned and localized pairs alike, the F_residual that refinement
    # measured, and the certificate reads, is bitwise F at the root s from a
    # shot of its own, at pi, and from a sweep of s alone
    scanned = scan_roots(constq_spec, 0.5, 3.5, samples=350, steps=1024)
    localized = localize_range(constq_spec, range(4, 9), steps=1024)
    assert scanned and localized
    for pairs in (scanned, localized):
        for p, cert in zip(pairs, simplicity_certificates(pairs)):
            assert cert.F_residual == p.F_residual
            assert abs(cert.F_residual) < 1e-8
            right = dde_solver.shoot(constq_spec, p.lam, 1024).right
            beta = constq_spec.beta
            assert cert.F_residual == (right.values[-1] * math.cos(beta)
                                       + right.derivs[-1] * math.sin(beta))
            assert cert.F_residual == char_fn_samples(constq_spec, [p.s], 1024)[0]


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


def test_scan_refines_roots_in_adjacent_cells_once_each(null_spec, monkeypatch):
    # a synthetic F with sign changes in three consecutive cells of the scan
    # grid: each neighbourhood keeps only its own cell's sign change
    roots = [1.25, 1.35, 1.45]
    monkeypatch.setattr(spectral, "char_fn_samples",
                        lambda spec, s_values, steps: -np.prod(
                            [np.asarray(s_values, dtype=float) - r for r in roots], axis=0))
    pairs = scan_roots(null_spec, 1.0, 2.0, samples=11, steps=64)
    assert [p.s for p in pairs] == pytest.approx(roots, abs=1e-10)


def test_counting_thirty_windows(null_spec):
    pairs = scan_roots(null_spec, 0.5, 30.5, samples=3001, refine_tol=1e-9, steps=1024)
    assert len(pairs) == 30
    for k, p in enumerate(pairs, start=1):
        assert abs(p.s - k) < 1e-5


def char_fn_picard(spec, lam):
    """F(lambda) assembled from the fixed-point oracle segments."""
    w1 = picard.picard_w1(spec, lam)
    w2 = picard.picard_w2(spec, lam, w1)
    return float(w2.values[-1] * math.cos(spec.beta) + w2.derivs[-1] * math.sin(spec.beta))


def test_method_agreement_shooting_vs_picard(constq_spec, delayed_spec):
    for spec in (constq_spec, delayed_spec):
        for s in (6.0, 12.0):
            f_shoot = char_fn_samples(spec, [s])[0]
            f_picard = char_fn_picard(spec, s * s)
            assert abs(f_shoot - f_picard) < 1e-6


def test_no_pairs_no_certificates(delayed_spec):
    assert simplicity_certificates([]) == []


def test_simplicity_certificate_closed_form(null_spec):
    pair = localize_near_n(null_spec, 5)
    [cert] = simplicity_certificates([pair])
    # d/d lambda of -s^(1/3) sin(s pi) at s = 5 is 5^(1/3) pi / 10
    oracle = 5.0 ** (1.0 / 3.0) * PI / 10.0
    assert cert.dF_dlambda == pytest.approx(oracle, abs=1e-4)
    assert cert.h == spectral.CERT_STEP
    assert cert.passed


def test_char_fn_samples_vectorized(null_spec):
    ss = np.array([1.0, 1.5, 2.0])
    F = char_fn_samples(null_spec, ss)
    assert abs(F[0]) < 1e-8 and abs(F[2]) < 1e-8
    assert F[1] == pytest.approx(1.5 ** (1.0 / 3.0), abs=1e-9)


def test_positive_s_required(null_spec):
    with pytest.raises(ValueError):
        char_fn_samples(null_spec, [-1.0])
    with pytest.raises(ValueError):
        scan_roots(null_spec, 0.0, 2.0, 201)
    with pytest.raises(ValueError, match="need 0 < s_min < s_max"):
        scan_roots(null_spec, 1.0, math.inf, 201)


@pytest.mark.parametrize("call, match", [
    (lambda spec: scan_roots(spec, 1.0, 2.0, 1), "need at least 2 samples"),
    (lambda spec: localize_range(spec, [3, 0]), "indices must be positive integers"),
    (lambda spec: localize_near_n(spec, 0), "indices must be positive integers"),
], ids=["scan_samples", "localize_range_index", "localize_near_n_index"])
def test_sample_count_and_indices_named(null_spec, call, match):
    with pytest.raises(ValueError, match=match):
        call(null_spec)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-10])
@pytest.mark.parametrize("entry", ["localize_range", "localize_near_n", "scan_roots"])
def test_refine_tol_must_be_positive_and_finite(delayed_spec, entry, tol):
    # a NaN or inf tolerance once skipped refinement and returned the
    # unrefined cell midpoint, as the CLI's solver.refine_tol rule forbids
    calls = {
        "localize_range": lambda: localize_range(delayed_spec, [5], tol, 64),
        "localize_near_n": lambda: localize_near_n(delayed_spec, 5, tol, 64),
        "scan_roots": lambda: scan_roots(delayed_spec, 4.5, 5.5, 101, tol, 64),
    }
    with pytest.raises(ValueError, match="refine_tol must be positive and finite"):
        calls[entry]()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", ["shoot_endpoints", "char_fn_samples",
                                   "integrate_segment", "picard_w1", "picard_w2",
                                   "apriori_bounds"])
def test_lambda_must_be_positive_and_finite(delayed_spec, entry, bad):
    # a NaN passes a `<= 0` check; it must not reach the integrator and be
    # reported as a non-finite state, nor make the fixed-point iteration
    # run to its limit or the bounds come out as NaN
    calls = {
        "shoot_endpoints": lambda: dde_solver.shoot_endpoints(delayed_spec, [4.0, bad], 64),
        "char_fn_samples": lambda: char_fn_samples(delayed_spec, [2.0, bad], 64),
        "integrate_segment": lambda: dde_solver.integrate_segment(
            delayed_spec, bad, (0.0, HALF), 1.0, 0.0, steps=64),
        "picard_w1": lambda: picard.picard_w1(delayed_spec, bad, 65),
        "picard_w2": lambda: picard.picard_w2(
            delayed_spec, bad, dde_solver.shoot(delayed_spec, 4.0, 64).left, 65),
        "apriori_bounds": lambda: asymptotics.apriori_bounds(delayed_spec, bad),
    }
    with pytest.raises(ValueError, match="positive and finite"):
        calls[entry]()


def bracket_of(pts, vals):
    """lo, hi and F at both ends of the first sign-change cell of each row."""
    pts, vals = np.asarray(pts), np.asarray(vals)
    neg = vals <= 0.0
    cell = (neg[:, :-1] != neg[:, 1:]).argmax(axis=1)
    rows = np.arange(pts.shape[0])
    return pts[rows, cell], pts[rows, cell + 1], vals[rows, cell], vals[rows, cell + 1]


def test_refinement_below_one_ulp_keeps_its_bracket(null_spec, alarm):
    F = char_fn_samples(null_spec, [2.5, 3.5], 256)
    lo, hi, *_ = _refine_brackets(null_spec, [[2.5, 3.5]], [F], 1e-17, 256)
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
    F = char_fn_samples(null_spec, [lo0, lo0 + 1.0], 256)
    lo, hi, *_ = _refine_brackets(null_spec, [[lo0, lo0 + 1.0]], [F], tol, 256)
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
    pts, vals = _window_brackets(delayed_spec, n_values, steps)
    # every char_fn_samples call made inside _refine_brackets is one round
    calls = counted_sampling(monkeypatch)
    _refine_brackets(delayed_spec, pts, vals, tol, steps)
    monkeypatch.undo()
    lo, hi, f_lo, _ = bracket_of(pts, vals)
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
    # around n = 5, screened at full resolution (at SCREEN_MIN_STEPS the
    # coarse screen is the full one), and of a scan on the same grid
    grid = np.linspace(4.5, 5.5, spectral.LOCALIZE_SUBGRID)
    root, steps = grid[20], spectral.SCREEN_MIN_STEPS
    monkeypatch.setattr(spectral, "char_fn_samples",
                        lambda spec, s_values, steps: root - np.asarray(s_values, dtype=float))
    pts, vals = _window_brackets(null_spec, [5], steps)
    assert np.array_equal(pts, [grid[18:22]]) and np.array_equal(vals, root - pts)
    lo, hi, f_lo, f_hi = bracket_of(pts, vals)
    assert (lo[0], hi[0], f_lo[0], f_hi[0]) == (grid[19], root, root - grid[19], 0.0)
    lo, hi, *_ = _refine_brackets(null_spec, pts, vals, 1e-10, steps)
    assert lo[0] <= root <= hi[0] < lo[0] + 1e-10
    pairs = scan_roots(null_spec, 4.5, 5.5, samples=spectral.LOCALIZE_SUBGRID, steps=256)
    # the root is the bracket end with the smaller |F|: the exact zero
    assert [(p.s, p.F_residual) for p in pairs] == [(root, 0.0)]
    # at 4096 steps, a full-resolution F that is exactly 0.0 at the upper of
    # the two points the confirmation places beside the coarse root
    upper = _window_brackets(null_spec, [5], 4096)[0][0, 2]
    monkeypatch.setattr(spectral, "char_fn_samples", lambda spec, s_values, steps: (
        (root if steps < 4096 else upper) - np.asarray(s_values, dtype=float)))
    pts, vals = _window_brackets(null_spec, [5], 4096)
    assert pts[0, 2] == upper and vals[0, 2] == 0.0
    lo, hi, *_ = bracket_of(pts, vals)
    assert (lo[0], hi[0]) == (pts[0, 1], upper)
    pair = localize_near_n(null_spec, 5, steps=4096)
    assert (pair.s, pair.F_residual) == (upper, 0.0)


def full_resolution_screen(spec, n_values, steps):
    """Window subgrids, F on them at ``steps`` and per window the columns
    cell - 1 .. cell + 2 (clipped) around its one sign-change cell."""
    size = spectral.LOCALIZE_SUBGRID
    grid = np.array([np.linspace(n - 0.5, n + 0.5, size) for n in n_values])
    F = spectral.char_fn_samples(spec, grid.ravel(), steps).reshape(grid.shape)
    cols, failed = [], {}
    for n, row in zip(n_values, F):
        neg = row <= 0.0
        flips = np.nonzero(neg[:-1] != neg[1:])[0]
        if flips.shape[0] != 1:
            failed[n] = int(flips.shape[0])
            continue
        j = flips[0]
        cols.append([max(j - 1, 0), j, j + 1, min(j + 2, size - 1)])
    if failed:
        raise ZeroOrManyError(failed)
    return grid, F, np.array(cols)


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
    grid, F, cols = full_resolution_screen(null_spec, n_values, steps)
    calls.clear()
    pts, vals = _window_brackets(null_spec, n_values, steps)
    # one coarse screen, then 4 confirmation points for windows 5 and 7 and
    # a full screen of windows 7, 9 and 11, which keep that screen's points;
    # window 5 keeps its confirmation points, whose outer two are the full
    # screen's and whose bracket holds the root
    assert calls == [(256, 64), (8, steps), (192, steps)]
    rows = np.arange(len(n_values))[:, None]
    assert np.array_equal(pts[1:], grid[rows[1:], cols[1:]])
    assert np.array_equal(vals[1:], F[rows[1:], cols[1:]])
    assert np.array_equal(pts[0, [0, 3]], grid[0, cols[0, [0, 3]]])
    assert np.array_equal(vals[0], roots[0] - pts[0])
    lo, hi, *_ = bracket_of(pts, vals)
    assert lo[0] < roots[0] <= hi[0]


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
    # the coarse screen, its confirmation and its fallback raise the error of
    # a full-resolution screen, or give per window a sign-change bracket
    # inside that screen's points cell - 1 .. cell + 2, with bitwise the
    # full-resolution F at all four points, and a root within refine_tol of
    # the one refined from that screen's four points
    try:
        grid, F, cols = full_resolution_screen(spec, n_values, steps)
    except ZeroOrManyError as err:
        with pytest.raises(ZeroOrManyError) as got:
            _window_brackets(spec, n_values, steps)
        assert got.value.windows == err.windows
        return
    pts, vals = _window_brackets(spec, n_values, steps)
    rows = np.arange(len(n_values))[:, None]
    span = grid[rows, cols]
    lo, hi, f_lo, f_hi = bracket_of(pts, vals)
    assert np.all((f_lo <= 0.0) != (f_hi <= 0.0))
    assert np.all((span[:, 0] <= lo) & (hi <= span[:, 3]))
    assert vals.tobytes() == char_fn_samples(spec, pts.ravel(), steps).tobytes()
    tol = spectral.DEFAULT_REFINE_TOL
    root = _refine_brackets(spec, pts, vals, tol, steps)[3]
    full = _refine_brackets(spec, span, F[rows, cols], tol, steps)[3]
    assert np.all(np.abs(root - full) < tol)


def test_screening_confirms_with_four_columns_per_window(delayed_spec, monkeypatch):
    n_values = range(5, 51)
    calls = counted_sampling(monkeypatch)
    _window_brackets(delayed_spec, n_values, 4096)
    full = sum(columns for columns, steps in calls if steps == 4096)
    assert calls[0] == (len(n_values) * spectral.LOCALIZE_SUBGRID, 265)
    assert full <= 4 * len(n_values)


def test_delay_out_of_range_on_the_full_grid_is_raised():
    # at SCREEN_MIN_STEPS the coarse screen is the full one: its failed
    # delay check is the problem's, not a coarse grid's to be screened again
    with pytest.raises(DelayRangeError, match="delayed_argument_left"):
        localize_range(spec_of(d_l="2*x"), [3], steps=spectral.SCREEN_MIN_STEPS)


@pytest.mark.parametrize("steps", [64, 100, 108])
def test_screening_at_most_the_coarse_steps_is_one_call(delayed_spec, monkeypatch, steps):
    # n <= 20 screens at 108 steps; at or below that nothing is confirmed
    n_values = range(5, 21)
    calls = counted_sampling(monkeypatch)
    _window_brackets(delayed_spec, n_values, steps)
    assert calls == [(len(n_values) * spectral.LOCALIZE_SUBGRID, steps)]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=screening_specs(), steps=st.integers(256, 1024), exponent=st.floats(-14.0, -4.0),
       n_values=st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True).map(sorted))
# a probe one ulp short of the root leaves it within rounding of a bracket
# end; a midpoint in place of the regula-falsi point there bisects, in 20
# rounds where 4 do
@example(spec=spec_of("(4.0) + (4.0)*sin(2*x)", "(4.0) + (4.0)*sin(2*x)", "(0.0)*x*(pi/2 - x)"),
         steps=1024, exponent=-14.0, n_values=[11])
def test_seeded_refinement_never_takes_more_rounds(alarm, monkeypatch, spec, steps, exponent,
                                                   n_values):
    # from the four points around each window bracket, refinement ends with
    # a sign-change bracket narrower than refine_tol (or one ulp wide) in no
    # more rounds than from the two bracket points alone; below n = 4 a
    # strong potential can leave a window so far from the asymptotic regime
    # that the inverse cubic misses by more than its probes' spread, which
    # costs one round
    tol = 10.0 ** exponent
    try:
        pts, vals = _window_brackets(spec, n_values, steps)
    except ZeroOrManyError:
        return
    a, b, f_a, f_b = bracket_of(pts, vals)
    calls = counted_sampling(monkeypatch)
    try:
        lo, hi, *_ = _refine_brackets(spec, pts, vals, tol, steps)
        seeded = len(calls)
        calls.clear()
        _refine_brackets(spec, np.stack([a, b], axis=1), np.stack([f_a, f_b], axis=1),
                         tol, steps)
        plain = len(calls)
    finally:
        monkeypatch.undo()
    assert seeded <= plain + (n_values[0] < 4)
    F = char_fn_samples(spec, np.concatenate([lo, hi]), steps).reshape(2, -1)
    assert np.all((F[0] <= 0.0) != (F[1] <= 0.0))
    assert np.all((a <= lo) & (lo < hi) & (hi <= b))
    assert np.all((hi - lo < tol) | (hi - lo <= 2.0 * np.spacing(lo)))


@pytest.mark.parametrize("n", [5, 50])
def test_localization_refines_in_one_sweep_after_the_confirmation(delayed_spec, monkeypatch, n):
    # the confirmation samples beside the coarse root moved by the phase
    # error, and its four values seed refinement, which then closes the
    # bracket in one round
    calls = counted_sampling(monkeypatch)
    localize_near_n(delayed_spec, n, steps=4096)
    assert calls[0][1] < 4096 and calls[1:] == [(4, 4096), (2, 4096)]


def test_localize_range_sweeps_twice_at_full_resolution(delayed_spec, monkeypatch):
    n_values = range(5, 51)
    calls = counted_sampling(monkeypatch)
    localize_range(delayed_spec, n_values, steps=4096)
    assert calls[0] == (len(n_values) * spectral.LOCALIZE_SUBGRID, 265)
    assert [steps for _, steps in calls[1:]] == [4096] * 2


def test_a_confirmation_that_misses_the_root_still_brackets_it(null_spec, monkeypatch):
    # a synthetic full-resolution root 1e-6 past the upper of the two points
    # the confirmation places beside the coarse root: the window is confirmed
    # from its outer points, not screened again, refinement narrows its
    # bracket below refine_tol within three rounds, and the slope is the
    # narrowest secant at least SLOPE_WIDTH wide, not the entry bracket's
    steps, tol, root = 4096, spectral.DEFAULT_REFINE_TOL, [5.1]
    calls = []

    def full(s):
        return np.sin(PI * (root[0] - np.asarray(s, dtype=float)))

    def synthetic(spec, s_values, steps_):
        calls.append((len(s_values), steps_))
        return full(s_values) if steps_ == steps else np.sin(PI * (5.1 - np.asarray(s_values)))

    monkeypatch.setattr(spectral, "char_fn_samples", synthetic)
    root[0] = _window_brackets(null_spec, [5], steps)[0][0, 2] + 1e-6
    calls.clear()
    pts, vals = _window_brackets(null_spec, [5], steps)
    assert pts[0, 1] < pts[0, 2] < root[0] < pts[0, 3]
    lo, hi, slope, s, _ = _refine_brackets(null_spec, pts, vals, tol, steps)
    assert calls[:2] == [(spectral.LOCALIZE_SUBGRID, spectral.SCREEN_MIN_STEPS), (4, steps)]
    assert 1 <= len(calls[2:]) <= 3 and all(columns <= 3 for columns, _ in calls[2:])
    F = full([lo[0], hi[0]])
    assert (F[0] <= 0.0) != (F[1] <= 0.0) and hi[0] - lo[0] < tol
    h = 1e-4
    central = (full(s[0] + h) - full(s[0] - h)) / (2.0 * h)
    assert abs(slope[0] / central - 1.0) <= 1e-5


@pytest.mark.parametrize("beta", [PI - 0.0063, 0.0063])
def test_a_root_in_an_edge_cell_of_its_window_is_confirmed_beside_it(monkeypatch, beta):
    # beta near pi (near 0) puts the root near 4.5 (5.5), in the first (last)
    # cell of the window around n = 5: a clipped point repeats and the coarse
    # cubic is NaN, so the confirmation samples beside the root of the
    # quadratic through the three distinct points, and one round ends
    # refinement
    spec = spec_of(beta=beta)
    grid = np.linspace(4.5, 5.5, spectral.LOCALIZE_SUBGRID)
    pts, vals = _window_brackets(spec, [5], 4096)
    assert (pts[0, 0], pts[0, 3]) == ((grid[0], grid[2]) if beta > 1.0 else (grid[61], grid[63]))
    lo, hi, *_ = bracket_of(pts, vals)
    assert (lo[0], hi[0]) == (pts[0, 1], pts[0, 2])
    calls = counted_sampling(monkeypatch)
    _refine_brackets(spec, pts, vals, spectral.DEFAULT_REFINE_TOL, 4096)
    assert calls == [(2, 4096)]


def test_refinement_slope_matches_a_central_difference(constq_spec, delayed_spec):
    # certificates read dF/dlambda = dF_ds / (2 s), refinement's secant; it
    # agrees with a central difference over lambda -+ CERT_STEP
    steps = 1024
    cases = [(delayed_spec, localize_range(delayed_spec, range(5, 21), steps=steps)),
             (constq_spec, localize_range(constq_spec, range(4, 21), steps=steps)),
             (constq_spec, scan_roots(constq_spec, 0.5, 3.5, samples=350, steps=steps))]
    for spec, pairs in cases:
        assert pairs
        d = np.array([min(spectral.CERT_STEP, 0.5 * p.lam) for p in pairs])
        lam = np.array([p.lam for p in pairs])
        F = char_fn_samples(spec, np.sqrt(np.concatenate([lam - d, lam + d])), steps)
        central = (F[lam.size:] - F[:lam.size]) / (2.0 * d)
        secant = np.array([p.dF_ds / (2.0 * p.s) for p in pairs])
        assert np.max(np.abs(secant / central - 1.0)) <= 1e-5


def counted_sweeps(monkeypatch):
    """Patches dde_solver.shoot_endpoints to log (columns, steps) per sweep."""
    calls = []
    swept = dde_solver.shoot_endpoints

    def counted(spec, lams, steps):
        calls.append((len(lams), steps))
        return swept(spec, lams, steps)

    monkeypatch.setattr(dde_solver, "shoot_endpoints", counted)
    return calls


def test_solve_sweeps_once_coarse_and_twice_at_full_resolution(monkeypatch):
    # delayed n = 5..50 at 4096 steps: the window screen at 265 steps, the
    # confirmation of 4 columns per window and one refinement round of 2;
    # the certificates add no sweep
    calls = counted_sweeps(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["solve", "--config", str(CONFIG_DIR / "delayed.json")]) == 0
    assert calls == [(2944, 265), (184, 4096), (92, 4096)]
    rows = out.getvalue().splitlines()[1:]
    assert len(rows) == 46 and all(r.endswith(",true") for r in rows)


@pytest.mark.parametrize("steps", [1024, 4096])
def test_root_error_is_the_phase_error(constq_spec, steps):
    # q = 1 with zero delay has the exact roots sqrt(n^2 - 1); where the
    # error of a root refined far below it is above 1e-11 it is RK4's phase
    # error at that s within 10% (below n = 8 the q term moves the
    # frequency from s to sqrt(s^2 + 1), which the phase error leaves out)
    n_values = [8, 12, 20, 35, 50, 100, 200]
    pairs = localize_range(constq_spec, n_values, refine_tol=1e-13, steps=steps)
    checked = 0
    for p in pairs:
        exact = math.sqrt(p.index ** 2 - 1)
        if p.s - exact > 1e-11:
            assert p.s - exact == pytest.approx(dde_solver.phase_error(exact, steps), rel=0.1)
            checked += 1
    assert checked >= 5


def test_certificates_make_no_sweep(delayed_spec, monkeypatch):
    # a certificate is arithmetic on its pair: refinement measured both the
    # slope and the residual
    pairs = localize_range(delayed_spec, range(5, 13), steps=512)
    calls = counted_sampling(monkeypatch)
    certs = simplicity_certificates(pairs)
    assert calls == []
    assert all(c.passed for c in certs)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=screening_specs(), steps=st.integers(256, 512),
       n_values=st.lists(st.integers(1, 11), min_size=1, max_size=6, unique=True).map(sorted))
@example(spec=spec_of("sin(x)", "cos(x)", "0.5*x*(pi/2 - x)", "(x - pi/2)*(pi - x)*0.25"),
         steps=512, n_values=list(range(5, 12)))
def test_localized_slopes_are_batch_invariant(alarm, spec, steps, n_values):
    # a pair of a batch, its slope and residual included, is bitwise the
    # pair localized alone.  Up to n = 11 every window is screened at SCREEN_MIN_STEPS,
    # alone or in any batch; above that the coarse step count follows the
    # batch's largest n, and a window's seed points can move by a cell
    assert math.ceil(11.5 * HALF / spectral.SCREEN_SH) <= spectral.SCREEN_MIN_STEPS
    try:
        batch = localize_range(spec, n_values, steps=steps)
    except ZeroOrManyError:
        return
    for p in batch:
        alone = localize_near_n(spec, p.index, steps=steps)
        assert ((alone.s.hex(), alone.dF_ds.hex(), alone.F_residual.hex())
                == (p.s.hex(), p.dF_ds.hex(), p.F_residual.hex()))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(brackets=st.lists(st.tuples(st.integers(1, 6), st.floats(0.05, 0.95), st.integers(-6, 0)),
                         min_size=2, max_size=5, unique_by=lambda b: b[0]),
       exponent=st.floats(-14.0, -4.0))
def test_refined_slopes_are_row_invariant(null_spec, alarm, brackets, exponent):
    # brackets 1/64 to 1 wide around the roots near n: refined together,
    # each keeps bitwise the ends and slope it gets refined alone, however
    # many rounds the others take
    tol = 10.0 ** exponent
    pts = np.array([[n - offset * 2.0 ** e, n + (1.0 - offset) * 2.0 ** e]
                    for n, offset, e in brackets])
    vals = char_fn_samples(null_spec, pts.ravel(), 256).reshape(pts.shape)
    together = _refine_brackets(null_spec, pts, vals, tol, 256)
    for k in range(pts.shape[0]):
        alone = _refine_brackets(null_spec, pts[k:k + 1], vals[k:k + 1], tol, 256)
        for got, want in zip(together, alone):
            assert got[k:k + 1].tobytes() == want.tobytes()
