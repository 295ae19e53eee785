import contextlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delaybvp import dde_solver
from delaybvp.dde_solver import (DelayRangeError, NonFiniteStateError,
                                 integrate_segment, lam_cbrt, shoot,
                                 shoot_endpoints, shoot_many)
from delaybvp.problem import HALF, ProblemSpec

PI = math.pi
LEFT = (0.0, HALF)


def spec_of(q_l="0", q_r="0", d_l="0", d_r="0", alpha=HALF, beta=HALF, delta=1.0):
    return ProblemSpec.from_strings(q_l, q_r, d_l, d_r, alpha, beta, delta)


def test_cosine_closed_form(null_spec):
    # q = 0, y(0) = 1, y'(0) = 0, lambda = 4  ->  y = cos 2x
    seg = integrate_segment(null_spec, 4.0, LEFT, 1.0, 0.0, steps=256)
    assert abs(seg.eval(HALF) - math.cos(PI)) < 1e-9
    xs = np.linspace(0, HALF, 97)
    assert np.max(np.abs(seg.eval(xs) - np.cos(2 * xs))) < 1e-9
    # the derivative channel scales with s = 2
    assert np.max(np.abs(seg.eval_deriv(xs) + 2 * np.sin(2 * xs))) < 5e-9


def test_sine_closed_form(null_spec):
    # y(0) = 0, y'(0) = -1, lambda = 1  ->  y = -sin x
    seg = integrate_segment(null_spec, 1.0, LEFT, 0.0, -1.0, steps=256)
    xs = np.linspace(0, HALF, 53)
    assert np.max(np.abs(seg.eval(xs) + np.sin(xs))) < 1e-10


def test_constant_solution_with_negative_q():
    # q = -1, Delta = 0, lambda = 1: y'' = y - y = 0 from y = 1
    seg = integrate_segment(spec_of(q_l="-1"), 1.0, LEFT, 1.0, 0.0, steps=128)
    xs = np.linspace(0, HALF, 41)
    assert np.max(np.abs(seg.eval(xs) - 1.0)) < 1e-13
    assert np.max(np.abs(seg.eval_deriv(xs))) < 1e-13


def _state_error(null_spec, lam, steps):
    """Error in (y, y'/s) at pi/2 against the closed form cos(s x)."""
    s = math.sqrt(lam)
    seg = integrate_segment(null_spec, lam, LEFT, 1.0, 0.0, steps=steps)
    return (abs(seg.eval(HALF) - math.cos(s * HALF))
            + abs(seg.eval_deriv(HALF) + s * math.sin(s * HALF)) / s)


@pytest.mark.parametrize("lam", [1.0, 4.0, 25.0])
def test_fourth_order_convergence(null_spec, lam):
    e_h = _state_error(null_spec, lam, 64)
    e_h2 = _state_error(null_spec, lam, 128)
    order = math.log2(e_h / e_h2)
    assert 3.7 <= order <= 4.3


def test_linearity_in_initial_data(delayed_spec):
    rng = random.Random(11)
    xs = np.linspace(0, HALF, 61)
    for _ in range(4):
        u0, du0, v0, dv0, a, b = (rng.uniform(-2, 2) for _ in range(6))
        seg_u = integrate_segment(delayed_spec, 10.0, LEFT, u0, du0, steps=512)
        seg_v = integrate_segment(delayed_spec, 10.0, LEFT, v0, dv0, steps=512)
        seg_ab = integrate_segment(delayed_spec, 10.0, LEFT,
                                   a * u0 + b * v0, a * du0 + b * dv0, steps=512)
        combo = a * seg_u.eval(xs) + b * seg_v.eval(xs)
        assert np.max(np.abs(seg_ab.eval(xs) - combo)) < 1e-9


def test_shoot_transmission_scaling(null_spec):
    # lambda = 4: w1 = cos 2x, w2 = 4^(-1/3) cos 2x, so w2(pi) = 4^(-1/3)
    res = shoot(null_spec, 4.0, 256)
    assert abs(res.right.eval(PI) - 4.0 ** (-1.0 / 3.0)) < 1e-9


def test_shoot_coupling_halves_right_start():
    res = shoot(spec_of(delta=2.0), 1.0, 128)
    assert res.right.eval(HALF) == pytest.approx(0.5 * res.left.eval(HALF), abs=1e-14)


@pytest.mark.parametrize("lam", [0.7, 4.0, 30.0])
def test_transmission_identities(delayed_spec, lam):
    res = shoot(delayed_spec, lam, 1024)
    factor = lam_cbrt(lam) * delayed_spec.coupling
    assert abs(res.left.eval(HALF) - factor * res.right.eval(HALF)) < 1e-9
    assert abs(res.left.eval_deriv(HALF) - factor * res.right.eval_deriv(HALF)) < 1e-9


def test_boundary_identity_exact():
    spec = spec_of(alpha=0.9, beta=1.2)
    res = shoot(spec, 7.0, 64)
    assert res.left.eval(0.0) == math.sin(0.9)
    assert res.left.eval_deriv(0.0) == -math.cos(0.9)


def test_segment_node_exact_and_continuous(delayed_spec):
    seg = shoot(delayed_spec, 9.0, 128).left
    assert np.array_equal(seg.eval(seg.nodes), seg.values)
    assert np.array_equal(seg.eval_deriv(seg.nodes), seg.derivs)
    assert np.all(np.isfinite(seg.values))
    # continuity across a node
    x = seg.nodes[37]
    eps = 1e-10
    assert abs(seg.eval(x - eps) - seg.eval(x + eps)) < 1e-8
    assert abs(seg.eval_deriv(x - eps) - seg.eval_deriv(x + eps)) < 1e-8


@pytest.mark.parametrize("lam", [2.0, 30.0, 400.0])
def test_second_derivs_satisfy_the_equation(delayed_spec, lam):
    # y'' = -q(x) y(x - Delta(x)) - lambda y at every node, the retarded
    # value read from the segment's own dense output
    res = shoot(delayed_spec, lam, 512)
    for seg, q, d in ((res.left, delayed_spec.q_left, delayed_spec.retard_left),
                      (res.right, delayed_spec.q_right, delayed_spec.retard_right)):
        x = seg.nodes
        want = -q.eval(x) * seg.eval(np.maximum(x - d.eval(x), seg.a)) - lam * seg.values
        scale = np.max(np.abs(seg.second_derivs))
        assert np.max(np.abs(seg.second_derivs - want)) < 1e-13 * scale


def test_eval_outside_interval_rejected(null_spec):
    seg = integrate_segment(null_spec, 1.0, LEFT, 1.0, 0.0, steps=32)
    with pytest.raises(ValueError):
        seg.eval(-0.5)
    with pytest.raises(ValueError):
        seg.eval(HALF + 0.1)


def test_shoot_many_matches_single(delayed_spec):
    lams = [2.0, 11.0, 29.0]
    many = shoot_many(delayed_spec, lams, 512)
    xs = np.linspace(HALF, PI, 31)
    for lam, res in zip(lams, many):
        single = shoot(delayed_spec, lam, 512)
        assert np.array_equal(res.right.eval(xs), single.right.eval(xs))


BATCH_SPECS = [spec_of("sin(x)", "cos(x)", "0.5*x*(pi/2 - x)", "(x - pi/2)*(pi - x)*0.25"),
               spec_of("1", "1")]


@contextlib.contextmanager
def split_sweeps(steps, width, block=None):
    """Shrink the state byte budget so that column blocks are at most
    ``width`` lambda columns wide, and the piece budget so that blocks of
    full-length pieces are at most ``block`` wide."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_solver, "SWEEP_BYTES", width * 2 * (steps + 1) * 8)
        if block is not None:
            cap = dde_solver._left_tables(spec_of(), steps).piece_cap
            mp.setattr(dde_solver, "PIECE_BYTES", block * 4 * 3 * 8 * cap)
        yield


def driver_blocks(spec, lams, steps):
    """The columns of every block the sweep driver works through, in order,
    with each segment sweep replaced by zero states."""
    def zeros(tables, z, y0, v0, cap):
        return np.zeros((2, tables.steps + 1, z.shape[0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_solver._SegmentTables, "sweep", zeros)
        return [cols.tolist() for cols, _, _ in dde_solver._shoot_blocks(
            spec, np.asarray(lams, dtype=float), steps, lambda tables, z, YV: None)]


def test_sweep_width_follows_the_byte_budget(null_spec, constq_spec):
    lams = np.linspace(1.0, 50.0, 1024)
    # one-step pieces (zero delay): 64 MiB over 2 x 4097 doubles per column
    # gives blocks of 1023 columns
    assert driver_blocks(constq_spec, lams, 4096) == [list(range(1023)), [1023]]
    # 85-step pieces: 1 MiB over a (4, 3, 85) gather of doubles per column
    # gives blocks of 128
    assert [len(cols) for cols in driver_blocks(null_spec, lams[:300], 4096)] == [128, 128, 44]
    with split_sweeps(64, 3):
        assert driver_blocks(null_spec, np.arange(1.0, 8.0), 64) == [[0, 1, 2], [3, 4, 5], [6]]


@st.composite
def batch_cases(draw, fewest_steps, most_steps, most_lams):
    """(steps, lams) for the batch-invariance properties: steps from the
    given range, or 383 and more, where pieces are longer than one step;
    lambda values in [0.5, 2500], or with s h in [1.3, 2.6], where
    ``piece_caps`` cuts the pieces shorter and a batch mixes caps."""
    steps = draw(st.one_of(st.integers(fewest_steps, most_steps),
                           st.sampled_from([383, 1024, 2048])))
    h = HALF / steps
    lam = st.one_of(st.floats(0.5, 2500.0), st.floats(1.3, 2.6).map(lambda sh: (sh / h) ** 2))
    return steps, draw(st.lists(lam, min_size=1, max_size=most_lams))


# four columns with caps 21, 4, 21 and 2 at 1024 steps (see test_piece_caps)
MIXED_CAPS = (1024, [4.0, (1.8 * 1024 / HALF) ** 2, 900.0, (2.5 * 1024 / HALF) ** 2])
# five columns of full-length pieces: blocks of two leave one column over
STRADDLING = (1024, [4.0, 30.0, 900.0, 2500.0, 100.0])


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(BATCH_SPECS), case=batch_cases(64, 256, 8),
       width=st.integers(1, 8), block=st.integers(1, 4))
@example(spec=BATCH_SPECS[0], case=MIXED_CAPS, width=3, block=1)
@example(spec=BATCH_SPECS[0], case=STRADDLING, width=5, block=2)
def test_shoot_endpoints_batch_invariant(spec, case, width, block):
    steps, lams = case
    # every column sees the same operations in the same order, whatever the
    # batch around it; byte-identical reruns and bracket refinement rely on it
    w, wp = shoot_endpoints(spec, lams, steps)
    with split_sweeps(steps, width, block):
        w_split, wp_split = shoot_endpoints(spec, lams, steps)
    assert w.tobytes() == w_split.tobytes() and wp.tobytes() == wp_split.tobytes()
    for k, lam in enumerate(lams):
        w1, wp1 = shoot_endpoints(spec, [lam], steps)
        assert w1.tobytes() == w[k:k + 1].tobytes() and wp1.tobytes() == wp[k:k + 1].tobytes()


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(BATCH_SPECS + [spec_of()]), case=batch_cases(32, 160, 6),
       width=st.integers(1, 6), block=st.integers(1, 4))
@example(spec=BATCH_SPECS[0], case=MIXED_CAPS, width=3, block=1)
@example(spec=BATCH_SPECS[0], case=STRADDLING, width=5, block=2)
def test_shoot_many_batch_invariant(spec, case, width, block):
    steps, lams = case
    # segments, second derivatives included, match bit for bit whether a
    # lambda is shot alone, in a batch or in a batch split into sweeps and
    # column blocks
    batch = shoot_many(spec, lams, steps)
    with split_sweeps(steps, width, block):
        split = shoot_many(spec, lams, steps)
    for k, lam in enumerate(lams):
        alone = shoot_many(spec, [lam], steps)[0]
        for res in (batch[k], split[k]):
            assert res.lam == alone.lam
            for side in ("left", "right"):
                for field in ("values", "derivs", "second_derivs"):
                    got = getattr(getattr(res, side), field)
                    want = getattr(getattr(alone, side), field)
                    assert got.tobytes() == want.tobytes(), (side, field)


def test_shoot_endpoints_matches_segments(constq_spec):
    lams = np.array([3.0, 17.0])
    w, wp = shoot_endpoints(constq_spec, lams, 512)
    for k, lam in enumerate(lams):
        res = shoot(constq_spec, lam, 512)
        assert w[k] == res.right.values[-1]
        assert wp[k] == res.right.derivs[-1]


def test_positive_lambda_required(null_spec):
    with pytest.raises(ValueError):
        shoot(null_spec, -1.0)
    with pytest.raises(ValueError):
        integrate_segment(null_spec, 0.0, LEFT, 1.0, 0.0)


def test_interval_must_not_straddle_interface(null_spec):
    with pytest.raises(ValueError):
        integrate_segment(null_spec, 1.0, (1.0, 2.0), 1.0, 0.0)


def test_negative_retardation_aborts():
    with pytest.raises(DelayRangeError):
        integrate_segment(spec_of(d_l="-0.1"), 1.0, LEFT, 1.0, 0.0, steps=64)


def test_delay_below_segment_start_aborts():
    with pytest.raises(DelayRangeError):
        integrate_segment(spec_of(d_l="2*x"), 1.0, LEFT, 1.0, 0.0, steps=64)


def test_overflow_reported():
    # q = -10^6 makes y'' ~ 10^6 y: growth ~ e^(1000 x) overflows mid-segment
    spec = spec_of(q_l="-1000000")
    with pytest.raises(NonFiniteStateError) as single:
        integrate_segment(spec, 1.0, LEFT, 1.0, 0.0, steps=512)
    assert "(lambda = 1.0)" in str(single.value)
    # in a batch the error names the column that overflows first (the
    # fastest growth, sqrt(10^6 - lambda), has the smallest lambda) and
    # where it did, not the whole batch
    with pytest.raises(NonFiniteStateError) as batch:
        shoot_endpoints(spec, [9.9e5, 1.0, 5e5, 9e5], 512)
    message = str(batch.value)
    assert "(lambda = 1.0)" in message and "[" not in message
    with pytest.raises(NonFiniteStateError) as alone:
        shoot_endpoints(spec, [1.0], 512)
    assert str(alone.value) == message
    # and so it does when every column is a block of its own
    with split_sweeps(512, 4, 1), pytest.raises(NonFiniteStateError) as blocked:
        shoot_endpoints(spec, [9.9e5, 1.0, 5e5, 9e5], 512)
    assert str(blocked.value) == message
    # across the whole batch, not within the first block that overflows: 5e5
    # (a block of its own, swept first) overflows at x ~ 1.41, 1.0 at x ~ 0.83
    with split_sweeps(512, 1), pytest.raises(NonFiniteStateError) as later:
        shoot_endpoints(spec, [5e5, 1.0], 512)
    assert str(later.value) == message


def test_endpoint_sweep_holds_one_block(delayed_spec):
    # the 2944-column coarse screen at 265 steps is one block of one-step
    # pieces; an endpoint sweep drops the left states before the right sweep
    # and keeps only a copy of the right end row, so its peak is one
    # (2, 266, 2944) state array and small temporaries, not two
    lams = np.linspace(4.5, 50.5, 2944) ** 2
    shoot_endpoints(delayed_spec, lams[:1], 265)
    tracemalloc.start()
    try:
        shoot_endpoints(delayed_spec, lams, 265)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (2 * 266 * 2944 * 8)


def stepwise_sweep(tables, lam, y0, v0):
    """Reference integrator: the scheme one step at a time, u[i+1] =
    C (u[i], g[i]), each step's stages gathered from the rows before it.
    ``_SegmentTables.sweep`` must reproduce it to rounding."""
    z = np.asarray(lam, dtype=float)
    m, n, h = z.shape[0], tables.steps, tables.h
    h2 = h * h
    C = np.zeros((2, 5, m))
    C[0, 0] = C[1, 1] = 1.0 - 0.5 * h2 * z + (h2 * h2 / 24.0) * z * z
    C[0, 1] = h * (1.0 - (h2 / 6.0) * z)
    C[1, 0] = -z * C[0, 1]
    C[0, 2] = h2 / 6.0 - (h2 * h2 / 24.0) * z
    C[0, 3] = h2 / 3.0
    C[1, 2] = (h / 6.0) * (1.0 - 0.5 * h2 * z)
    C[1, 3] = 2.0 * h / 3.0 - (h2 * h / 12.0) * z
    C[1, 4] = h / 6.0
    YV = np.empty((2, n + 1, m))
    rows = YV.reshape(-1, m)
    u = np.zeros((5, m))
    yv, g = u[:2], u[2:]
    yv[0], yv[1] = y0, v0
    YV[:, 0] = yv
    with np.errstate(over="ignore", invalid="ignore"):
        nq, d = tables.negq[:, 0], tables.first_d
        g[0] = nq[0] * yv[0]
        g[1:] = nq[1:] * (yv[0] + d * yv[1] + (0.5 * d * d) * (g[0] - z * yv[0]))
        for i in range(n):
            if i:
                (rows.take(tables.gather[:, :, i], axis=0) * tables.weights[:, :, i]).sum(axis=0, out=g)
            (C * u).sum(axis=1, out=yv)
            YV[:, i + 1] = yv
    return YV


@st.composite
def sweep_specs(draw):
    """The batch specs, the null spec, and q = c0 + c1 sin(kx) with
    Delta = c2 x (pi/2 - x) on the left."""
    kind = draw(st.sampled_from(["batch", "null", "sine"]))
    if kind == "batch":
        return draw(st.sampled_from(BATCH_SPECS))
    if kind == "null":
        return spec_of()
    c0, c1 = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    k, c2 = draw(st.integers(1, 4)), draw(st.floats(0.0, 0.6))
    q = f"({c0!r}) + ({c1!r})*sin({k}*x)"
    return spec_of(q, q, f"({c2!r})*x*(pi/2 - x)")


def both_tables(spec, steps):
    return dde_solver._left_tables(spec, steps), dde_solver._right_tables(spec, steps)


def rows_read(tables):
    """The newest row each step's stencils read."""
    return (tables.gather[:, :, :tables.steps] % (tables.steps + 1)).max(axis=(0, 1))


@settings(max_examples=40, deadline=None)
@given(spec=sweep_specs(), steps=st.integers(2, 1024))
def test_runs_partition_the_steps(spec, steps):
    for tables in both_tables(spec, steps):
        n, bounds = tables.steps, tables.run_bounds.tolist()
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(b < e for b, e in zip(bounds, bounds[1:]))
        if tables.q_zero:
            # no stage is read: one run
            assert bounds == [0, n]
        else:
            # the peeled step 0 reads the initial state alone
            assert bounds[1] == 1
            reads = rows_read(tables)
            assert np.all(reads[1:] <= np.arange(1, n))
            for b, e in zip(bounds[1:], bounds[2:]):
                assert reads[b:e].max() <= b
                # maximal: the next step reads a row the run computes
                assert e == n or reads[e] > b
        for cap in (1, 3, tables.piece_cap):
            pieces, longest = tables.pieces(cap)
            starts, ends = zip(*(piece[:2] for piece in pieces))
            assert longest == max(e - b for b, e in zip(starts, ends))
            assert starts[0] == 0 and ends[-1] == n and starts[1:] == ends[:-1]
            # no piece straddles two runs
            assert set(bounds) <= set(starts) | {n}
            assert all(0 < e - b <= cap for b, e in zip(starts, ends))


def test_runs_of_the_shipped_kinds(null_spec, constq_spec, delayed_spec):
    # q = 0 reads nothing: each segment is one run
    assert [t.run_bounds.tolist() for t in both_tables(null_spec, 4096)] == [[0, 4096]] * 2
    # zero delay reads the current state: every run is one step
    for tables in both_tables(constq_spec, 4096):
        assert tables.run_bounds.tolist() == list(range(4097))
    left, right = both_tables(delayed_spec, 4096)
    assert (len(left.run_bounds) - 1, len(right.run_bounds) - 1) == (23, 46)
    assert np.diff(left.run_bounds).max() == 788
    left, right = both_tables(delayed_spec, 265)
    assert (len(left.run_bounds) - 1, len(right.run_bounds) - 1) == (17, 31)


@settings(max_examples=30, deadline=None)
@given(spec=sweep_specs(), steps=st.integers(64, 4096),
       sh=st.lists(st.floats(0.01, 3.2), min_size=1, max_size=3))
def test_blocked_sweep_matches_stepwise(spec, steps, sh):
    # s h past the scheme's stability limit (about 2.83) overflows on long
    # segments: then both must fail, naming the same lambda
    for tables, y0, v0 in zip(both_tables(spec, steps), (0.0, 0.7), (-1.0, -0.4)):
        for lam in [(x / tables.h) ** 2 for x in sh]:
            want = stepwise_sweep(tables, [lam], y0, v0)
            interval = (tables.a, tables.b)
            if not np.isfinite(want).all():
                with pytest.raises(NonFiniteStateError, match=re.escape(f"lambda = {lam!r}")):
                    integrate_segment(spec, lam, interval, y0, v0, steps)
                continue
            seg = integrate_segment(spec, lam, interval, y0, v0, steps)
            got = np.stack([seg.values, seg.derivs])[:, :, None]
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-11 * scale, (lam, tables.a)


def test_sweep_at_full_resolution_matches_stepwise(delayed_spec):
    lams = np.array([4.0, 625.0, 2500.0])
    for tables in both_tables(delayed_spec, 4096):
        assert tables.piece_caps(lams).tolist() == [tables.piece_cap] * 3
        got = tables.sweep(lams, 1.0, 0.5, tables.piece_cap)
        want = stepwise_sweep(tables, lams, 1.0, 0.5)
        scale = np.abs(want).max(axis=(0, 1))
        assert np.all(np.abs(got - want).max(axis=(0, 1)) <= 1e-11 * scale)


def test_piece_caps(delayed_spec):
    # (steps + 1) // 48 steps at most, one step when that is under 8; s h of
    # 1.8 and 2.5 cut pieces shorter
    assert both_tables(delayed_spec, 4096)[0].piece_cap == 85
    assert both_tables(delayed_spec, 383)[0].piece_cap == 8
    assert both_tables(delayed_spec, 382)[0].piece_cap == 1
    steps, lams = MIXED_CAPS
    for tables in both_tables(delayed_spec, steps):
        assert tables.piece_caps(np.array(lams)).tolist() == [21, 4, 21, 2]
    # a block holds columns of one cap, in order of cap, and a batch that
    # mixes caps gets no narrower blocks than any other
    with split_sweeps(steps, 4):
        assert driver_blocks(delayed_spec, lams, steps) == [[3], [1], [0, 2]]
