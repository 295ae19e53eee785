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
from delaybvp.picard import picard_w1
from delaybvp.problem import HALF, ProblemSpec, segment_samples

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


@pytest.mark.parametrize("build", [lambda spec: shoot(spec, 25.0).left,
                                   lambda spec: picard_w1(spec, 25.0)], ids=["shot", "picard"])
def test_nan_evaluation_is_outside_the_interval(constq_spec, build):
    # a NaN compares false both ways, so it must fail the range check
    # rather than reach the Hermite lookup's integer cast
    seg = build(constq_spec)
    for evaluate in (seg.eval, seg.eval_deriv):
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=re.escape(f"evaluation outside [0.0, {HALF!r}]")):
                evaluate(x)


def test_shoot_many_matches_single(delayed_spec):
    lams = [2.0, 11.0, 29.0]
    many = shoot_many(delayed_spec, lams, 512)
    xs = np.linspace(HALF, PI, 31)
    for lam, res in zip(lams, many):
        single = shoot(delayed_spec, lam, 512)
        assert np.array_equal(res.right.eval(xs), single.right.eval(xs))


# the problems of configs/null.json, constant_q.json and delayed.json
SHIPPED = [("0", "0", "0", "0"), ("1", "1", "0", "0"),
           ("sin(x)", "cos(x)", "0.5*x*(pi/2 - x)", "(x - pi/2)*(pi - x)*0.25")]


@pytest.mark.parametrize("problem", SHIPPED, ids=["null", "constant_q", "delayed"])
@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(-PI, PI), sh=st.floats(0.01, 1.5), steps=st.integers(2, 2048))
@example(alpha=HALF, sh=0.98, steps=2048)
@example(alpha=0.3, sh=1.3, steps=1024)
@example(alpha=-1.0, sh=0.5, steps=383)
@example(alpha=2.0, sh=1.2, steps=382)
def test_integrate_segment_is_the_left_half_of_shoot(problem, alpha, sh, steps):
    # both sweep through the one driver: from (sin alpha, -cos alpha) on
    # [0, pi/2] the segment is bitwise shoot's left one, also from 383 steps
    # on, where pieces are longer than one step, their length depends on
    # lambda, and shoot builds the coefficients for the longer pieces of
    # both halves
    spec = spec_of(*problem, alpha=alpha)
    lam = (sh * steps / HALF) ** 2
    want = shoot(spec, lam, steps).left
    got = integrate_segment(spec, lam, LEFT, math.sin(alpha), -math.cos(alpha), steps)
    for name in ("values", "derivs", "second_derivs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


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
    def zeros(tables, z, y0, v0, cap, coefficients):
        return np.zeros((2, tables.steps + 1, z.shape[0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_solver._SegmentTables, "sweep", zeros)
        return [cols.tolist() for cols, _, _ in dde_solver._shoot_blocks(
            spec, *dde_solver._halves(spec, steps), np.asarray(lams, dtype=float),
            lambda tables, z, YV: None)]


def driver_coefficients(tables, lams, cap):
    """The scheme coefficients the sweep driver builds for ``tables`` swept
    alone at piece cap ``cap``."""
    return dde_solver._coefficients(lams, tables.h, tables.pieces(cap)[1], not tables.q_zero)


def test_sweep_width_follows_the_byte_budget(null_spec, constq_spec):
    lams = np.linspace(1.0, 50.0, 1024)
    # one-step pieces (zero delay): 64 MiB over 2 x 4097 doubles per column
    # gives blocks of 1023 columns
    assert driver_blocks(constq_spec, lams, 4096) == [list(range(1023)), [1023]]
    # 85-step pieces: 1 MiB over 12 doubles per step and column gives
    # blocks of 128
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
            assert res.left.lam == alone.left.lam
            for side in ("left", "right"):
                for field in ("values", "derivs", "second_derivs"):
                    got = getattr(getattr(res, side), field)
                    want = getattr(getattr(alone, side), field)
                    assert got.tobytes() == want.tobytes(), (side, field)


# q = 0 (no stencil read), zero delay (one-step pieces) and delayed (pieces
# longer than one step from 383 steps on)
WIDTH_SPECS = [spec_of(), BATCH_SPECS[1], BATCH_SPECS[0]]


@st.composite
def width_cases(draw):
    """(steps, lams, width): a batch of 1..70 columns of one piece cap, and a
    block width for the split sweep, narrow or wide."""
    steps = draw(st.sampled_from([64, 383, 512]))
    lams = draw(st.lists(st.floats(0.5, 2500.0), min_size=1, max_size=70))
    return steps, lams, draw(st.integers(1, 70))


def linspace_case(columns):
    # blocks of one column fewer than the batch: the whole batch is one block
    # and the split leaves one column over, a block of its own
    return 512, np.linspace(4.0, 2500.0, columns).tolist(), columns - 1


@pytest.mark.parametrize("spec", WIDTH_SPECS, ids=["q0", "zero_delay", "delayed"])
@settings(max_examples=8, deadline=None)
@given(case=width_cases())
@example(case=linspace_case(dde_solver.WIDE_BLOCK - 1))
@example(case=linspace_case(dde_solver.WIDE_BLOCK))
@example(case=linspace_case(dde_solver.WIDE_BLOCK + 1))
@example(case=linspace_case(2 * dde_solver.WIDE_BLOCK + 1))
def test_wide_and_narrow_blocks_agree(spec, case):
    steps, lams, width = case
    # a block of WIDE_BLOCK columns or more sums its products with np.einsum,
    # a narrower one with a product and np.add.reduce; both add the same
    # products in the same order, so a column is bitwise the same in the
    # whole batch (one block), in blocks of ``width`` and swept alone
    whole = shoot_endpoints(spec, lams, steps)
    with split_sweeps(steps, width):
        split = shoot_endpoints(spec, lams, steps)
    for k, lam in enumerate(lams):
        alone = shoot_endpoints(spec, [lam], steps)
        for ends in (whole, split):
            assert ends[0][k:k + 1].tobytes() == alone[0].tobytes()
            assert ends[1][k:k + 1].tobytes() == alone[1].tobytes()


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
    with pytest.raises(ValueError, match="must not straddle"):
        integrate_segment(null_spec, 1.0, (1.0, 2.0), 1.0, 0.0)
    for interval in [(1.0, 1.0), (1.0, 0.5)]:
        with pytest.raises(ValueError, match="interval must have positive length"):
            integrate_segment(null_spec, 1.0, interval, 1.0, 0.0)


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


def test_one_coefficient_set_per_block(delayed_spec, monkeypatch):
    # both segments of a block share its powers of A and of A^-1: two
    # _powers calls per block, not two per segment
    lams = np.linspace(4.0, 2500.0, 40)
    calls = []
    powers = dde_solver._powers
    monkeypatch.setattr(dde_solver, "_powers", lambda A, count: calls.append(count) or powers(A, count))
    want = shoot_endpoints(delayed_spec, lams, 512)
    assert calls == [10, 10]
    calls.clear()
    with split_sweeps(512, 8):
        got = shoot_endpoints(delayed_spec, lams, 512)
    assert len(calls) == 2 * 5
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


# the overflow spec of test_overflow_reported behind a coupling that puts the
# right segment's start near the largest double
TINY_COUPLING = spec_of(q_l="-1000000", delta=3e-308)


@settings(max_examples=25, deadline=None)
@given(lams=st.lists(st.floats(0.0, 300.0).map(lambda e: 10.0 ** e), min_size=1, max_size=6),
       width=st.integers(1, 6), block=st.integers(1, 3))
@example(lams=[9.9e5, 1.0, 5e5, 9e5, 1e300], width=2, block=1)
def test_end_row_finiteness_matches_the_full_scan(lams, width, block):
    # where a segment's pieces are all one step (the zero-delay left
    # segment), its end row stands for its states: the first non-finite
    # state found from it is the full scan's, in one block and in many
    scan = dde_solver._non_finite
    absorbing = []

    def checked(side, YV, cols, absorbing_=False):
        got = scan(side, YV, cols, absorbing_)
        assert got == scan(side, YV, cols)
        absorbing.append((side, absorbing_))
        return got

    for split in (contextlib.nullcontext(), split_sweeps(512, width, block)):
        with split, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dde_solver, "_non_finite", checked)
            with contextlib.suppress(NonFiniteStateError):
                shoot_endpoints(TINY_COUPLING, lams, 512)
    # every block of the left segment, those past lambda = 1e154 whose
    # coefficients overflow included, is checked at its end row
    assert absorbing and all(a for side, a in absorbing if side == 0)


def test_overflow_inside_a_piece_is_reported():
    # q = 0 on the right: 10-step pieces, each row A^(l+1) u[b] from the
    # piece's first row, not from the row before.  At this lambda y' peaks
    # past the largest double inside pieces, rows 86 and on overflow, and
    # the end row is finite again, so such a segment is scanned in full
    spec = spec_of(delta=2.5e-308)
    lam = 10447.597574377774
    right = dde_solver._right_tables(spec, 512)
    assert right.pieces(right.piece_caps(np.array([lam]))[0])[1] > 1
    with pytest.raises(NonFiniteStateError, match=re.escape(f"(lambda = {lam!r})")):
        shoot_endpoints(spec, [lam], 512)


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


def reference_stencils(samples):
    """The Hermite stencils of every step, built stage by stage:
    ``gather[k, s, i]`` and ``weights[k, s, i]`` of term k of stage s
    (node, half, end) of step i into the flat (2, steps+1) state rows, row
    n holding the node stage of the last node; the Taylor distances of step
    0's half and end stages; and -q at step 0's three stages."""
    a, h, nodes = samples.a, samples.h, samples.nodes
    n = nodes.shape[0] - 1
    (q_node, q_half), (d_node, d_half) = samples.q, samples.delta
    ctx = np.arange(n + 1)
    x_ctx = a + ctx * h
    # the half and end slots of row n are never read
    xi = np.stack([nodes - d_node, np.append(samples.half - d_half, x_ctx[-1]),
                   np.append(nodes[1:] - d_node[1:], x_ctx[-1])])
    negq = -np.stack([q_node, np.append(q_half, 0.0), np.append(q_node[1:], 0.0)])
    xi = np.minimum(np.maximum(xi, a), x_ctx + h)
    # a stage past x_i extrapolates the last completed step, one within
    # 1e-14 of x_i reads the current state
    inside = xi > x_ctx + 1e-14
    current = ~inside & (x_ctx - xi <= 1e-14)
    t_idx = (xi - a) / h
    j = np.minimum(np.maximum(np.floor(t_idx).astype(np.int64), 0), n - 1)
    j = np.where(inside | current, np.maximum(ctx - 1, 0), j)
    theta = np.where(current, ctx - j, t_idx - j)
    t2 = theta * theta
    t3 = t2 * theta
    weights = np.stack([2.0 * t3 - 3.0 * t2 + 1.0, -2.0 * t3 + 3.0 * t2,
                        h * (t3 - 2.0 * t2 + theta), h * (t3 - t2)]) * negq
    # terms (Y[j], Y[j+1], V[j], V[j+1])
    gather = (j + np.array([0, 1, 0, 1])[:, None, None]
              + np.array([0, 0, 1, 1])[:, None, None] * (n + 1))
    first_d = np.where(inside[1:, 0], xi[1:, 0] - a, 0.0)
    return gather, weights, first_d, negq[:, 0]


def stepwise_sweep(samples, lam, y0, v0):
    """Reference integrator: the scheme one step at a time, u[i+1] =
    C (u[i], g[i]), each step's three stages gathered through its own
    ``reference_stencils`` from the rows before it, and y'' at every node
    from the node stages.  ``_SegmentTables.sweep`` and ``second_derivs``
    must reproduce the states and y'' to rounding."""
    gather, weights, d, nq = reference_stencils(samples)
    z = np.asarray(lam, dtype=float)
    m, n, h = z.shape[0], samples.nodes.shape[0] - 1, samples.h
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
        d, nq = d[:, None], nq[:, None]
        g[0] = nq[0] * yv[0]
        g[1:] = nq[1:] * (yv[0] + d * yv[1] + (0.5 * d * d) * (g[0] - z * yv[0]))
        for i in range(n):
            if i:
                (rows.take(gather[:, :, i], axis=0) * weights[:, :, i, None]).sum(axis=0, out=g)
            (C * u).sum(axis=1, out=yv)
            YV[:, i + 1] = yv
        second = (rows.take(gather[:, 0], axis=0) * weights[:, 0, :, None]).sum(axis=0) - z * YV[0]
    return YV, second


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


def both_samples(spec, steps):
    return (segment_samples(spec.q_left, spec.retard_left, 0.0, HALF, steps),
            segment_samples(spec.q_right, spec.retard_right, HALF, PI, steps))


def rows_read(samples):
    """The newest row each step's stencils read."""
    gather, n = reference_stencils(samples)[0], samples.nodes.shape[0] - 1
    return (gather[:, :, :n] % (n + 1)).max(axis=(0, 1))


def frozen_delay_spec(steps, node):
    """q = 1 and, on the left, x - Delta(x) = max(x, c) with c 5e-15 below
    the given node: from that node on every stage reads c.  The node's step
    starts a run, its end stage reads the current state and the next node
    stage interpolates at c, so their stencils differ inside the run."""
    c = node * HALF / steps - 5e-15
    return spec_of("1", "1", f"(x - {c!r} + abs(x - {c!r}))/2")


@settings(max_examples=40, deadline=None)
@given(spec=sweep_specs(), steps=st.integers(2, 1024))
def test_runs_partition_the_steps(spec, steps):
    for tables, samples in zip(both_tables(spec, steps), both_samples(spec, steps)):
        n, bounds = tables.steps, tables.run_bounds.tolist()
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(b < e for b, e in zip(bounds, bounds[1:]))
        if tables.q_zero:
            # no stage is read: one run
            assert bounds == [0, n]
        else:
            # the peeled step 0 reads the initial state alone
            assert bounds[1] == 1
            reads = rows_read(samples)
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


@settings(max_examples=40, deadline=None)
@given(spec=sweep_specs(), steps=st.integers(2, 1024))
@example(spec=frozen_delay_spec(64, 20), steps=64)
def test_pieces_interleave_the_reference_stencils(spec, steps):
    # a piece's stencil rows are node b, half b, node b+1, ..., half e-1,
    # end e-1, bitwise those built stage by stage; the sweep reads node k+1
    # as the end stage of step k, so a step whose end stencil is not the
    # next node's must end its piece.  A two-row table, half b and end b,
    # is a one-step piece at cap 1 from step 2 on whose node stage is the
    # end stage of the step before
    for tables, samples in zip(both_tables(spec, steps), both_samples(spec, steps)):
        gather, weights = reference_stencils(samples)[:2]
        n = tables.steps
        assert np.array_equal(tables.gather[:, tables.node_rows], gather[:, 0])
        assert tables.weights[:, tables.node_rows, 0].tobytes() == weights[:, 0].tobytes()
        differ = ((gather[:, 2, :n - 1] != gather[:, 0, 1:n]).any(axis=0)
                  | (weights[:, 2, :n - 1] != weights[:, 0, 1:n]).any(axis=0))
        if tables.q_zero:
            # no stage is read
            continue
        for cap in (1, 3, tables.piece_cap):
            pieces = tables.pieces(cap)[0]
            assert set(np.flatnonzero(differ) + 1) <= {b for b, *_ in pieces}
            for b, e, got_gather, got_weights in pieces:
                def interleaved(table):
                    pairs = table[:, :2, b:e].transpose(0, 2, 1).reshape(4, -1)
                    return np.concatenate([pairs, table[:, 2, e - 1:e]], axis=1)
                want_gather, want_weights = interleaved(gather), interleaved(weights)
                if got_gather.shape[1] == 2:
                    assert cap == 1 and e - b == 1 and b >= 2 and not differ[b - 1]
                    want_gather, want_weights = want_gather[:, 1:], want_weights[:, 1:]
                assert np.array_equal(got_gather, want_gather)
                assert got_weights[..., 0].tobytes() == want_weights.tobytes()
    if spec == frozen_delay_spec(64, 20):
        left = both_tables(spec, steps)[0]
        assert left.run_bounds.tolist()[-2:] == [20, 64] and 21 in left.breaks


def test_runs_of_the_shipped_kinds(null_spec, constq_spec, delayed_spec):
    # q = 0 reads nothing: each segment is one run
    assert [t.run_bounds.tolist() for t in both_tables(null_spec, 4096)] == [[0, 4096]] * 2
    # zero delay reads the current state: every run is one step
    for tables in both_tables(constq_spec, 4096):
        assert tables.run_bounds.tolist() == list(range(4097))
    left, right = both_tables(delayed_spec, 4096)
    assert (len(left.run_bounds) - 1, len(right.run_bounds) - 1) == (23, 46)
    assert np.diff(left.run_bounds).max() == 788
    # every step whose node stencil is not the end stencil before it starts a run
    assert set(left.breaks) <= set(left.run_bounds) and set(right.breaks) <= set(right.run_bounds)
    left, right = both_tables(delayed_spec, 265)
    assert (len(left.run_bounds) - 1, len(right.run_bounds) - 1) == (17, 31)


@settings(max_examples=30, deadline=None)
@given(spec=sweep_specs(), steps=st.integers(64, 4096),
       sh=st.lists(st.floats(0.01, 3.2), min_size=1, max_size=3))
@example(spec=frozen_delay_spec(512, 300), steps=512, sh=[0.05, 1.2])
@example(spec=spec_of(), steps=847, sh=[3.2])
def test_blocked_sweep_matches_stepwise(spec, steps, sh):
    # s h past the scheme's stability limit (about 2.83) overflows on long
    # segments: then both must fail, naming the same lambda
    for tables, samples, y0, v0 in zip(both_tables(spec, steps), both_samples(spec, steps),
                                       (0.0, 0.7), (-1.0, -0.4)):
        for lam in [(x / tables.h) ** 2 for x in sh]:
            want, want_second = stepwise_sweep(samples, [lam], y0, v0)
            interval = (tables.a, tables.b)
            # y'' = -q y(x - Delta) - lambda y may overflow where y does not
            if not (np.isfinite(want).all() and np.isfinite(want_second).all()):
                with pytest.raises(NonFiniteStateError, match=re.escape(f"lambda = {lam!r}")):
                    integrate_segment(spec, lam, interval, y0, v0, steps)
                continue
            seg = integrate_segment(spec, lam, interval, y0, v0, steps)
            got = np.stack([seg.values, seg.derivs])[:, :, None]
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-11 * scale, (lam, tables.a)
            scale = np.abs(want_second).max()
            assert np.abs(seg.second_derivs - want_second[:, 0]).max() <= 1e-11 * scale


def test_sweep_at_full_resolution_matches_stepwise(delayed_spec):
    lams = np.array([4.0, 625.0, 2500.0])
    for tables, samples in zip(both_tables(delayed_spec, 4096), both_samples(delayed_spec, 4096)):
        assert tables.piece_caps(lams).tolist() == [tables.piece_cap] * 3
        cap = tables.piece_cap
        got = tables.sweep(lams, 1.0, 0.5, cap, driver_coefficients(tables, lams, cap))
        want = stepwise_sweep(samples, lams, 1.0, 0.5)[0]
        scale = np.abs(want).max(axis=(0, 1))
        assert np.all(np.abs(got - want).max(axis=(0, 1)) <= 1e-11 * scale)


def test_wide_gather_adds_the_stencil_terms_in_order(delayed_spec, monkeypatch):
    # a wide block's stage rows are bitwise the four Hermite terms added in
    # the order 0..3, as second_derivs adds them; the states cannot show
    # the order, since a stage's last bit enters them through B ~ h^2/6
    # and rounds away
    lams = np.linspace(4.0, 2500.0, 40)
    assert lams.shape[0] >= dde_solver.WIDE_BLOCK
    stages = []
    einsum = np.einsum

    def recording(subscripts, *operands, **kwargs):
        result = einsum(subscripts, *operands, **kwargs)
        if subscripts == "krm,krm->rm":
            stages.append(result.copy())
        return result

    for tables in both_tables(delayed_spec, 512):
        [cap] = set(tables.piece_caps(lams).tolist())
        stages.clear()
        monkeypatch.setattr(dde_solver.np, "einsum", recording)
        YV = tables.sweep(lams, 1.0, 0.5, cap, driver_coefficients(tables, lams, cap))
        monkeypatch.undo()
        rows = YV.reshape(-1, lams.shape[0])
        # every piece gathers its stages but the peeled step 0
        spans = [(b, e) for b, e, _, _ in tables.pieces(cap)[0] if e - b > 1 or b]
        assert len(stages) == len(spans) and any(e - b > 1 for b, e in spans)
        for (b, e), got in zip(spans, stages):
            r = slice(tables.node_rows[b], tables.node_rows[b] + 2 * (e - b) + 1)
            idx, w = tables.gather[:, r], tables.weights[:, r]
            want = rows[idx[0]] * w[0]
            for k in range(1, 4):
                want += rows[idx[k]] * w[k]
            assert got.tobytes() == want.tobytes(), (tables.a, b, e)


def test_one_step_stages_add_the_stencil_terms_in_order(delayed_spec, monkeypatch):
    # at 265 steps every piece is one step and a step whose node stage is
    # the end stage of the step before copies that value: every stage the
    # step contraction reads, shared node included, is bitwise the four
    # Hermite terms of its own stencil added in the order 0..3
    lams = np.linspace(4.0, 2500.0, 40)
    states = []
    einsum = np.einsum

    def recording(subscripts, *operands, **kwargs):
        if subscripts == "ckm,km->cm":
            states.append(operands[1].copy())
        return einsum(subscripts, *operands, **kwargs)

    for tables in both_tables(delayed_spec, 265):
        # steps that share their node stage, whose tables have two rows,
        # and breaks that must not
        shared = {b for b, _, stencil, _ in tables.pieces(1)[0] if stencil.shape[1] == 2}
        assert len(shared) > 200
        assert any(b not in shared for b in tables.breaks if 2 <= b < tables.steps)
        states.clear()
        monkeypatch.setattr(dde_solver.np, "einsum", recording)
        YV = tables.sweep(lams, 1.0, 0.5, 1, driver_coefficients(tables, lams, 1))
        monkeypatch.undo()
        rows = YV.reshape(-1, lams.shape[0])
        assert len(states) == tables.steps
        # step 0 reads the Taylor extrapolant
        for b, state in enumerate(states[1:], start=1):
            r = tables.node_rows[b] + np.arange(3)
            idx, w = tables.gather[:, r], tables.weights[:, r]
            want = rows[idx[0]] * w[0]
            for k in range(1, 4):
                want += rows[idx[k]] * w[k]
            assert state[2:].tobytes() == want.tobytes(), (tables.a, b)


def test_piece_caps(delayed_spec):
    # (steps + 1) // 48 steps at most, one step when that is under 8; s h of
    # 1.8 and 2.5 cut pieces shorter
    tables = both_tables(delayed_spec, 4096)[0]
    assert tables.piece_cap == 85
    # the longest power of two falls below 128 between s h = 0.98 and 0.99,
    # well before the cap's own factor passes 2
    sh = np.array([0.98, 0.99])
    assert tables.piece_caps((sh / tables.h) ** 2).tolist() == [85, 64]
    assert both_tables(delayed_spec, 383)[0].piece_cap == 8
    assert both_tables(delayed_spec, 382)[0].piece_cap == 1
    steps, lams = MIXED_CAPS
    for tables in both_tables(delayed_spec, steps):
        assert tables.piece_caps(np.array(lams)).tolist() == [21, 4, 21, 2]
    # a block holds columns of one cap, in order of cap, and a batch that
    # mixes caps gets no narrower blocks than any other
    with split_sweeps(steps, 4):
        assert driver_blocks(delayed_spec, lams, steps) == [[3], [1], [0, 2]]
