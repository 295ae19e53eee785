import numpy as np
from hypothesis import given, settings, strategies as st

from delaybvp.quadrature import cumulative_simpson, hermite, hermite_weights

coefficient = st.floats(-10.0, 10.0)


def _grid(count, length):
    """Uniform nodes t_k = k h on [0, length] and their spacing."""
    h = length / (count - 1)
    return np.arange(count) * h, h


def _tolerance(count, length, y):
    # count roundings, each at most eps times a running sum <= length * max|y|
    return 8 * np.finfo(float).eps * count * length * (1.0 + np.max(np.abs(y)))


@settings(max_examples=100, deadline=None)
@given(count=st.integers(3, 400), length=st.floats(0.1, 10.0),
       c=st.tuples(coefficient, coefficient, coefficient))
def test_cumulative_simpson_exact_on_quadratics(count, length, c):
    t, h = _grid(count, length)
    y = c[0] + c[1] * t + c[2] * t ** 2
    exact = c[0] * t + c[1] * t ** 2 / 2 + c[2] * t ** 3 / 3
    err = np.abs(cumulative_simpson(y, h) - exact)
    assert np.max(err) <= _tolerance(count, length, y)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(3, 400), length=st.floats(0.1, 10.0),
       c=st.tuples(coefficient, coefficient, coefficient, coefficient))
def test_cumulative_simpson_exact_on_cubics_at_even_nodes(count, length, c):
    # odd nodes use the one-sided quadratic rule, which is not exact on cubics
    t, h = _grid(count, length)
    y = c[0] + c[1] * t + c[2] * t ** 2 + c[3] * t ** 3
    exact = c[0] * t + c[1] * t ** 2 / 2 + c[2] * t ** 3 / 3 + c[3] * t ** 4 / 4
    err = np.abs(cumulative_simpson(y, h) - exact)[::2]
    assert np.max(err) <= _tolerance(count, length, y)


def _simpson_loop(y, h):
    """cumulative_simpson one node at a time, the same operations in order."""
    n = len(y)
    out = [0.0] * n
    for i in range(1, n):
        if i % 2 == 0:
            out[i] = out[i - 2] + (h / 3.0) * (y[i - 2] + 4.0 * y[i - 1] + y[i])
        elif i + 1 < n:
            out[i] = out[i - 1] + (h / 12.0) * (5.0 * y[i - 1] + 8.0 * y[i] - y[i + 1])
        else:
            out[i] = out[i - 1] + (h / 12.0) * (-y[n - 3] + 8.0 * y[n - 2] + 5.0 * y[n - 1])
    return np.array(out)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 5), count=st.integers(3, 64), h=st.floats(1e-3, 10.0),
       data=st.data())
def test_cumulative_simpson_rows_match_one_dimensional_calls(rows, count, h, data):
    # an array of rows integrates along its last axis; every row is bitwise
    # its own 1-D integral and the node-by-node loop
    y = np.array(data.draw(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=count,
                                             max_size=count),
                                    min_size=rows, max_size=rows)))
    out = cumulative_simpson(y, h)
    assert out.shape == (rows, count)
    for r in range(rows):
        assert np.array_equal(out[r], cumulative_simpson(y[r], h))
        assert np.array_equal(out[r], _simpson_loop(y[r], h))
    assert np.array_equal(cumulative_simpson(y[:, None, :], h)[:, 0], out)


def test_hermite_reproduces_cubics_and_snaps_to_nodes():
    nodes = np.linspace(0.3, 2.1, 13)
    f = nodes ** 3 - 2.0 * nodes
    df = 3.0 * nodes ** 2 - 2.0
    xs = np.linspace(0.3, 2.1, 101)
    assert np.allclose(hermite(nodes, f, df, xs), xs ** 3 - 2.0 * xs, rtol=0, atol=1e-13)
    assert np.array_equal(hermite(nodes, f, df, nodes), f)
    assert hermite(nodes, f, df, nodes[-1]) == f[-1]
    # rows of values and slopes interpolate like one row each
    rows = np.stack([f, 2.0 * f + 1.0])
    slopes = np.stack([df, 2.0 * df])
    both = hermite(nodes, rows, slopes, xs)
    assert np.array_equal(both[1], hermite(nodes, rows[1], slopes[1], xs))
    assert np.array_equal(both[0], hermite(nodes, f, df, xs))
    # weights built once give every row bitwise what a call of its own does
    weights = hermite_weights(nodes, xs)
    for values, slopes_ in ((f, df), (rows, slopes), (rows[1], slopes[1])):
        assert hermite(nodes, values, slopes_, xs, weights).tobytes() == \
            hermite(nodes, values, slopes_, xs).tobytes()
    assert hermite(nodes, f, df, 1.0, hermite_weights(nodes, 1.0)) == hermite(nodes, f, df, 1.0)
