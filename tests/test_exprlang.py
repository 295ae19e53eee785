import functools
import math
import random

import numpy as np
import pytest

from delaybvp.exprlang import (MAX_DEPTH, BinOp, Call, Const, ExprDomainError,
                               ExprSyntaxError, Neg, Num, Var, parse, unparse)


def test_parse_literal_zero():
    assert parse("0") == Num(0.0)


def test_parse_example_tree():
    tree = parse("sin(x)*0.5 + pi")
    assert tree == BinOp("+", BinOp("*", Call("sin", Var()), Num(0.5)), Const("pi"))


def test_power_right_associative():
    expr = parse("2^3^2")
    for x in (0.0, 1.7, -3.2):
        assert expr.eval(x) == 512.0


@pytest.mark.parametrize("source,x,expected", [
    ("x*(pi/2 - x)", 0.0, 0.0),
    ("cos(x)", math.pi, -1.0),
    ("x^2 - 3*x + 1", 2.0, -1.0),
])
def test_eval_examples(source, x, expected):
    assert parse(source).eval(x) == pytest.approx(expected, abs=1e-15)


def test_scientific_notation_and_constants():
    assert parse("1.5e2").eval(0.0) == 150.0
    assert parse("2E-3").eval(0.0) == 2e-3
    assert parse("e").eval(0.0) == math.e
    assert parse("pi").eval(123.0) == math.pi


def test_unary_minus_binds_tighter_than_mul():
    # -2*x is (-2)*x, and -x^2 is -(x^2)
    assert parse("-2*x").eval(3.0) == -6.0
    assert parse("-x^2").eval(3.0) == -9.0
    assert parse("2^-1").eval(0.0) == 0.5


def test_precedence_sum_of_product():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (round(rng.uniform(0, 5), 6) for _ in range(3))
        # the evaluation order must be a + (b * c) exactly
        assert parse(f"{a} + {b}*{c}").eval(0.0) == a + (b * c)


def test_syntax_error_offset_and_expectation():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(x")
    assert err.value.offset == 5
    assert "')'" in err.value.expected

    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4

    for source, offset, expected, found in [
        ("1.2.3", 0, "a numeric literal", "'1.2.3'"),
        ("x $ 1", 2, "a number, identifier or operator", "'$'"),
        ("1 2", 2, "end of input", "'2'"),
        ("2e", 1, "end of input", "'e'"),
    ]:
        with pytest.raises(ExprSyntaxError) as err:
            parse(source)
        assert (err.value.offset, err.value.expected, err.value.found) == (offset, expected, found)


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse("foo(x)")
    assert "known function" in err.value.expected
    with pytest.raises(ExprSyntaxError):
        parse("y + 1")


def test_empty_source_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_huge_literal_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1e999")


def test_domain_errors_carry_context():
    with pytest.raises(ExprDomainError) as err:
        parse("1/x").eval(0.0)
    assert err.value.x == 0.0
    assert "division" in str(err.value)

    with pytest.raises(ExprDomainError):
        parse("log(x)").eval(-1.0)
    with pytest.raises(ExprDomainError):
        parse("sqrt(x - 2)").eval(0.0)
    with pytest.raises(ExprDomainError):
        parse("(0 - 2)^0.5").eval(0.0)
    with pytest.raises(ExprDomainError):
        parse("exp(x)").eval(1e4)
    # RuntimeWarnings are errors under the test settings: tan(nan) warns of nothing
    with pytest.raises(ExprDomainError, match="non-finite tangent"):
        parse("tan(x)").eval(np.array([0.0, np.nan]))


def test_unknown_function_does_not_evaluate():
    # a tree built without the parser can name any function; only the table's evaluate
    with pytest.raises(KeyError):
        Call("foo", Var()).eval(-2.0)


@pytest.mark.parametrize("wrap", [
    lambda k: "(" * k + "x" + ")" * k,
    lambda k: "sin(" * k + "x" + ")" * k,
    lambda k: "-" * k + "x",
    lambda k: "1^" * k + "x",
    lambda k: "x" + "+x" * k,
    lambda k: "x" + "/x" * k,
    # chains of ten, each parenthesized as the first operand of the next
    lambda k: functools.reduce(lambda f, n: f"({f})" + "+x" * n,
                               [10] * (k // 10) + [k % 10], "x"),
])
def test_nesting_bound(wrap):
    tree = parse(wrap(MAX_DEPTH))
    assert math.isfinite(tree.eval(0.5))
    assert parse(unparse(tree)) == tree
    with pytest.raises(ExprSyntaxError) as err:
        parse(wrap(MAX_DEPTH + 1))
    assert f"at most {MAX_DEPTH} levels of nesting" in str(err.value)


def test_domain_error_on_arrays_reports_offender():
    xs = np.array([1.0, 2.0, -3.0])
    with pytest.raises(ExprDomainError) as err:
        parse("log(x)").eval(xs)
    assert err.value.x == -3.0


def test_array_eval_matches_scalar():
    expr = parse("sin(x)*x - cos(2*x)/(x + 4)")
    xs = np.linspace(0, math.pi, 17)
    vec = expr.eval(xs)
    scal = np.array([expr.eval(float(x)) for x in xs])
    assert np.array_equal(vec, scal)


# --- round-trip property ----------------------------------------------------

_SAFE_FUNCS = ("sin", "cos", "exp", "abs")


def _random_tree(rng, depth, total_only):
    """Random syntax tree; with total_only, restrict to operations that are
    defined for every real argument so evaluation never raises."""
    if depth <= 0 or rng.random() < 0.25:
        choice = rng.random()
        if choice < 0.5:
            return Num(round(rng.uniform(0.0, 3.0), 4))
        if choice < 0.8:
            return Var()
        return Const(rng.choice(("pi", "e")))
    kind = rng.random()
    if kind < 0.15:
        return Neg(_random_tree(rng, depth - 1, total_only))
    if kind < 0.45:
        func = rng.choice(_SAFE_FUNCS if total_only
                          else _SAFE_FUNCS + ("tan", "log", "sqrt"))
        return Call(func, _random_tree(rng, depth - 1, total_only))
    ops = "+-*" if total_only else "+-*/^"
    op = rng.choice(ops)
    return BinOp(op, _random_tree(rng, depth - 1, total_only),
                 _random_tree(rng, depth - 1, total_only))


def test_roundtrip_tree_identity():
    rng = random.Random(2024)
    for _ in range(300):
        tree = _random_tree(rng, depth=5, total_only=False)
        assert parse(unparse(tree)) == tree


def test_roundtrip_eval_agreement():
    rng = random.Random(99)
    for _ in range(100):
        tree = _random_tree(rng, depth=4, total_only=True)
        text = unparse(tree)
        reparsed = parse(text)
        xs = np.array([rng.uniform(-2.0, 2.0) for _ in range(100)])
        try:
            direct = tree.eval(xs)
        except ExprDomainError:
            continue  # exp overflow on a wild composite; nothing to compare
        again = reparsed.eval(xs)
        assert np.allclose(direct, again, rtol=1e-14, atol=0.0, equal_nan=False)


def test_parse_of_wellformed_source_roundtrips():
    for source in ("x^2 - 3*x + 1", "sin(x)*0.5 + pi", "-(x + 1)/(2 - x)",
                   "sqrt(abs(x)) + log(e)", "2^-x", "1 - -x"):
        tree = parse(source)
        assert parse(unparse(tree)) == tree
