"""Arithmetic expression language for coefficient functions.

Problem configurations describe the potential q(x) and the retardation
Delta(x) as plain text formulas in the single variable ``x``.  This module
parses those formulas into immutable syntax trees and evaluates them on
scalars or numpy arrays.

Grammar (standard precedence, ``^`` tightest and right-associative, unary
minus tighter than ``*``/``/``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

Supported functions: sin cos tan exp log sqrt abs, one ``_FUNCTIONS``
table that the parser's name check and ``Call.eval`` both read.  Each entry
holds the numpy function, the test on its argument that leaves the real
domain (log and sqrt) and the reason an error gives; tan and exp, which have
no argument test, fail when their result is not finite.  There are no
user-defined functions and no conditionals; piecewise coefficients are
expressed at the configuration level with one formula per subinterval.
Trees are immutable after parsing and safe to share across threads.

The scanner is one regular expression whose alternatives are whitespace,
an operator, a number, an identifier and any other character, which is an
error.  ``parse`` rejects a formula nested more than ``MAX_DEPTH`` levels
deep, in either of two counts: its tree's height (each minus sign, function
call and operator stands one level above its highest operand, so a chain
``x + x + x`` is two levels) and the nesting of its parentheses, function
arguments, minus signs and exponents in the text.  The first bounds
evaluating, hashing and unparsing a tree, the second the parser's own
recursion; neither exhausts the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Const",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse",
    "unparse",
]

_CONSTANTS = {"pi": math.pi, "e": math.e}
MAX_DEPTH = 100


class ExprError(Exception):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Raised when the source text cannot be parsed.

    Carries the byte offset of the failure and a description of what was
    expected there.
    """

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


class ExprDomainError(ExprError):
    """Raised when evaluation leaves the real domain (log/sqrt of a negative
    number, division by zero) or produces a non-finite value."""

    def __init__(self, subexpr: "Expr", x, reason: str):
        self.subexpr = subexpr
        self.x = x
        self.reason = reason
        super().__init__(f"{reason} in '{unparse(subexpr)}' at x = {x!r}")


# --- syntax tree ----------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float

    def eval(self, x):
        return self.value if np.isscalar(x) else np.full_like(x, self.value, dtype=float)


@dataclass(frozen=True)
class Var:
    def eval(self, x):
        return x


@dataclass(frozen=True)
class Const:
    name: str

    def eval(self, x):
        v = _CONSTANTS[self.name]
        return v if np.isscalar(x) else np.full_like(x, v, dtype=float)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"

    def eval(self, x):
        return -self.operand.eval(x)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"

    def eval(self, x):
        a = self.left.eval(x)
        b = self.right.eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(b == 0):
                raise ExprDomainError(self, _offending(x, b == 0), "division by zero")
            return a / b
        # '^': np.power keeps negative-base fractional exponents real (nan),
        # which the finiteness check below turns into a reported error
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.power(a, b)
        if np.any(~np.isfinite(out)):
            raise ExprDomainError(self, _offending(x, ~np.isfinite(out)), "non-finite power")
        return out


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"

    def eval(self, x):
        func, outside, reason = _FUNCTIONS[self.func]
        v = self.arg.eval(x)
        if outside is not None and np.any(outside(v)):
            raise ExprDomainError(self, _offending(x, outside(v)), reason)
        with np.errstate(over="ignore"):
            out = func(v)
        if outside is None and reason is not None and np.any(~np.isfinite(out)):
            raise ExprDomainError(self, _offending(x, ~np.isfinite(out)), reason)
        return out


# name -> (numpy function, test for an argument outside its domain or None,
#          error reason or None)
_FUNCTIONS = {
    "sin": (np.sin, None, None),
    "cos": (np.cos, None, None),
    "tan": (np.tan, None, "non-finite tangent"),
    "exp": (np.exp, None, "overflow in exp"),
    "log": (np.log, lambda v: v <= 0, "log of a non-positive value"),
    "sqrt": (np.sqrt, lambda v: v < 0, "sqrt of a negative value"),
    "abs": (np.abs, None, None),
}


Expr = Union[Num, Var, Const, Neg, BinOp, Call]


def _offending(x, mask):
    """First x that triggered a domain error (x itself when scalar)."""
    if np.isscalar(x):
        return x
    mask = np.broadcast_to(mask, np.shape(x))
    idx = np.argmax(mask)
    return float(np.asarray(x).ravel()[idx])


# --- tokenizer ------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<op>[-+*/^()])
  | (?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(source: str):
    """List of (kind, text, offset) triples; kinds: num, ident, op, end.
    Every character matches one alternative of ``_TOKEN``, so its matches
    cover the source end to end."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, text, off = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExprSyntaxError(off, "a number, identifier or operator", repr(text))
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(off, "a numeric literal", repr(text)) from None
        if kind != "space":
            tokens.append((kind, text, off))
    tokens.append(("end", "", len(source)))
    return tokens


# --- recursive-descent parser ---------------------------------------------


class _Parser:
    """Each parse_* method returns (tree, height): a leaf has height 0 and
    every Neg, BinOp and Call stands one level above its highest child."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # parse_unary calls open around the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(off, f"'{op}'", repr(text) if text else "end of input")

    def _level(self, off: int, level: int) -> int:
        """level, or a syntax error at off when it passes MAX_DEPTH."""
        if level > MAX_DEPTH:
            raise ExprSyntaxError(off, f"at most {MAX_DEPTH} levels of nesting", "more")
        return level

    def _binary(self, ops: str, operand):
        """A left-associative chain of operand() joined by ops."""
        node, height = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            _, op, off = self.advance()
            right, right_height = operand()
            node, height = BinOp(op, node, right), self._level(off, 1 + max(height, right_height))
        return node, height

    def parse_expr(self):
        return self._binary("+-", self.parse_term)

    def parse_term(self):
        return self._binary("*/", self.parse_unary)

    def parse_unary(self):
        # every recursion of the parser passes here; bounding it bounds the stack
        kind, text, off = self.peek()
        self.depth = self._level(off, self.depth) + 1
        if kind == "op" and text == "-":
            self.advance()
            node, height = self.parse_unary()
            node, height = Neg(node), self._level(off, height + 1)
        else:
            node, height = self.parse_power()
        self.depth -= 1
        return node, height

    def parse_power(self):
        base, height = self.parse_atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; the exponent may carry a unary minus
            exponent, exp_height = self.parse_unary()
            return BinOp("^", base, exponent), self._level(off, 1 + max(height, exp_height))
        return base, height

    def parse_atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(off, "a finite numeric literal", repr(text))
            return Num(value), 0
        if kind == "ident":
            if text == "x":
                return Var(), 0
            if text in _CONSTANTS:
                return Const(text), 0
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg, height = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg), self._level(off, height + 1)
            raise ExprSyntaxError(off, "'x', 'pi', 'e' or a known function", repr(text))
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        found = repr(text) if text else "end of input"
        raise ExprSyntaxError(off, "a number, name or '('", found)


def parse(source: str) -> Expr:
    """Parse an expression string into an immutable syntax tree."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError(0, "a non-empty expression", repr(source))
    p = _Parser(source)
    node, _ = p.parse_expr()
    kind, text, off = p.peek()
    if kind != "end":
        raise ExprSyntaxError(off, "end of input", repr(text))
    return node


# --- unparser --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 5


def unparse(node: Expr) -> str:
    """Render a tree back to source text that reparses to an identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        inner = unparse(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    # BinOp: parenthesize children whose precedence is too loose; for the
    # non-associative/right-associative sides a tie also needs parentheses
    op = node.op
    lp, rp = _prec(node.left), _prec(node.right)
    left = unparse(node.left)
    right = unparse(node.right)
    if op == "^":
        # right-associative: 'a ^ b ^ c' means a ^ (b ^ c)
        if lp <= _PREC["^"]:
            left = f"({left})"
        if rp < _PREC["^"]:
            right = f"({right})"
    else:
        # left-associative: a same-precedence right child would reassociate
        if lp < _PREC[op]:
            left = f"({left})"
        if rp <= _PREC[op]:
            right = f"({right})"
        # unary minus on the right of '-'/'+' would glue into '--'; keep it wrapped
        if isinstance(node.right, Neg) and op in ("+", "-"):
            right = f"({right})"
    return f"{left} {op} {right}"
