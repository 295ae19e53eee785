"""The frozen value base: the package's value classes keep the contract of
``@dataclass(frozen=True)``, and importing the package loads no
``dataclasses``."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import delaybvp
from delaybvp import dde_solver, spectral
from delaybvp._frozen import Frozen
from delaybvp.cli import RunConfig, SolverSettings
from delaybvp.dde_solver import SolutionSegment
from delaybvp.exprlang import BinOp, Call, Const, Neg, Num, Var
from delaybvp.picard import PicardSegment

# the six node classes and their fields, in order
NODE_FIELDS = {Num: ("value",), Var: (), Const: ("name",), Neg: ("operand",),
               BinOp: ("op", "left", "right"), Call: ("func", "arg")}
# each node class as a frozen dataclass of the same name and fields
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
         for cls, fields in NODE_FIELDS.items()}

# few distinct leaves, so that independently drawn trees are often equal
leaves = st.one_of(st.builds(Num, st.sampled_from([0.0, -0.0, 1.0, 2.5])),
                   st.builds(Var), st.builds(Const, st.sampled_from(["pi", "e"])))
trees = st.recursive(leaves, lambda kids: st.one_of(
    st.builds(Neg, kids),
    st.builds(BinOp, st.sampled_from("+*"), kids, kids),
    st.builds(Call, st.sampled_from(["sin", "exp"]), kids)), max_leaves=4)


def twin(node):
    """The tree rebuilt from the dataclass twins."""
    if type(node) not in TWINS:
        return node
    return TWINS[type(node)](*(twin(getattr(node, f)) for f in NODE_FIELDS[type(node)]))


def rebuilt(node):
    """An equal tree of fresh nodes, built by keyword."""
    if type(node) not in NODE_FIELDS:
        return node
    return type(node)(**{f: rebuilt(getattr(node, f)) for f in NODE_FIELDS[type(node)]})


@given(trees, trees)
def test_equality_and_hash_follow_the_dataclass(a, b):
    assert (a == b) is (twin(a) == twin(b))
    assert (a != b) is (twin(a) != twin(b))
    if a == b:
        assert hash(a) == hash(b)
    copy = rebuilt(a)
    assert copy == a and copy is not a and hash(copy) == hash(a)
    assert pickle.loads(pickle.dumps(a)) == a


@given(trees)
def test_repr_is_the_dataclass_text(tree):
    assert repr(tree) == repr(twin(tree))


class Value(Frozen):
    value: float


class Empty(Frozen):
    pass


@given(st.one_of(st.floats(allow_nan=False), st.text(max_size=3), leaves))
def test_classes_of_one_arity_never_compare_equal(value):
    # Value has Num's field name, Empty Var's empty field list
    groups = ([Num(value), Const(value), Neg(value), Value(value), TWINS[Num](value)],
              [Call(value, value), TWINS[Call](value, value)], [Var(), Empty(), TWINS[Var]()])
    for group in groups:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert a != b and not a == b
    assert Var() == Var() and Value(value) == Value(value)


@given(trees)
def test_assignment_and_deletion_raise(tree):
    for name in (*NODE_FIELDS[type(tree)], "other"):
        with pytest.raises(AttributeError):
            setattr(tree, name, Num(0.0))
        with pytest.raises(AttributeError):
            delattr(tree, name)
    assert tree == rebuilt(tree)


def test_solver_settings_defaults_and_keywords():
    default = SolverSettings()
    assert (default.steps_per_segment, default.refine_tol) == (dde_solver.DEFAULT_STEPS,
                                                               spectral.DEFAULT_REFINE_TOL)
    assert SolverSettings(refine_tol=1e-6) == SolverSettings(dde_solver.DEFAULT_STEPS, 1e-6)
    assert SolverSettings(512) == SolverSettings(steps_per_segment=512)
    assert repr(SolverSettings(512, 1e-6)) == "SolverSettings(steps_per_segment=512, refine_tol=1e-06)"
    for args, kwargs in [((1, 2, 3), {}), ((1,), {"steps_per_segment": 2}), ((), {"steps": 2})]:
        with pytest.raises(TypeError):
            SolverSettings(*args, **kwargs)
    with pytest.raises(TypeError):
        RunConfig(None, SolverSettings())  # five fields without a default missing


def test_picard_segment_fields_follow_the_solution_segment():
    nodes = np.linspace(0.0, 1.0, 3)
    base = (0.0, 1.0, 4.0, nodes, nodes, nodes, nodes)
    segment = PicardSegment(*base, 7, 1e-11)
    assert repr(segment).startswith("PicardSegment(a=0.0, b=1.0, lam=4.0, nodes=array(")
    assert repr(segment).endswith(", iterations=7, residual=1e-11)")
    assert (segment.iterations, segment.residual) == (7, 1e-11)
    assert (PicardSegment(*base).iterations, PicardSegment(*base).residual) == (0, 0.0)
    # equality holds within one class only
    assert segment != SolutionSegment(*base)
    assert math.isclose(segment.eval(0.5), 0.5)


def test_import_leaves_dataclasses_unloaded():
    code = ("import sys, numpy, json, argparse\n"
            "before = set(sys.modules)\n"
            "import delaybvp.cli, delaybvp.picard\n"
            "print(sorted(set(sys.modules) - before))\n"
            "sys.exit('dataclasses' in set(sys.modules) - before)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delaybvp.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
