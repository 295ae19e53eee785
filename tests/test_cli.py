import contextlib
import csv
import functools
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from delaybvp import asymptotics, dde_solver
from delaybvp.cli import load_config, main
from delaybvp.exprlang import BinOp, Call, Num, Var, unparse
from delaybvp.problem import HALF
from test_exprlang import _random_tree

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE_PROBLEM = {
    "q_left": "0", "q_right": "0",
    "retard_left": "0", "retard_right": "0",
    "alpha": "pi/2", "beta": "pi/2", "coupling": 1.0,
}


def write_config(tmp_path, name="cfg.json", problem=None, solver=None,
                 range_=None, output=None, extra=None):
    doc = {"problem": dict(BASE_PROBLEM, **(problem or {})),
           "range": range_ or {"n_min": 1, "n_max": 3}}
    if solver:
        doc["solver"] = solver
    if output:
        doc["output"] = output
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


FAST = {"steps_per_segment": 512, "refine_tol": 1e-9}


def test_solve_n_range(tmp_path):
    cfg = write_config(tmp_path, solver=FAST, range_={"n_min": 1, "n_max": 5})
    out = tmp_path / "table.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["n"] for r in rows] == ["1", "2", "3", "4", "5"]
    for r in rows:
        assert abs(float(r["s_n"]) - int(r["n"])) < 1e-7
        s = float(r["s_n"])
        assert float(r["lambda_n"]) == s * s
        assert r["simplicity_ok"] == "true"


def test_solve_s_range_scan(tmp_path):
    cfg = write_config(tmp_path, solver=FAST,
                       range_={"s_min": 0.5, "s_max": 3.5, "samples": 300})
    out = tmp_path / "scan.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert [round(float(r["s_n"])) for r in rows] == [1, 2, 3]


def test_s_range_without_roots_prints_the_header(tmp_path, capsys):
    # no root below s = 0.5: an empty table, its certificates an empty batch
    doc = json.loads((CONFIG_DIR / "delayed.json").read_text())
    doc["range"] = {"s_min": 0.3, "s_max": 0.5, "samples": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "n,s_n,lambda_n,F_residual,simplicity_ok\n"


def test_malformed_json_rejected(tmp_path, capsys):
    # bad JSON, bytes that are not UTF-8, nesting past the recursion limit and
    # an integer past Python's 4300-digit limit are each one config error
    path = tmp_path / "broken.json"
    for content in (b"{not json", b'{"problem": "\xff"}', b"[" * 100000 + b"]" * 100000,
                    b'{"range": {"n_min": ' + b"9" * 5000 + b"}}"):
        path.write_bytes(content)
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid JSON in {path}: ")
        assert err.count("\n") == 1


def test_missing_key_named(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": dict(BASE_PROBLEM),
                                "range": {"n_min": 1}}))
    assert main(["solve", "--config", str(path)]) == 1
    assert "range.n_max" in capsys.readouterr().err


def test_invalid_problem_rejected_with_report(tmp_path, capsys):
    cfg = write_config(tmp_path, problem={"retard_left": "2*x"})
    assert main(["solve", "--config", cfg]) == 1
    assert "delayed_argument_left" in capsys.readouterr().err


def test_charfn_closed_form_pattern(tmp_path):
    cfg = write_config(tmp_path,
                       range_={"s_min": 1.0, "s_max": 2.0, "samples": 3})
    out = tmp_path / "charfn.csv"
    assert main(["charfn", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    values = [float(r["F"]) for r in rows]
    assert abs(values[0]) < 1e-8
    assert values[1] == pytest.approx(1.5 ** (1.0 / 3.0), abs=1e-8)
    assert abs(values[2]) < 1e-8
    assert [float(r["lambda"]) for r in rows] == [1.0, 2.25, 4.0]


def test_charfn_requires_s_range(tmp_path, capsys):
    cfg = write_config(tmp_path, range_={"n_min": 1, "n_max": 9})
    assert main(["charfn", "--config", cfg]) == 1
    assert "s-range" in capsys.readouterr().err


def test_zero_samples_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       range_={"s_min": 1.0, "s_max": 2.0, "samples": 0})
    assert main(["charfn", "--config", cfg]) == 1
    assert "samples" in capsys.readouterr().err


def test_eigfn_table(tmp_path):
    cfg = write_config(tmp_path, solver=FAST, range_={"n_min": 1, "n_max": 9},
                       extra={"grid": {"x_samples": 101}})
    out = tmp_path / "eig.csv"
    assert main(["eigfn", "--config", cfg, "--n", "4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 100  # the interface sample is dropped
    for r in rows:
        x = float(r["x"])
        assert abs(x - PI / 2) > 1e-9
        if x < PI / 2:
            assert float(r["abs_err_leading"]) < 1e-7
    # amplitude drop across the interface ~ n^(-2/3)
    left_max = max(abs(float(r["u_computed"])) for r in rows if float(r["x"]) < PI / 2)
    right_max = max(abs(float(r["u_computed"])) for r in rows if float(r["x"]) > PI / 2)
    assert right_max / left_max == pytest.approx(4.0 ** (-2.0 / 3.0), rel=0.05)


def test_eigfn_tabulates_through_the_table(tmp_path, monkeypatch):
    # eigfn's columns are one eigenfunction_table row each: it shoots no
    # pair alone and calls no single-index prediction
    cfg = write_config(tmp_path, problem=DELAYED_PROBLEM, solver=FAST,
                       extra={"grid": {"x_samples": 33}})

    def refuse(*args, **kwargs):
        raise AssertionError("single-index path called")

    monkeypatch.setattr(dde_solver, "shoot", refuse)
    monkeypatch.setattr(asymptotics, "predict_eigenfunction", refuse)
    out = tmp_path / "eig.csv"
    assert main(["eigfn", "--config", cfg, "--n", "6", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 32
    for r in rows:
        assert float(r["abs_err_refined"]) == abs(float(r["u_computed"]) - float(r["u_refined"]))


def test_eigfn_needs_index(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eigfn", "--config", cfg]) == 1
    assert "--n" in capsys.readouterr().err


DELAYED_PROBLEM = {"q_left": "sin(x)", "q_right": "cos(x)",
                   "retard_left": "0.5*x*(pi/2 - x)",
                   "retard_right": "(x - pi/2)*(pi - x)*0.25"}


@pytest.mark.parametrize("exponent", [100, 141, 150, 153])
def test_overflowing_lambda_is_solver_error(tmp_path, capsys, exponent):
    # lambda = n^2 is finite but overflows the sweep's step coefficients;
    # numpy once warned of it before the solver error was raised
    cfg = write_config(tmp_path, problem=DELAYED_PROBLEM,
                       solver={"steps_per_segment": 256})
    assert main(["eigfn", "--config", cfg, "--n", str(10 ** exponent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: state became non-finite")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_eigfn_index_must_be_positive(tmp_path, capsys, n):
    cfg = write_config(tmp_path)
    assert main(["eigfn", "--config", cfg, "--n", n]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --n") and "Traceback" not in err


def test_verify_insufficient_range(tmp_path, capsys):
    cfg = write_config(tmp_path, range_={"n_min": 5, "n_max": 9})
    assert main(["verify", "--config", cfg]) == 1
    assert "at least 8" in capsys.readouterr().err


def test_verify_format_csv_flag_is_config_error(tmp_path, capsys):
    # the report is JSON only: the flag once went unheeded and JSON came out
    cfg = write_config(tmp_path, range_={"n_min": 5, "n_max": 13})
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", cfg, "--format", "csv", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: --format: verify writes JSON only\n"
    assert not out.exists()


def test_verify_null_passes(tmp_path, capsys):
    # default steps: rate verification needs full resolution so eigenvalue
    # noise stays under the measurement floor
    cfg = write_config(tmp_path, range_={"n_min": 5, "n_max": 13})
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["refined_s_fit"]["floor_limited"] is True
    assert len(report["residual_table"]) == 9
    assert "PASS" in capsys.readouterr().err


def test_verify_integrates_kl_in_two_calls(tmp_path, monkeypatch):
    # the estimates and the rate report each take K/L for every index at once
    doc = json.loads((CONFIG_DIR / "delayed.json").read_text())
    doc["solver"]["steps_per_segment"] = 512
    doc["range"] = {"n_min": 5, "n_max": 12}
    cfg = tmp_path / "delayed.json"
    cfg.write_text(json.dumps(doc))
    calls = []
    original = asymptotics.kl_integrals

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(asymptotics, "kl_integrals", counting)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 0
    assert 1 <= len(calls) <= 2


def test_validate_reports_and_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, "good.json")
    assert main(["validate", "--config", good]) == 0
    bad = write_config(tmp_path, "bad.json", problem={"retard_left": "2*x"})
    assert main(["validate", "--config", bad]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_validate_json_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "validate.json"
    assert main(["validate", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] is True and doc["case1"] is True


def test_json_output_format(tmp_path):
    cfg = write_config(tmp_path, solver=FAST, range_={"n_min": 2, "n_max": 2},
                       output={"format": "json"})
    out = tmp_path / "rows.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["n"] == 2
    assert abs(rows[0]["s_n"] - 2.0) < 1e-7


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, solver=FAST, range_={"n_min": 1, "n_max": 4})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_refine_tol_below_one_ulp_terminates(tmp_path, alarm):
    # no bracket can shrink below one ulp of s; refinement stops there
    cfg = write_config(tmp_path, solver={"steps_per_segment": 256, "refine_tol": 1e-17})
    out = tmp_path / "table.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    for r in rows:
        assert abs(float(r["s_n"]) - int(r["n"])) < 1e-6
        assert abs(float(r["F_residual"])) < 1e-12


@pytest.mark.parametrize("key, value", [("refine_tol", math.nan),
                                        ("refine_tol", math.inf),
                                        ("refine_tol", -math.inf),
                                        ("steps_per_segment", math.inf),
                                        # integer keys: no bools, no fractions,
                                        # no values the solver cannot use
                                        ("steps_per_segment", 1),
                                        ("steps_per_segment", True),
                                        ("steps_per_segment", 256.9),
                                        # upper bound, checked before any
                                        # table is allocated
                                        ("steps_per_segment", 65537),
                                        # float keys: no bools either
                                        ("refine_tol", True),
                                        ("range.s_min", True),
                                        ("range.s_max", True),
                                        # lambda = s_min^2 underflows to 0
                                        ("range.s_min", 1e-200)])
def test_non_finite_solver_setting_rejected(tmp_path, capsys, key, value):
    if key.startswith("range."):
        range_ = {"s_min": 0.5, "s_max": 3.5, "samples": 300}
        range_[key.split(".")[1]] = value
        cfg = write_config(tmp_path, range_=range_)
    else:
        cfg = write_config(tmp_path, solver={key: value})
        key = f"solver.{key}"
    assert main(["solve", "--config", cfg]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["charfn", "solve", "validate"])
@pytest.mark.parametrize("field, value", [("alpha", math.inf), ("alpha", math.nan),
                                          ("beta", math.nan), ("coupling", math.inf),
                                          ("coupling", "1e308*10"),
                                          # sin of the overflow is nan, of which numpy warns
                                          ("alpha", "sin(1e308*10)")])
def test_non_finite_problem_constant_rejected(tmp_path, command, field, value):
    # a JSON NaN or Infinity, or an expression that overflows to inf, is one
    # named config error whichever command reads the config
    cfg = write_config(tmp_path, problem=dict(DELAYED_PROBLEM, **{field: value}),
                       solver=SCAN[0], range_=SCAN[1])
    assert run_main([command, "--config", cfg]) == (
        1, "", f"config error: problem: {field} must be a finite number\n")


@pytest.mark.parametrize("key, value", [("solver.refine_tl", 1e-3),
                                        ("ouput", {"format": "json"}),
                                        ("problem.q_lft", "0"),
                                        ("range.n_mx", 5),
                                        ("output.fromat", "json"),
                                        ("grid.x_sample", 11),
                                        # the K/L grid follows steps_per_segment
                                        ("solver.quadrature_points", 4097),
                                        ("solver.quadrature_points", 1),
                                        ("solver.quadrature_points", 2),
                                        ("solver.quadrature_points", True),
                                        ("solver.quadrature_points", 1048578)])
def test_unknown_config_key_rejected(tmp_path, capsys, key, value):
    section, _, name = key.rpartition(".")
    doc = {"problem": dict(BASE_PROBLEM), "range": {"n_min": 1, "n_max": 3}}
    (doc.setdefault(section, {}) if section else doc)[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {key}: unknown key\n"


def problem_with(**fields):
    return {"problem": dict(BASE_PROBLEM, **fields)}


@pytest.mark.parametrize("doc, prefix", [
    (None, "cannot read config:"),
    ([1, 2], "top level:"),
    ({"solver": [4096]}, "solver:"),
    (problem_with(alpha="pi/"), "problem.alpha:"),
    (problem_with(alpha=[1.0]), "problem.alpha:"),
    (problem_with(q_left=0), "problem.q_left:"),
    ({"solver": {"refine_tol": "tight"}}, "solver.refine_tol:"),
    ({"solver": {"refine_tol": 0}}, "solver.refine_tol:"),
    ({"solver": {"refine_tol": -1e-9}}, "solver.refine_tol:"),
    ({"range": {"n_min": 1, "n_max": 3, "s_min": 1.0, "s_max": 2.0, "samples": 3}}, "range:"),
    ({"range": {"n_min": 4, "n_max": 3}}, "range.n_max:"),
    ({"range": {"s_min": 2.0, "s_max": 2.0, "samples": 3}}, "range.s_max:"),
    ({"range": {}}, "range:"),
    ({"output": {"format": "xml"}}, "output.format:"),
    # a whole float is an index
    ({"range": {"n_min": 5.0, "n_max": 9}}, None),
    # a constant field that uses x would be read at x = 0
    (problem_with(beta="pi/2 + x"), "problem.beta:"),
    (problem_with(coupling="1 + sin(x)"), "problem.coupling:"),
    # a formula's syntax error names its key, nesting too deep included
    (problem_with(q_left="1.2.3"), "problem.q_left:"),
    (problem_with(retard_right="sin(x"), "problem.retard_right:"),
    (problem_with(q_left="(" * 400 + "x" + ")" * 400), "problem.q_left:"),
    (problem_with(q_right="x" + "+x" * 3000), "problem.q_right:"),
    # chains of at most 100 operators, each the first operand of the next:
    # a tree about 1045 levels high from shallow parentheses
    (problem_with(q_left=functools.reduce(lambda f, p: f"({f})" + "+x" * (100 - p),
                                          range(9, -1, -1), "x" + "+x" * 90)),
     "problem.q_left:"),
])
def test_config_errors_name_their_key(tmp_path, capsys, doc, prefix):
    path = tmp_path / "cfg.json"
    if doc is not None:
        base = {"problem": dict(BASE_PROBLEM), "range": {"n_min": 1, "n_max": 3}}
        path.write_text(json.dumps(dict(base, **doc) if isinstance(doc, dict) else doc))
    if prefix is None:
        n_range = load_config(str(path)).n_range
        assert n_range == (5, 9) and type(n_range[0]) is int
        return
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: {prefix}")
    assert "Traceback" not in err


S_RANGE = {"s_min": 0.5, "s_max": 3.5, "samples": 300}


@pytest.mark.parametrize("command, key, range_, grid, n", [
    # grids too large to allocate
    ("charfn", "range.samples", dict(S_RANGE, samples=10 ** 11), None, None),
    ("eigfn", "grid.x_samples", None, {"x_samples": 10 ** 11}, 1),
    # an n-range too long to localize
    ("solve", "range.n_max", {"n_min": 5, "n_max": 10 ** 9}, None, None),
    # an s whose lambda = s^2 overflows
    ("charfn", "range.s_max", dict(S_RANGE, s_max=1e200), None, None),
    ("solve", "range.s_max", dict(S_RANGE, s_max=1e200), None, None),
    ("solve", "range.n_max", {"n_min": 10 ** 160, "n_max": 10 ** 160}, None, None),
    ("eigfn", "--n", None, None, 10 ** 160),
])
def test_oversized_input_is_config_error(tmp_path, capsys, command, key, range_, grid, n):
    # each of these once ended in a MemoryError or a ValueError traceback
    cfg = write_config(tmp_path, range_=range_, extra={"grid": grid} if grid else None)
    argv = [command, "--config", cfg] + ([] if n is None else ["--n", str(n)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and "Traceback" not in err


def test_eigenvalue_below_the_certificate_step_is_certified(tmp_path):
    # the root near s = 0.0203 has lambda ~ 4.1e-4, below the default
    # lambda step 1e-3 of the simplicity certificate
    cfg = write_config(tmp_path, problem={"beta": 1.5695},
                       solver={"steps_per_segment": 512},
                       range_={"s_min": 0.01, "s_max": 0.05, "samples": 11})
    out = tmp_path / "table.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 and abs(float(rows[0]["s_n"]) - 0.0203) < 1e-4
    assert rows[0]["simplicity_ok"] == "true"


@pytest.mark.parametrize("key, expr", [("q_left", "log(x)"),
                                       ("q_left", "1/x"),
                                       ("q_left", "exp(1000*x)"),
                                       ("q_right", "sqrt(2 - x)")])
def test_expression_leaving_its_domain_is_config_error(tmp_path, capsys, key, expr):
    # these parse, but fail when evaluated on [0, pi]
    cfg = write_config(tmp_path, problem={key: expr},
                       solver={"steps_per_segment": 64})
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: problem: ") and "Traceback" not in err


@pytest.mark.parametrize("key, expr", [("q_left", "log(x)"),
                                       ("q_left", "1/x"),
                                       ("q_left", "exp(1000*x)"),
                                       ("q_right", "sqrt(2 - x)"),
                                       ("q_left", "1e200*exp(1000*(0.5 - x))")])
def test_validate_reports_expression_leaving_its_domain(tmp_path, capsys, key, expr):
    cfg = write_config(tmp_path, problem={key: expr},
                       solver={"steps_per_segment": 64})
    assert main(["validate", "--config", cfg]) == 1
    side = key.split("_")[1]
    captured = capsys.readouterr()
    assert f"[FAIL] domain_{side}: {key}: " in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize("delay, check", [("-1e-10", "delay_nonnegative_left"),
                                          ("x + 1e-10", "delayed_argument_left")])
def test_delay_violation_is_config_error(tmp_path, capsys, command, delay, check):
    cfg = write_config(tmp_path, problem={"retard_left": delay},
                       solver={"steps_per_segment": 64})
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] {check}: " in captured.out + captured.err
    if command == "solve":
        assert captured.err.startswith(f"config error: problem: fails {check}")


def test_delay_violation_seen_only_by_the_coarse_screen_is_no_error(tmp_path, capsys):
    # x - Delta(x) < 0 only within 1e-6 of one node of the 265-step screening
    # grid of n <= 50, which no grid that validate samples at 512 steps meets
    cfg = write_config(tmp_path, problem={
        "retard_left": "x*(1 + 1e-9 - 1e-3*abs(x - 0.04149273316061991))"},
        solver={"steps_per_segment": 512}, range_={"n_min": 49, "n_max": 50})
    out = tmp_path / "table.csv"
    assert main(["validate", "--config", cfg]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert [r["n"] for r in read_csv(out)] == ["49", "50"]
    assert capsys.readouterr().err == ""


def test_output_path_must_be_a_string(tmp_path, capsys):
    cfg = write_config(tmp_path, output={"path": 5})
    assert main(["validate", "--config", cfg]) == 1
    assert "output.path" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["config", "flag"])
def test_unwritable_output_path_named(tmp_path, capsys, via):
    target = str(tmp_path / "missing" / "out.csv")
    if via == "config":
        cfg = write_config(tmp_path, output={"path": target})
        argv = ["validate", "--config", cfg]
    else:
        argv = ["validate", "--config", write_config(tmp_path), "--out", target]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and target in err


@pytest.mark.parametrize("command, coupling", [("solve", 5e-324), ("verify", 2.5e-308),
                                               ("eigfn", 2.5e-308)])
def test_tiny_coupling_is_solver_error(tmp_path, capsys, command, coupling):
    # lambda^(-1/3) / coupling overflows at the interface, or y'' = -lambda y
    # past it; numpy once warned of it first, a traceback under warnings as errors
    cfg = write_config(tmp_path, problem={"coupling": coupling},
                       solver={"steps_per_segment": 256}, range_={"n_min": 1, "n_max": 8})
    argv = [command, "--config", cfg] + (["--n", "5"] if command == "eigfn" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("solver error: state became non-finite")


@pytest.mark.parametrize("command", ["eigfn", "verify"])
def test_failed_refined_conditions_are_config_errors(tmp_path, capsys, command):
    # the delay passes validate, but its slope exceeds 1 near x = 0.2, so the
    # refined forms that eigfn and verify tabulate do not apply: a property
    # of the config, named before any localization
    cfg = write_config(tmp_path, problem={"q_left": "1", "retard_left": "x*(1 - cos(8*x))/2"},
                       solver={"steps_per_segment": 256}, range_={"n_min": 2, "n_max": 9})
    assert main(["validate", "--config", cfg]) == 0
    capsys.readouterr()
    argv = [command, "--config", cfg] + (["--n", "3"] if command == "eigfn" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == ("config error: problem: fails delay_slope_left, "
                                       "needed by the refined asymptotics\n")


def test_solve_without_case1_angles_is_config_error(tmp_path, capsys):
    # localizing an n-range needs sin(alpha) != 0 and sin(beta) != 0: a
    # property of the config, as for eigfn and verify, not a solver failure
    cfg = write_config(tmp_path, problem={"alpha": 0}, solver={"steps_per_segment": 256})
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: problem: localization near n")


@pytest.mark.parametrize("argv, message", [
    (["eigfn", "--config", "CFG", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
    (["solve"], "the following arguments are required: --config"),
    (["verify", "--config", "CFG", "--format", "xml"], "argument --format: invalid choice"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_is_config_error(tmp_path, capsys, argv, message):
    # argparse exits 2 on its own, the code of a solver failure
    cfg = write_config(tmp_path)
    assert main([cfg if a == "CFG" else a for a in argv]) == 1
    usage, named = capsys.readouterr().err.splitlines()[-2:]
    assert usage.startswith("usage: delaybvp") or usage.startswith(" ")
    assert named.startswith(f"config error: {message}")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


# --- the exit-code contract ---------------------------------------------------

COMMANDS = ("solve", "charfn", "eigfn", "verify", "validate")
COLUMNS = {
    "solve": ["n", "s_n", "lambda_n", "F_residual", "simplicity_ok"],
    "charfn": ["s", "lambda", "F"],
    "eigfn": ["x", "u_computed", "u_leading", "u_refined",
              "abs_err_leading", "abs_err_refined"],
}
NAMED_ERRORS = ("config error: ", "solver error: ")


@st.composite
def random_runs(draw):
    """A command with a random config: formulas for q, admissible delays
    (x - a) |sin(tree)|, random angles and coupling, 64 to 1024 steps and
    mostly the kind of range the command needs; with an index for eigfn
    and an output format."""
    command = draw(st.sampled_from(COMMANDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    total_only = draw(st.booleans())
    q_l, q_r, d_l, d_r = (_random_tree(rng, depth=3, total_only=total_only) for _ in range(4))
    d_l, d_r = (BinOp("*", BinOp("-", Var(), Num(a)), Call("abs", Call("sin", t)))
                for a, t in ((0.0, d_l), (HALF, d_r)))
    problem = {"q_left": unparse(q_l), "q_right": unparse(q_r),
               "retard_left": unparse(d_l), "retard_right": unparse(d_r),
               "alpha": draw(st.floats(0.0, PI)), "beta": draw(st.floats(0.0, PI)),
               "coupling": draw(st.floats(-3.0, 3.0))}
    s_range = draw(st.booleans()) if command in ("solve", "validate") else (
        draw(st.integers(0, 9)) > 0 if command == "charfn" else draw(st.integers(0, 9)) == 0)
    if s_range:
        s_min = draw(st.floats(0.05, 10.0))
        range_ = {"s_min": s_min, "s_max": s_min + draw(st.floats(0.1, 8.0)),
                  "samples": draw(st.integers(2, 160))}
    else:
        n_min = draw(st.integers(1, 16))
        range_ = {"n_min": n_min,
                  "n_max": n_min + draw(st.integers(7 if command == "verify" else 0, 11))}
    doc = {"problem": problem, "range": range_,
           "solver": {"steps_per_segment": draw(st.integers(64, 1024)),
                      "refine_tol": draw(st.sampled_from([1e-12, 1e-10, 1e-6]))},
           "grid": {"x_samples": draw(st.integers(1, 201))}}
    formats = [None, "json"] if command == "verify" else [None, "csv", "json"]
    return command, doc, draw(st.integers(1, 20)), draw(st.sampled_from(formats))


def config_of(problem=None, solver=None, range_=None):
    return {"problem": dict(BASE_PROBLEM, **(problem or {})),
            "range": range_ or {"n_min": 1, "n_max": 3}, "solver": solver or {}}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_calls_in_one_process_repeat_fresh_runs(tmp_path):
    # main builds its parser once per process: calls with other subcommands,
    # a usage error and an eigfn without --n after one with it each give
    # what a fresh process gives
    cfg = write_config(tmp_path, solver=FAST, range_={"n_min": 1, "n_max": 3})
    runs = [["eigfn", "--config", cfg, "--n", "2"], ["solve", "--config", cfg],
            ["solve"], ["eigfn", "--config", cfg], ["validate", "--config", cfg, "--format", "json"]]
    for argv in runs:
        fresh = subprocess.run([sys.executable, "-m", "delaybvp.cli", *argv],
                               capture_output=True, text=True, check=False)
        assert run_main(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def check_output(command, fmt, code, out):
    """The primary output of an exit 0 (or of a verify exit 3) parses."""
    if command == "verify":
        assert json.loads(out)["passed"] is (code == 0)
    elif command == "validate":
        if fmt == "json":
            assert json.loads(out)["valid"] is True
        else:
            assert out.splitlines()[-1].startswith("valid: True; ")
    elif fmt == "json":
        rows = json.loads(out)
        assert all(list(row) == COLUMNS[command] for row in rows)
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert header == COLUMNS[command]
        for row in rows:
            assert len(row) == len(header)
            for value in row:
                assert value in ("true", "false") or math.isfinite(float(value))


# the configs of the faults CHANGES.md records as mended
DELAYED_CONFIG = config_of(DELAYED_PROBLEM, {"steps_per_segment": 512}, {"n_min": 5, "n_max": 12})
# the solver settings and range of a short scan, for problem constants that
# are not finite: json.dumps writes NaN and Infinity, and json.load reads them
SCAN = ({"steps_per_segment": 128}, {"s_min": 1, "s_max": 5, "samples": 5})


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=random_runs())
@example(run=("solve", config_of(solver={"steps_per_segment": 1}), None, None))
@example(run=("solve", config_of(solver={"steps_per_segment": 256, "refine_tol": True}),
              None, None))
@example(run=("validate", config_of({"q_left": "log(x)"}), None, None))
@example(run=("solve", config_of({"q_left": "exp(1000*x)"}), None, None))
@example(run=("solve", config_of(
    {"retard_left": "x*(1 + 1e-9 - 1e-3*abs(x - 0.04149273316061991))"},
    {"steps_per_segment": 512}, {"n_min": 49, "n_max": 50}), None, None))
@example(run=("validate", config_of({"q_left": "1e200*exp(1000*(0.5 - x))"},
                                    {"steps_per_segment": 256}), None, None))
@example(run=("verify", DELAYED_CONFIG, None, None))
@example(run=("eigfn", dict(DELAYED_CONFIG, solver={"steps_per_segment": 256}), 10**141, None))
@example(run=("charfn", config_of(dict(DELAYED_PROBLEM, beta=math.nan), *SCAN), None, None))
@example(run=("charfn", config_of(dict(DELAYED_PROBLEM, coupling=math.inf), *SCAN), None, None))
@example(run=("charfn", config_of(dict(DELAYED_PROBLEM, coupling="1e308*10"), *SCAN),
              None, None))
@example(run=("charfn", config_of(dict(DELAYED_PROBLEM, alpha=math.inf), *SCAN), None, None))
@example(run=("validate", config_of({"alpha": math.nan}), None, None))
@example(run=("solve", config_of(range_={"s_min": 1e-200, "s_max": 1.0, "samples": 3}),
              None, None))
def test_exit_code_contract(tmp_path_factory, alarm, run):
    """Every config ends in exit 0, 1, 2 or 3: 1 and 2 with one named error
    line, 0 with output that parses, and a rerun repeats it byte for byte."""
    command, doc, n, fmt = run
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path)] + (["--format", fmt] if fmt else [])
    if command == "eigfn":
        argv += ["--n", str(n)]
    code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3)
    named = [line for line in err.splitlines() if line.startswith(NAMED_ERRORS)]
    if command == "validate" and code == 1 and not err:
        assert "[FAIL]" in out or '"valid": false' in out
    elif code in (1, 2):
        assert len(named) == 1 and err.startswith(named[0])
        assert named[0].startswith(NAMED_ERRORS[code - 1])
    else:
        assert not named
        check_output(command, fmt or "csv", code, out)
    assert run_main(argv) == (code, out, err)
