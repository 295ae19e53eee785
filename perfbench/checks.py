"""Answer checks against the reference captured by ``capture_reference.py``.

An operation passes when it exits 0 and:

- ``solve``: the indices match, every s_n is within ``refine_tol`` of the
  reference and every ``simplicity_ok`` is true;
- ``verify``: ``passed`` is true, every s_n is within ``refine_tol``, and the
  criterion 6 and 7 slope fits are within ``SLOPE_TOL`` of the reference;
- ``eigfn``: the localized root is within ``refine_tol`` and every
  ``abs_err_refined`` sample within ``EIGFN_ATOL`` of the reference.
"""

from __future__ import annotations

import csv
import json

# criterion 6 (refined eigenvalue rate) and criterion 7 (eigenfunction rates)
SLOPE_FITS = ("refined_s_fit", "leading_eigfn_fit", "refined_eigfn_fit")
SLOPE_TOL = 0.02
# well above the ~1e-10 a root moved within refine_tol causes, well below
# the 1e-7..1e-3 errors being tabulated
EIGFN_ATOL = 1e-8


def read_solve(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {"n": [int(r["n"]) for r in rows],
            "s_n": [float(r["s_n"]) for r in rows],
            "simplicity_ok": [r["simplicity_ok"] == "true" for r in rows]}


def read_verify(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"passed": doc["passed"],
            "n": [r["n"] for r in doc["residual_table"]],
            "s_n": [r["s_n"] for r in doc["residual_table"]],
            "slopes": {k: doc[k]["slope"] for k in SLOPE_FITS}}


def read_eigfn(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {"abs_err_refined": [float(r["abs_err_refined"]) for r in rows]}


def _roots_close(name, got_n, got_s, ref_n, ref_s, tol) -> list[str]:
    if list(got_n) != list(ref_n):
        return [f"{name}: indices {got_n} differ from the reference"]
    worst = max(abs(a - b) for a, b in zip(got_s, ref_s))
    return [f"{name}: max |s_n - reference| = {worst:.3g} exceeds {tol:g}"] if worst > tol else []


def check(op: dict, ref: dict) -> list[str]:
    """Problems with one operation's answer; empty when it is correct."""
    if op["rc"] != 0:
        return [f"{op['label']}: exit code {op['rc']}"]
    tol = ref["refine_tol"]
    try:
        if op["command"] == "solve":
            got = read_solve(op["out"])
            problems = _roots_close("solve", got["n"], got["s_n"],
                                    ref["solve"]["n"], ref["solve"]["s_n"], tol)
            if not all(got["simplicity_ok"]):
                problems.append("solve: a simplicity certificate failed")
            return problems
        if op["command"] == "verify":
            got = read_verify(op["out"])
            want = ref["verify"]
            problems = [] if got["passed"] else ["verify: passed is false"]
            problems += _roots_close("verify", got["n"], got["s_n"],
                                     want["n"], want["s_n"], tol)
            for fit in SLOPE_FITS:
                a, b = got["slopes"][fit], want["slopes"][fit]
                if (a is None) != (b is None) or (b is not None and abs(a - b) > SLOPE_TOL):
                    problems.append(f"verify: {fit} slope {a} vs reference {b}")
            return problems
        if op["command"] == "eigfn":
            got = read_eigfn(op["out"])
            want = ref["eigfn"][str(op["n"])]
            problems = []
            if op["root"] is None or abs(op["root"] - want["s"]) > tol:
                problems.append(f"eigfn {op['n']}: root {op['root']} vs reference {want['s']}")
            a, b = got["abs_err_refined"], want["abs_err_refined"]
            if len(a) != len(b):
                problems.append(f"eigfn {op['n']}: {len(a)} samples, reference has {len(b)}")
            elif max(abs(x - y) for x, y in zip(a, b)) > EIGFN_ATOL:
                problems.append(f"eigfn {op['n']}: abs_err_refined differs from the reference")
            return problems
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{op['label']}: unreadable output ({exc!r})"]
    return [f"{op['label']}: no check for command {op['command']!r}"]
