"""Acceptance gate: one test per shipped guarantee, each printing a
pass/fail line.  Tolerances are fixed here, not tuned at runtime."""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from delaybvp import dde_solver, picard, spectral
from delaybvp.asymptotics import apriori_bounds, oscillatory_q_integral, verify_rates
from delaybvp.cli import main
from delaybvp.problem import HALF, q_norms

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def check(num, desc, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def run_cli(args):
    code = main(args)
    assert code == 0, f"cli {args} exited {code}"


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def null_solve(out_dir):
    """Timed CLI solve of the shipped null config."""
    out = out_dir / "null.csv"
    t0 = time.perf_counter()
    run_cli(["solve", "--config", str(CONFIG_DIR / "null.json"), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, elapsed


def test_criterion_1_null_spec_exactness(null_solve):
    rows, elapsed = null_solve
    worst = max(abs(float(r["s_n"]) - int(r["n"])) for r in rows)
    ok = (len(rows) == 20 and worst < 1e-8 and elapsed < 10.0)
    check(1, f"null solve n in [1,20]: max |s_n - n| = {worst:.2e}, "
             f"runtime {elapsed:.1f}s (< 10s)", ok)


def test_criterion_2_oracle_equivalence(constq_spec, delayed_spec):
    worst = 0.0
    for spec in (constq_spec, delayed_spec):
        norms = q_norms(spec)
        xl = np.linspace(0.0, HALF, 801)
        xr = np.linspace(HALF, PI, 801)
        for s in (2.0 * max(norms.q1, norms.q2) + 1.0, 10.0, 25.0):
            lam = s * s
            w1 = picard.picard_w1(spec, lam)
            w2 = picard.picard_w2(spec, lam, w1)
            shot = dde_solver.shoot(spec, lam)
            worst = max(
                worst,
                np.max(np.abs(w1.eval(xl) - shot.left.eval(xl))),
                np.max(np.abs(w1.eval_deriv(xl) - shot.left.eval_deriv(xl))),
                np.max(np.abs(w2.eval(xr) - shot.right.eval(xr))),
                np.max(np.abs(w2.eval_deriv(xr) - shot.right.eval_deriv(xr))),
            )
    check(2, f"fixed-point oracle vs stepper: sup distance {worst:.2e} (< 1e-6)",
          worst < 1e-6)


def test_criterion_3_integrator_order(null_spec):
    orders = []
    for lam in (1.0, 4.0, 25.0):
        s = math.sqrt(lam)
        errs = []
        for steps in (64, 128):
            seg = dde_solver.integrate_segment(null_spec, lam, (0.0, HALF),
                                               1.0, 0.0, steps=steps)
            errs.append(abs(seg.eval(HALF) - math.cos(s * HALF))
                        + abs(seg.eval_deriv(HALF) + s * math.sin(s * HALF)) / s)
        orders.append(math.log2(errs[0] / errs[1]))
    ok = all(3.7 <= o <= 4.3 for o in orders)
    check(3, "observed order on the closed form: "
             + ", ".join(f"{o:.2f}" for o in orders) + " (4.0 +/- 0.3)", ok)


def test_criterion_4_localization(constq_pairs, delayed_pairs):
    # the fixtures ran localize_range over n in [5, 50]; reaching here means
    # every window produced exactly one sign change (no ZeroOrMany)
    ok = True
    for pairs in (constq_pairs, delayed_pairs):
        ok &= [p.index for p in pairs] == list(range(5, 51))
        ok &= all(p.index - 0.5 < p.s < p.index + 0.5 for p in pairs)
    check(4, "one sign change per unit window, n in [5,50], both specs", ok)


def _drift_split(pairs):
    lo = max(abs(p.s - p.index) * p.index ** (1.0 / 3.0)
             for p in pairs if p.index <= 27)
    hi = max(abs(p.s - p.index) * p.index ** (1.0 / 3.0)
             for p in pairs if p.index >= 28)
    return lo, hi


def test_criterion_5_shift_boundedness(constq_pairs, delayed_pairs):
    ok = True
    detail = []
    for name, pairs in (("constant_q", constq_pairs), ("delayed", delayed_pairs)):
        lo, hi = _drift_split(pairs)
        ok &= hi <= 1.5 * lo
        detail.append(f"{name}: {hi:.3g} <= 1.5 * {lo:.3g}")
    check(5, "n^(1/3)|s_n - n| shows no growth: " + "; ".join(detail), ok)


def test_criterion_6_refined_rate(constq_spec, delayed_spec):
    ok = True
    detail = []
    for name, spec in (("constant_q", constq_spec), ("delayed", delayed_spec)):
        t0 = time.perf_counter()
        pairs = spectral.localize_range(spec, range(5, 51))
        report = verify_rates(spec, pairs)
        elapsed = time.perf_counter() - t0
        fit = report.refined_s_fit
        ok &= (not fit.floor_limited) and fit.slope <= -1.7 and elapsed < 120.0
        detail.append(f"{name}: slope {fit.slope:.2f}, {elapsed:.0f}s")
    check(6, "refined eigenvalue residual decays: " + "; ".join(detail), ok)


def test_criterion_7_eigenfunction_rates(delayed_spec, delayed_pairs):
    pairs = [p for p in delayed_pairs if p.index >= 10]
    report = verify_rates(delayed_spec, pairs)
    refined = report.refined_eigfn_fit
    leading = report.leading_eigfn_fit
    ok = (not refined.floor_limited and refined.slope <= -1.7
          and not leading.floor_limited and leading.slope <= -0.3
          and report.amp_rel_err <= 0.2)
    check(7, f"eigenfunction errors: refined slope {refined.slope:.2f} (<= -1.7), "
             f"leading slope {leading.slope:.2f} (<= -0.3), "
             f"amplitude ratio off by {100 * report.amp_rel_err:.2f}% (<= 20%)", ok)


def test_criterion_8_apriori_bounds(constq_spec):
    norms = q_norms(constq_spec)
    xl = np.linspace(0.0, HALF, 512)
    xr = np.linspace(HALF, PI, 512)
    violations = 0
    for lam in (4.0 * norms.q1 ** 2, 25.0, 100.0):
        bounds = apriori_bounds(constq_spec, lam)
        shot = dde_solver.shoot(constq_spec, lam)
        s53 = lam ** (5.0 / 6.0)
        violations += int(np.max(np.abs(shot.left.eval(xl))) > bounds.bound1)
        violations += int(np.max(np.abs(shot.right.eval(xr))) > bounds.bound2)
        violations += int(np.max(np.abs(shot.left.eval_deriv(xl))) / s53
                          > bounds.deriv_bound)
    check(8, f"a-priori sup bounds at 512 sample points: {violations} violations",
          violations == 0)


def test_criterion_9_simplicity(null_solve, constq_spec, delayed_spec,
                                constq_pairs, delayed_pairs):
    rows, _ = null_solve
    ok = all(r["simplicity_ok"] == "true" for r in rows)
    failures = 0
    for spec, pairs in ((constq_spec, constq_pairs), (delayed_spec, delayed_pairs)):
        certs = spectral.simplicity_certificates(pairs)
        failures += sum(not c.passed for c in certs)
    check(9, f"transversal root crossings everywhere: {failures} failures "
             f"among localized pairs, null table all ok={ok}",
          ok and failures == 0)


def test_criterion_10_oscillatory_decay(delayed_spec):
    s_grid = np.array([10.0, 20.0, 40.0, 80.0])
    vals = np.array([abs(oscillatory_q_integral(delayed_spec, s)) for s in s_grid])
    slope = float(np.polyfit(np.log(s_grid), np.log(vals), 1)[0])
    check(10, f"oscillatory q-integral decay slope {slope:.2f} (<= -0.8)",
          slope <= -0.8)


def test_criterion_11_determinism(out_dir):
    identical = True
    for name in ("null", "constant_q", "delayed"):
        cfg = str(CONFIG_DIR / f"{name}.json")
        first = out_dir / f"{name}_run1.csv"
        second = out_dir / f"{name}_run2.csv"
        run_cli(["solve", "--config", cfg, "--out", str(first)])
        run_cli(["solve", "--config", cfg, "--out", str(second)])
        identical &= first.read_bytes() == second.read_bytes()
    check(11, "two consecutive runs of each shipped config are byte-identical",
          identical)
