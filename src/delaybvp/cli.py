"""Command-line front end.

Subcommands: ``solve`` (eigenvalue table), ``charfn`` (characteristic
function samples), ``eigfn`` (one eigenfunction against its asymptotic
forms), ``verify`` (rate report), ``validate`` (constraint report).  Every
command is a pure function of its JSON config: reruns produce byte-identical
primary output.

Exit codes: 0 success, 1 config or validation error (a usage error
included, and a problem outside what a command needs: one that fails the
refined conditions for ``eigfn`` and ``verify``, and sin(alpha) = 0 or
sin(beta) = 0 for a localization over an n-range), 2 solver failure, 3
verification threshold failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import asymptotics, dde_solver, spectral
from ._frozen import Frozen
from .exprlang import Expr, ExprDomainError, ExprError, Var, levels, parse as parse_expr
from .problem import (HALF, Case1RequiredError, ProblemSpec,
                      check_refined_conditions, is_case1, validate)

__all__ = ["main", "load_config", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

# limits checked before anything is allocated: samples of an s- or x-grid,
# indices of an n-range, and the largest s whose lambda = s^2 is finite
MAX_SAMPLES = 2 ** 20
MAX_INDICES = 2 ** 16
S_LIMIT = math.sqrt(sys.float_info.max)


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


class SolverSettings(Frozen):
    steps_per_segment: int = dde_solver.DEFAULT_STEPS
    refine_tol: float = spectral.DEFAULT_REFINE_TOL


class RunConfig(Frozen):
    problem: ProblemSpec
    solver: SolverSettings
    n_range: tuple[int, int] | None
    s_range: tuple[float, float, int] | None
    out_format: str
    out_path: str | None
    x_samples: int


# every key a config may hold: the sections and the keys of each
_KEYS = {
    "problem": ("q_left", "q_right", "retard_left", "retard_right", "alpha", "beta", "coupling"),
    "solver": ("steps_per_segment", "refine_tol"),
    "range": ("n_min", "n_max", "s_min", "s_max", "samples"),
    "output": ("format", "path"),
    "grid": ("x_samples",),
}


def _section(doc: dict, name: str, required: bool = False) -> dict:
    """``doc[name]``, an object holding no key that ``_KEYS`` omits."""
    section = doc.get(name, None if required else {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: {'section missing' if required else 'expected an object'}")
    for key in section:
        if key not in _KEYS[name]:
            raise ConfigError(f"{name}.{key}: unknown key")
    return section


def _uses_x(tree) -> bool:
    """True when an expression tree has a ``Var`` node anywhere."""
    return any(isinstance(node, Var) for level in levels(tree) for node in level)


def _formula(raw: str, key: str) -> Expr:
    """The tree of ``problem.<key>``'s formula; a syntax error names the key."""
    try:
        return parse_expr(raw)
    except ExprError as exc:
        raise ConfigError(f"problem.{key}: {exc}") from exc


def _angle(raw, key: str) -> float:
    """Angles and the coupling accept numbers or constant expressions
    ('pi/2' reads better than 1.5707963267948966 in a config file); an
    expression in x is not a constant and is a config error."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    if isinstance(raw, str):
        tree = _formula(raw, key)
        if _uses_x(tree):
            raise ConfigError(f"problem.{key}: expected a constant, not an expression in x")
        try:
            return float(tree.eval(0.0))
        except ExprDomainError as exc:
            raise ConfigError(f"problem.{key}: {exc}") from exc
    raise ConfigError(f"problem.{key}: expected a number or expression string")


def _expr_field(section: dict, key: str) -> Expr:
    raw = section.get(key)
    if not isinstance(raw, str):
        raise ConfigError(f"problem.{key}: expected an expression string")
    return _formula(raw, key)


def _positive(raw, key: str) -> float:
    """A finite number above 0; bools fail."""
    if isinstance(raw, bool):
        raise ConfigError(f"{key}: expected a positive number")
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected a positive number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number")
    if value <= 0:
        raise ConfigError(f"{key}: must be positive")
    return value


def _integer(raw, key: str, minimum: int = 1, maximum: int | None = None) -> int:
    """A whole number in [minimum, maximum]; bools and fractions fail."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{key}: expected an integer")
    if raw < minimum:
        raise ConfigError(f"{key}: must be at least {minimum}")
    if maximum is not None and raw > maximum:
        raise ConfigError(f"{key}: must be at most {maximum}")
    return raw


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, nesting past the recursion limit, an over-long integer
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in doc:
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown key")

    prob = _section(doc, "problem", required=True)
    try:
        spec = ProblemSpec(
            q_left=_expr_field(prob, "q_left"),
            q_right=_expr_field(prob, "q_right"),
            retard_left=_expr_field(prob, "retard_left"),
            retard_right=_expr_field(prob, "retard_right"),
            alpha=_angle(prob.get("alpha"), "alpha"),
            beta=_angle(prob.get("beta"), "beta"),
            coupling=_angle(prob.get("coupling"), "coupling"),
        )
    except ConfigError:
        raise  # already names its problem key
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc

    sol = _section(doc, "solver")
    # the upper bound keeps one lambda column of a sweep (2 x 65537 x 8 B) near 1 MiB
    settings = SolverSettings(
        steps_per_segment=_integer(sol.get("steps_per_segment", dde_solver.DEFAULT_STEPS),
                                   "solver.steps_per_segment", minimum=2, maximum=65536),
        refine_tol=_positive(sol.get("refine_tol", spectral.DEFAULT_REFINE_TOL),
                             "solver.refine_tol"),
    )

    rng = _section(doc, "range", required=True)
    n_range = None
    s_range = None
    if "n_min" in rng or "n_max" in rng:
        if "s_min" in rng or "s_max" in rng:
            raise ConfigError("range: give either an n-range or an s-range, not both")
        n_min = _integer(rng.get("n_min"), "range.n_min")
        n_max = _integer(rng.get("n_max"), "range.n_max")
        if n_max < n_min:
            raise ConfigError("range.n_max: must be >= range.n_min")
        if n_max - n_min >= MAX_INDICES:
            raise ConfigError(f"range.n_max: at most {MAX_INDICES} indices")
        if n_max > S_LIMIT - 0.5:  # an int compares exactly, however large
            raise ConfigError("range.n_max: (n_max + 0.5)^2 must be finite")
        n_range = (n_min, n_max)
    elif "s_min" in rng or "s_max" in rng:
        s_min = _positive(rng.get("s_min"), "range.s_min")
        s_max = _positive(rng.get("s_max"), "range.s_max")
        if s_max <= s_min:
            raise ConfigError("range.s_max: must exceed range.s_min")
        if s_max > S_LIMIT:
            raise ConfigError("range.s_max: s_max^2 must be finite")
        if s_min * s_min == 0.0:
            raise ConfigError("range.s_min: s_min^2 must be positive")
        samples = _integer(rng.get("samples"), "range.samples", minimum=2,
                           maximum=MAX_SAMPLES)
        s_range = (s_min, s_max, samples)
    else:
        raise ConfigError("range: need n_min/n_max or s_min/s_max/samples")

    out = _section(doc, "output")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("output.format: expected 'csv' or 'json'")
    grid = _section(doc, "grid")
    x_samples = _integer(grid.get("x_samples", 201), "grid.x_samples", maximum=MAX_SAMPLES)
    out_path = out.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path: expected a file path string")

    return RunConfig(problem=spec, solver=settings, n_range=n_range,
                     s_range=s_range, out_format=fmt,
                     out_path=out_path, x_samples=x_samples)


# --- output helpers ---------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write(text: str, out_path: str | None) -> None:
    """Primary output goes to ``out_path`` when given, else to stdout."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_table(columns: list[str], rows: list[tuple], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = [dict(zip(columns, (v if isinstance(v, (bool, int)) else float(v)
                                      for v in row))) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, out_path)


def _validated_or_fail(cfg: RunConfig) -> None:
    """A failed ``validate`` is a config error naming the failed checks, then the report."""
    report = validate(cfg.problem, cfg.solver.steps_per_segment)
    if not report.passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise ConfigError("\n".join([f"problem: fails {failed}"] + report.lines()))


# --- subcommands ------------------------------------------------------------


def cmd_solve(cfg: RunConfig, out_path: str | None, fmt: str) -> int:
    _validated_or_fail(cfg)
    steps = cfg.solver.steps_per_segment
    if cfg.n_range is not None:
        n_min, n_max = cfg.n_range
        pairs = spectral.localize_range(cfg.problem, range(n_min, n_max + 1),
                                        cfg.solver.refine_tol, steps)
    else:
        pairs = spectral.scan_roots(cfg.problem, *cfg.s_range, cfg.solver.refine_tol, steps)
    certs = spectral.simplicity_certificates(cfg.problem, pairs, steps)
    rows = [(p.index, p.s, p.lam, c.F_residual, bool(c.passed))
            for p, c in zip(pairs, certs)]
    _emit_table(["n", "s_n", "lambda_n", "F_residual", "simplicity_ok"],
                rows, fmt, out_path)
    return EXIT_OK


def cmd_charfn(cfg: RunConfig, out_path: str | None, fmt: str) -> int:
    _validated_or_fail(cfg)
    if cfg.s_range is None:
        raise ConfigError("range: charfn needs an s-range (s_min/s_max/samples)")
    s_min, s_max, samples = cfg.s_range
    grid = np.linspace(s_min, s_max, samples)
    F = spectral.char_fn_samples(cfg.problem, grid, cfg.solver.steps_per_segment)
    rows = [(float(s), float(s * s), float(f)) for s, f in zip(grid, F)]
    _emit_table(["s", "lambda", "F"], rows, fmt, out_path)
    return EXIT_OK


def cmd_eigfn(cfg: RunConfig, n: int | None, out_path: str | None, fmt: str) -> int:
    if n is None or n < 1:
        raise ConfigError("--n: eigfn needs an eigenvalue index of at least 1")
    if n > S_LIMIT - 0.5:
        raise ConfigError("--n: (n + 0.5)^2 must be finite")
    _validated_or_fail(cfg)
    steps = cfg.solver.steps_per_segment
    asymptotics.require_refined(cfg.problem, steps)
    pair = spectral.localize_near_n(cfg.problem, n, cfg.solver.refine_tol, steps)
    xs = np.linspace(0.0, math.pi, cfg.x_samples)
    xs = xs[np.abs(xs - HALF) > 1e-12]
    [u], [u_lead], [u_ref], _, _ = asymptotics.eigenfunction_table(cfg.problem, [pair], xs, steps)
    rows = [(float(x), float(uv), float(ul), float(ur),
             float(abs(uv - ul)), float(abs(uv - ur)))
            for x, uv, ul, ur in zip(xs, u, u_lead, u_ref)]
    _emit_table(["x", "u_computed", "u_leading", "u_refined",
                 "abs_err_leading", "abs_err_refined"], rows, fmt, out_path)
    return EXIT_OK


def _slope_dict(fit: asymptotics.SlopeFit) -> dict:
    return {"slope": fit.slope, "points": fit.points,
            "floor_limited": fit.floor_limited}


def cmd_verify(cfg: RunConfig, out_path: str | None, format_flag: str | None) -> int:
    """The rate report, always as JSON: an explicit ``--format csv`` is a
    config error, while a config's ``output.format`` is ignored."""
    if format_flag == "csv":
        raise ConfigError("--format: verify writes JSON only")
    _validated_or_fail(cfg)
    asymptotics.require_refined(cfg.problem, cfg.solver.steps_per_segment)
    if cfg.n_range is None:
        raise ConfigError("range: verify needs an n-range (n_min/n_max)")
    n_min, n_max = cfg.n_range
    indices = range(n_min, n_max + 1)
    if len(indices) < asymptotics.MIN_RATE_INDICES:
        raise ConfigError(f"range.n_max: verify needs at least {asymptotics.MIN_RATE_INDICES} "
                          f"indices; n range [{n_min}, {n_max}] supplies {len(indices)}")
    steps = cfg.solver.steps_per_segment
    pairs = spectral.localize_range(cfg.problem, indices, cfg.solver.refine_tol, steps)
    report = asymptotics.verify_rates(cfg.problem, pairs, steps)

    table = [{"n": n, "s_n": s, "s_refined": r,
              "abs_residual": abs(s - r), "drift": d}
             for n, s, r, d in zip(report.indices, report.s_values,
                                   report.s_refined, report.drift)]
    payload = {
        "passed": report.passed,
        "drift": {"first_half_max": report.drift_first_max,
                  "second_half_max": report.drift_second_max,
                  "bounded": report.drift_bounded},
        "refined_s_fit": _slope_dict(report.refined_s_fit),
        "leading_eigfn_fit": _slope_dict(report.leading_eigfn_fit),
        "refined_eigfn_fit": _slope_dict(report.refined_eigfn_fit),
        "right_refined_fit_printed": _slope_dict(report.right_refined_fit_printed),
        "right_refined_fit_alt": _slope_dict(report.right_refined_fit_alt),
        "amplitude_ratio": {"measured": report.amp_ratio,
                            "expected": report.amp_ratio_expected,
                            "relative_error": report.amp_rel_err},
        "oscillatory_decay": {"s": list(report.osc_s),
                              "values": list(report.osc_values),
                              "fit": _slope_dict(report.osc_fit)},
        "residual_table": table,
    }
    _write(json.dumps(payload, indent=2) + "\n", out_path)

    print(f"verify over n in [{n_min}, {n_max}]:", file=sys.stderr)
    print(f"  drift bound: {report.drift_second_max:.3e} vs "
          f"{report.drift_first_max:.3e} -> "
          f"{'ok' if report.drift_bounded else 'FAIL'}", file=sys.stderr)
    for label, field, threshold in asymptotics.SLOPE_GATES:
        fit = getattr(report, field)
        state = ("floor-limited" if fit.floor_limited
                 else f"slope {fit.slope:+.3f} (threshold {threshold:+.2f})")
        print(f"  {label}: {state} -> {'ok' if fit.ok(threshold) else 'FAIL'}",
              file=sys.stderr)
    print(f"  right-interval inner scaling, printed vs alternative: "
          f"{report.right_refined_fit_printed.slope} vs "
          f"{report.right_refined_fit_alt.slope}", file=sys.stderr)
    print(f"  amplitude ratio: {report.amp_ratio:.6g} vs expected "
          f"{report.amp_ratio_expected:.6g} "
          f"({100 * report.amp_rel_err:.2f}% off)", file=sys.stderr)
    print(f"  overall: {'PASS' if report.passed else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_validate(cfg: RunConfig, out_path: str | None, fmt: str) -> int:
    report = validate(cfg.problem, cfg.solver.steps_per_segment)
    conditions = check_refined_conditions(cfg.problem, cfg.solver.steps_per_segment)
    case1 = is_case1(cfg.problem)
    if fmt == "json":
        payload = {
            "valid": report.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "worst_x": c.worst_x, "detail": c.detail}
                       for c in report.checks + conditions.checks],
            "refined_conditions": conditions.passed,
            "case1": case1,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = report.lines() + conditions.lines()
        lines.append(f"valid: {report.passed}; refined conditions: "
                     f"{conditions.passed}; case1: {case1}")
        text = "\n".join(lines) + "\n"
    _write(text, out_path)
    return EXIT_OK if report.passed else EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# built once per process: parsing leaves the parser unchanged, and building it
# costs about a millisecond per call (a few on first use, for gettext)
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="delaybvp",
        description="Eigenvalues of a delayed transmission boundary value problem.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "locate eigenvalues and emit the eigenvalue table"),
        ("charfn", "sample the characteristic function on an s-grid"),
        ("eigfn", "tabulate one eigenfunction against its asymptotic forms"),
        ("verify", "measure asymptotic rates and report pass/fail"),
        ("validate", "check the problem constraints and report"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON problem config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"),
                       help="output format (default from config, else csv); "
                            "verify writes JSON only")
        if name == "eigfn":
            p.add_argument("--n", type=int, default=None,
                           help="eigenvalue index to tabulate")
    return ap


_SOLVER_ERRORS = (dde_solver.NonFiniteStateError, dde_solver.DelayRangeError,
                  spectral.ZeroOrManyError)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fmt = args.format or cfg.out_format
    out_path = args.out or cfg.out_path
    handlers = {
        "solve": lambda: cmd_solve(cfg, out_path, fmt),
        "charfn": lambda: cmd_charfn(cfg, out_path, fmt),
        "eigfn": lambda: cmd_eigfn(cfg, getattr(args, "n", None), out_path, fmt),
        "verify": lambda: cmd_verify(cfg, out_path, args.format),
        "validate": lambda: cmd_validate(cfg, out_path, fmt),
    }
    try:
        return handlers[args.command]()
    except (ConfigError, ExprDomainError, Case1RequiredError) as exc:
        # validate samples q and Delta where the commands do, so a domain
        # error is a config error; so is a problem the command cannot take
        where = "" if isinstance(exc, ConfigError) else "problem: "
        print(f"config error: {where}{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
