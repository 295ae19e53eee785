"""One benchmark pass in a fresh interpreter.

Started by ``run.py``, one process per pass, so set-up time, peak memory
and the ``lru_cache`` state belong to this pass alone.  Set-up (imports,
``load_config``, ``validate`` and the integrator's coefficient tables) is
timed from just before the parent started this process; the pass is the
workload's CLI calls, timed one by one.  In an untraced pass a timer also
runs the fixed speed kernel of ``speed.py`` every ``speed.PERIOD_S``
during the calls, and the kernel's own time is taken out of theirs.  The
result is one JSON object on the last line of standard output.

    python3 perfbench/child.py --root . --workload solve-delayed --seed 1 \
        --trace 0 --t0 <time.monotonic() of the parent> --out-dir perfbench/out --tag p0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

# a one-column sweep is timed at this lambda, the bottom of the n = 5..50 range
SINGLE_SWEEP_LAMBDA = 25.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--t0", required=True, type=float)
    ap.add_argument("--out-dir", required=True, type=Path)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report its time only")
    return ap.parse_args(argv)


def _build_tables(dde_solver, spec, steps: int) -> None:
    """Sample the coefficients for both sweep tables, as the first sweep
    would.  Skipped when the solver no longer exposes the builders, in
    which case the first sweep of the pass pays for them."""
    for name in ("_left_tables", "_right_tables"):
        build = getattr(dde_solver, name, None)
        if build is not None:
            build(spec, steps)


def main(argv=None) -> int:
    args = _parse(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from delaybvp import asymptotics, cli, dde_solver, problem, spectral

    src = (root / "src").resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"delaybvp imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    config = str(root / workloads.CONFIG)
    cfg = cli.load_config(config)
    if not problem.validate(cfg.problem).passed:
        print(f"{config} does not validate", file=sys.stderr)
        return 2
    _build_tables(dde_solver, cfg.problem, cfg.solver.steps_per_segment)
    setup_s = time.monotonic() - args.t0
    setup_kernel_s = [speed.kernel_s() for _ in range(speed.SETUP_SAMPLES)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_kernel_s": setup_kernel_s}))
        return 0

    capture = workloads.RootCapture(spectral)
    tracer = tracing.Tracer() if args.trace else None
    run = cli.main
    if tracer is not None:
        tracer.install({"cli": cli, "spectral": spectral, "dde_solver": dde_solver,
                        "asymptotics": asymptotics})
        run = tracer.wrap(cli.main, tracing.ROOT[0])

    sampler = speed.Sampler() if tracer is None else None
    ops = []
    for op in workloads.operations(args.workload, args.seed, root, args.out_dir):
        ext = "json" if op["command"] == "verify" else "csv"
        out = args.out_dir / f"{args.tag}-{op['label']}.{ext}"
        argv_op = op["argv"] + ["--out", str(out)]
        err = io.StringIO()
        if sampler is not None:
            sampler.start()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = run(argv_op)
        except Exception:  # the pass goes on; the op counts as failed
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t
        if sampler is not None:
            seconds -= sampler.stop()
        roots = capture.take()
        ops.append({**op, "rc": rc, "seconds": seconds, "out": str(out),
                    "root": roots.get(op["n"]) if op["n"] is not None else None,
                    "stderr": err.getvalue()[-2000:]})

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        tracer.dump(args.out_dir / f"trace-{args.tag}.json")
        singles = []
        for _ in range(3):
            t = time.perf_counter()
            dde_solver.shoot_endpoints(cfg.problem, [SINGLE_SWEEP_LAMBDA],
                                       cfg.solver.steps_per_segment)
            singles.append(time.perf_counter() - t)
        layers["dde_solver.single_column_sweep_s"] = statistics.median(singles)
        layers["trace.overhead_est_s"] = len(tracer) * tracing.wrapper_cost()
    capture.close()

    print(json.dumps({
        "numpy": np.__version__,
        "setup_s": setup_s,
        "run_s": sum(op["seconds"] for op in ops),
        "setup_kernel_s": setup_kernel_s,
        "kernel_s": sampler.samples if sampler is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
