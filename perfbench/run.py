"""delaybvp benchmark: three CLI workloads, end-to-end timings and layer traces.

    python3 perfbench/run.py --workload solve-delayed --seed 1 --seconds 36 --trace 0

Run from anywhere; the program under test is ``src/`` of the checkout that
holds this directory.  Each pass of the workload runs in a fresh Python
process (``child.py``) with one BLAS/OpenMP thread, and passes follow one
another (a closed loop with one client) until the next would end after
``--seconds``.  Every answer is checked against ``reference/delayed.json``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall time
of one pass), ``setup_s`` (median time from process start until the first
sweep can begin, from several fresh processes), both rescaled to the host
speed at which ``speed.kernel_s`` takes ``REFERENCE_KERNEL_S``, and
``peak_rss_mb`` (median peak resident memory of a pass process).
``--trace 1`` alternates traced
and untraced passes and reports the per-layer metrics of ``tracing.py``;
the count metrics must repeat exactly between traced passes.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference" / "delayed.json"
SPEC = ROOT / "BENCHMARK.json"
# a run must end within 180 s; no pass starts that could end later than this
TIME_LIMIT_S = 165.0
SETUP_PROBES = 5
# run_s and setup_s are rescaled to the host speed at which speed.kernel_s
# takes this long, about its median on the host of baseline.json
REFERENCE_KERNEL_S = 0.0055
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# counts later changes may claim against; they must repeat exactly
REPEATING_COUNTS = ("dde_solver.sweeps", "dde_solver.columns", "spectral.refine_rounds",
                    "spectral.refine_columns", "asymptotics.kl_calls")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def _child(args, tag: str, trace: bool, setup_only: bool = False, timeout: float = 120.0):
    """Run one fresh child process; its result dict, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(trace)), "--t0", repr(t0),
           "--out-dir", str(OUT_DIR), "--tag", tag]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{tag}: child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{tag}: child exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in (ROOT / "src" / "delaybvp" / "cli.py", ROOT / workloads.CONFIG,
                           REFERENCE, SPEC) if not p.is_file()]
    if missing:
        print("perfbench: missing " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ops_planned = workloads.operations(args.workload, args.seed, ROOT, OUT_DIR)
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    OUT_DIR.mkdir()
    workloads.write_verify_config(ROOT, OUT_DIR)
    start = time.monotonic()

    setups = []
    if not args.trace:
        # the first process after a checkout compiles bytecode; users pay that once
        _child(args, "warmup", False, setup_only=True)
        for k in range(SETUP_PROBES):
            probe = _child(args, f"setup{k}", False, setup_only=True)
            if probe is not None:
                setups.append(probe)

    # trace mode alternates traced and untraced passes: T, U, T, U, ...
    min_passes = 3 if args.trace else 1
    passes = []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        elapsed = time.monotonic() - start
        took = [p["wall"] for p in passes]
        if len(passes) >= min_passes and elapsed + statistics.mean(took) > args.seconds:
            break
        if took and elapsed + 1.5 * max(took) > TIME_LIMIT_S:
            break
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 0
        t = time.monotonic()
        result = _child(args, f"p{k}", traced, timeout=TIME_LIMIT_S - elapsed)
        wall = time.monotonic() - t
        attempted += len(ops_planned)
        if result is None:
            failed += len(ops_planned)
            problems.append(f"pass {k}: child process failed")
            passes.append({"wall": wall, "traced": traced, "result": None})
            continue
        for op in result["ops"]:
            bad = checks.check(op, reference)
            if bad:
                failed += 1
                problems += bad + ([op["stderr"]] if op["stderr"] and op["rc"] else [])
        setups.append(result)
        passes.append({"wall": wall, "traced": traced, "result": result})

    done = [p for p in passes if p["result"] is not None]
    plain = [p["result"] for p in done if not p["traced"]]
    traced = [p["result"] for p in done if p["traced"]]
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops/pass={[op['label'] for op in ops_planned]}")
    print(f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} numpy={done[0]['result']['numpy'] if done else '?'} "
          + " ".join(f"{v}=1" for v in THREAD_VARS))
    print(f"passes: {len(passes)} ({len(traced)} traced), "
          f"{time.monotonic() - start:.1f} s in total")

    if args.trace:
        if not traced:
            print("perfbench: no traced pass completed", file=sys.stderr)
            return 1
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        for name in REPEATING_COUNTS:
            seen = sorted({r["layers"][name] for r in traced})
            if len(seen) != 1:
                problems.append(f"{name} differs between traced passes: {seen}")
        values["trace.run_s"] = values.pop("run_s")
        values["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in plain)) if plain else 0.0
        self_sum = sum(values[name] for name in tracing.SELF_BUCKETS)
        print(f"layer self times sum to {self_sum:.4f} s; traced run_s {values['trace.run_s']:.4f} s")
        print(f"spans of the first traced pass: {(OUT_DIR / 'trace-p0.json').relative_to(ROOT)}")
        for name, unit in units.items():
            print(f"  {name}: {values[name]:.6g} {unit}")
    else:
        if not plain or not setups:
            print("perfbench: no pass completed", file=sys.stderr)
            return 1
        runs = [r["run_s"] for r in plain]
        kernels = [statistics.mean(r["kernel_s"] or r["setup_kernel_s"]) for r in plain]
        scaled = [t * REFERENCE_KERNEL_S / k for t, k in zip(runs, kernels)]
        values = {"run_s": statistics.median(scaled),
                  "setup_s": statistics.median(
                      r["setup_s"] * REFERENCE_KERNEL_S / statistics.median(r["setup_kernel_s"])
                      for r in setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        print(f"run_s: {values['run_s']:.4f} s, the median of {len(runs)} passes of "
              f"{[round(t, 4) for t in scaled]} s, each its wall time times "
              f"{REFERENCE_KERNEL_S} s / its mean speed-kernel time; "
              f"no percentile has 10 samples beyond it at this count")
        print(f"  wall time: median {statistics.median(runs):.4f} s of passes "
              f"{[round(t, 4) for t in runs]} s; speed kernel: pass means "
              f"{[round(k * 1e3, 3) for k in kernels]} ms over "
              f"{[len(r['kernel_s']) for r in plain]} samples")
        print(f"setup_s: {values['setup_s']:.4f} s, the median over {len(setups)} processes "
              f"of each one's set-up time times {REFERENCE_KERNEL_S} s / its median of "
              f"{speed.SETUP_SAMPLES} speed-kernel times right after set-up; raw median "
              f"{statistics.median(r['setup_s'] for r in setups):.4f} s")
        print(f"peak_rss_mb: median {values['peak_rss_mb']:.1f} MB")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted if attempted else 1.0:g}")
    for line in problems:
        print(f"problem: {line}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
