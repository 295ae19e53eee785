"""Write ``reference/delayed.json``: the answers ``checks.py`` compares with.

Runs ``solve`` and ``eigfn`` for every index in 5..50 on
``configs/delayed.json``, and ``verify`` over the verify workload's range,
with the source tree of the current checkout, and records the commit it
was taken at.  Rerun it only at a commit whose answers
are known to be right; the benchmark's correctness checks rest on it.

    python3 perfbench/capture_reference.py --commit "$(git rev-parse HEAD)"
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cli, argv) -> None:
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True, help="commit the answers come from")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from delaybvp import cli, spectral

    config = str(ROOT / workloads.CONFIG)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ref = {"commit": args.commit, "config": workloads.CONFIG,
           "refine_tol": cli.load_config(config).solver.refine_tol}

    _run(cli, ["solve", "--config", config, "--out", str(out_dir / "ref-solve.csv")])
    solve = checks.read_solve(out_dir / "ref-solve.csv")
    ref["solve"] = {"n": solve["n"], "s_n": solve["s_n"]}

    verify_config = workloads.write_verify_config(ROOT, out_dir)
    _run(cli, ["verify", "--config", str(verify_config),
               "--out", str(out_dir / "ref-verify.json")])
    verify = checks.read_verify(out_dir / "ref-verify.json")
    ref["verify"] = {"range": list(workloads.VERIFY_RANGE), "n": verify["n"],
                     "s_n": verify["s_n"], "slopes": verify["slopes"]}

    capture = workloads.RootCapture(spectral)
    ref["eigfn"] = {}
    for n in workloads.EIGFN_POOL:
        path = out_dir / f"ref-eigfn-{n}.csv"
        _run(cli, ["eigfn", "--config", config, "--n", str(n), "--out", str(path)])
        errs = checks.read_eigfn(path)["abs_err_refined"]
        ref["eigfn"][str(n)] = {"s": capture.take()[n],
                                "abs_err_refined": [float(f"{e:.10g}") for e in errs]}
    capture.close()

    target = HERE / "reference" / "delayed.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(ref) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
