"""The benchmark's workloads: which CLI calls one pass makes.

Every workload runs the problem of ``configs/delayed.json``, the shipped
config whose delays exercise the Hermite lookups of the integrator.

- ``solve-delayed``: one ``solve`` over n = 5..50.  Wide batches (a
  2944-column window sweep, then 1426-column refinement rounds), so
  per-column cost and the refinement round count dominate.  It never
  reaches ``asymptotics``, which makes it the no-change control for K/L
  quadrature work.
- ``verify-delayed``: one ``verify`` over n = 5..20 (``VERIFY_RANGE``).  The
  same kind of localization without certificates, plus 12352 K/L
  quadratures, about half its time.  The range is narrower than the
  config's so that a run holds several passes: a full 5..50 ``verify`` takes
  over 20 s, and single passes on a shared machine spread by about 20%.
- ``eigfn-narrow``: one ``eigfn`` for each of four indices in 5..50 picked
  by the seed.  Every sweep is 64 columns wide or less, so the fixed
  per-step cost dominates and per-column speed barely matters: the width
  opposite of ``solve-delayed``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CONFIG = "configs/delayed.json"
VERIFY_RANGE = (5, 20)
EIGFN_POOL = range(5, 51)
EIGFN_COUNT = 4
WORKLOADS = ("solve-delayed", "verify-delayed", "eigfn-narrow")


def verify_config(out_dir: Path) -> Path:
    """Where ``write_verify_config`` puts the verify workload's config."""
    return out_dir / "delayed-verify.json"


def write_verify_config(root: Path, out_dir: Path) -> Path:
    """``configs/delayed.json`` with its index range set to ``VERIFY_RANGE``."""
    with open(root / CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["range"] = {"n_min": VERIFY_RANGE[0], "n_max": VERIFY_RANGE[1]}
    path = verify_config(out_dir)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def operations(workload: str, seed: int, root: Path, out_dir: Path) -> list[dict]:
    """The CLI calls of one pass; each is {"label", "command", "n", "argv"}."""
    config = str(root / CONFIG)
    if workload == "solve-delayed":
        return [{"label": "solve", "command": "solve", "n": None,
                 "argv": ["solve", "--config", config]}]
    if workload == "verify-delayed":
        return [{"label": "verify", "command": "verify", "n": None,
                 "argv": ["verify", "--config", str(verify_config(out_dir))]}]
    if workload == "eigfn-narrow":
        indices = sorted(random.Random(seed).sample(list(EIGFN_POOL), EIGFN_COUNT))
        return [{"label": f"eigfn-{n}", "command": "eigfn", "n": n,
                 "argv": ["eigfn", "--config", config, "--n", str(n)]}
                for n in indices]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


class RootCapture:
    """Records the roots every ``spectral.localize_range`` call returns.

    ``eigfn`` prints no eigenvalue, so its root is read here; the wrapper
    costs one extra Python call per localization.
    """

    def __init__(self, spectral):
        self._spectral = spectral
        self._original = spectral.localize_range
        self.roots: list[dict[int, float]] = []

        def capture(*args, **kwargs):
            pairs = self._original(*args, **kwargs)
            self.roots.append({p.index: p.s for p in pairs})
            return pairs

        spectral.localize_range = capture

    def take(self) -> dict[int, float]:
        """Roots of every localization since the last call, merged."""
        merged: dict[int, float] = {}
        for batch in self.roots:
            merged.update(batch)
        self.roots.clear()
        return merged

    def close(self) -> None:
        self._spectral.localize_range = self._original
