"""Outside-in span recorder for the traced benchmark run.

Spans are recorded by replacing module attributes with timing wrappers, so
a call is seen exactly where a caller looks the name up at call time
(``spectral`` calls ``dde_solver.shoot_endpoints``, ``predict_eigenfunction``
calls the module global ``kl_integrals``).  Spans stay in flat lists in
memory and are written out once, after the timed passes.

The per-layer numbers follow from the span tree alone: a span's self time
is its duration minus the durations of its direct children, so the layer
self times add up to the root spans' total by construction.  Phases inside
one localization are attributed by call order: the first
``shoot_endpoints`` below a ``localize_range`` span brackets the windows,
the later ones up to ``shoot_many`` are refinement rounds, and
``shoot_many`` onwards assembles the eigenpairs.
"""

from __future__ import annotations

import json
import time

import numpy as np

# (module name, attribute): span name and self-time bucket.  The module
# named is the one whose attribute the caller looks up.
WRAPPED = {
    ("cli", "load_config"): ("cli.load_config", "cli.self_s"),
    ("cli", "validate"): ("problem.validate", "problem.self_s"),
    ("asymptotics", "check_refined_conditions"):
        ("problem.check_refined_conditions", "problem.self_s"),
    ("spectral", "localize_range"): ("spectral.localize_range", "spectral.self_s"),
    ("spectral", "simplicity_certificates"):
        ("spectral.simplicity_certificates", "spectral.self_s"),
    ("dde_solver", "shoot_endpoints"): ("dde_solver.shoot_endpoints", "dde_solver.self_s"),
    ("dde_solver", "shoot_many"): ("dde_solver.shoot_many", "dde_solver.self_s"),
    ("asymptotics", "predict_s"): ("asymptotics.predict_s", "asymptotics.self_s"),
    ("asymptotics", "predict_eigenfunction"):
        ("asymptotics.predict_eigenfunction", "asymptotics.self_s"),
    ("asymptotics", "verify_rates"): ("asymptotics.verify_rates", "asymptotics.self_s"),
    ("asymptotics", "kl_integrals"): ("asymptotics.kl_integrals", "asymptotics.kl_s"),
}
ROOT = ("cli.main", "cli.self_s")
SELF_BUCKETS = ("cli.self_s", "problem.self_s", "spectral.self_s",
                "dde_solver.self_s", "asymptotics.self_s", "asymptotics.kl_s")
# span names whose first positional argument after the spec is a lambda batch
_BATCHED = ("dde_solver.shoot_endpoints", "dde_solver.shoot_many")


class Tracer:
    """Spans as parallel lists: name id, start, end, parent index, columns."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.columns: list[int] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, func, name: str):
        """``func`` wrapped so that every call records one span."""
        nid = self._intern(name)
        batched = name in _BATCHED
        name_id, start, end = self.name_id, self.start, self.end
        parent, columns, stack = self.parent, self.columns, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            if batched:
                lams = args[1] if len(args) > 1 else kwargs.get("lams", ())
                columns.append(int(np.size(lams)))
            else:
                columns.append(0)
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Replace every attribute in WRAPPED on the given modules."""
        for (mod_name, attr), (span, _) in WRAPPED.items():
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(original, span))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __len__(self) -> int:
        return len(self.name_id)

    def dump(self, path) -> None:
        """Write the spans as JSON: name, start, end and parent per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "columns"],
                       "names": self.names,
                       "spans": [list(row) for row in zip(
                           self.name_id, self.start, self.end, self.parent,
                           self.columns)]}, fh)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, from timing a wrapped no-op."""
    def noop(*args):
        return None

    wrapped = Tracer().wrap(noop, "noop")
    t = time.perf_counter()
    for _ in range(calls):
        noop(None, None)
    bare = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        wrapped(None, None)
    return (time.perf_counter() - t - bare) / calls


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times from the recorded span tree."""
    names = tracer.names
    kind = [names[i] for i in tracer.name_id]
    start = np.asarray(tracer.start)
    end = np.asarray(tracer.end)
    dur = end - start
    parent = np.asarray(tracer.parent, dtype=np.int64)
    nested = parent >= 0
    child_sum = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(kind))
    self_time = dur - child_sum

    bucket = {span: b for span, b in WRAPPED.values()}
    bucket[ROOT[0]] = ROOT[1]
    out = {b: 0.0 for b in SELF_BUCKETS}
    for k, name in enumerate(kind):
        out[bucket[name]] += float(self_time[k])

    def total(name):
        return float(sum(dur[k] for k, n in enumerate(kind) if n == name))

    def count(name):
        return sum(1 for n in kind if n == name)

    children: dict[int, list[int]] = {}
    for k in np.nonzero(nested)[0]:
        children.setdefault(int(parent[k]), []).append(int(k))

    window_s = refine_s = pairs_s = 0.0
    window_cols = refine_rounds = refine_cols = 0
    for k, name in enumerate(kind):
        if name != "spectral.localize_range":
            continue
        sweeps = [c for c in children.get(k, ()) if kind[c] == "dde_solver.shoot_endpoints"]
        many = [c for c in children.get(k, ()) if kind[c] == "dde_solver.shoot_many"]
        pairs_start = start[many[0]] if many else end[k]
        if sweeps:
            first = sweeps[0]
            window_s += float(end[first] - start[k])
            window_cols += tracer.columns[first]
            rounds = [c for c in sweeps[1:] if start[c] < pairs_start]
            refine_rounds += len(rounds)
            refine_cols += sum(tracer.columns[c] for c in rounds)
            refine_s += float(pairs_start - end[first])
        pairs_s += float(end[k] - pairs_start)

    sweep_n = count("dde_solver.shoot_endpoints")
    sweep_s = total("dde_solver.shoot_endpoints")
    columns = sum(tracer.columns[k] for k, n in enumerate(kind)
                  if n == "dde_solver.shoot_endpoints")
    out.update({
        "run_s": total(ROOT[0]),
        "problem.validate_s": total("problem.validate"),
        "spectral.window_columns": window_cols,
        "spectral.window_s": window_s,
        "spectral.refine_rounds": refine_rounds,
        "spectral.refine_columns": refine_cols,
        "spectral.refine_s": refine_s,
        "spectral.pairs_s": pairs_s,
        "spectral.certificates_s": total("spectral.simplicity_certificates"),
        "dde_solver.sweeps": sweep_n,
        "dde_solver.columns": columns,
        "dde_solver.sweep_s": sweep_s,
        "dde_solver.s_per_sweep": sweep_s / sweep_n if sweep_n else 0.0,
        "dde_solver.us_per_column": 1e6 * sweep_s / columns if columns else 0.0,
        "dde_solver.segment_columns": sum(
            tracer.columns[k] for k, n in enumerate(kind) if n == "dde_solver.shoot_many"),
        "asymptotics.kl_calls": count("asymptotics.kl_integrals"),
        "asymptotics.verify_rates_s": total("asymptotics.verify_rates"),
        "asymptotics.predict_s_s": total("asymptotics.predict_s"),
        "asymptotics.eigfn_forms_s": total("asymptotics.predict_eigenfunction"),
        "trace.spans": len(kind),
    })
    return out
