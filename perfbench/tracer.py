"""Per-layer tracing from outside the program.

``Tracer.install`` replaces named functions and methods of the loaded
program with timing wrappers.  A function is replaced in every ``quadform``
module namespace that holds it (``groupoid`` imports ``qi_floor`` and
``solver`` imports ``equivalent_sl`` by name), a method on its class.

Three kinds of wrapper:

* spans, at the cli/solver/forms/groupoid boundaries: each call records
  (name, start, end, parent span, query id);
* leaves, the hot exact/lattice functions: each call adds its count and
  time to its name, and its time counts as a child of the enclosing span;
* counters: calls only, their time stays with the caller.

A span's or leaf's self time is its duration minus that of the spans and
leaves called inside it.  Wrappers do nothing outside a query (``qid`` is
None), so inputs, warm-up and checks are never traced.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute or "Class.method", ...)
SPANS = [
    ("cli.parse_args", "cli", "parse_args"),
    ("cli.run", "cli", "run"),
    ("solver.residue_classes", "solver", "residue_classes"),
    ("solver.solve_proper", "solver", "solve_proper"),
    ("solver.enumerate_solutions", "solver", "enumerate_solutions"),
    ("forms.equivalent_sl", "forms", "equivalent_sl"),
    ("forms.stabilizer_generator", "forms", "stabilizer_generator"),
    ("forms.pell_fundamental", "forms", "pell_fundamental"),
    ("groupoid.orbit", "groupoid", "orbit"),
    ("groupoid.derivative", "groupoid", "derivative"),
    ("groupoid.normal_form", "groupoid", "normal_form"),
    ("groupoid.compose", "groupoid", "compose"),
    ("groupoid.hom_base", "groupoid", "hom_base"),
    ("groupoid.cycle_loop", "groupoid", "cycle_loop"),
    ("groupoid.morphism_check", "groupoid", "Morphism.__post_init__"),
]
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "inverse", "_cmp")
LEAVES = [
    ("lattice.mat_mul", "lattice", "Mat2.__mul__"),
    ("lattice.mat_new", "lattice", "Mat2.__post_init__"),
    ("lattice.mobius_apply", "lattice", "mobius_apply"),
    ("exact.qi_floor", "exact", "qi_floor"),
] + [("exact.quadirr_arith", "exact", f"QuadIrr.{m}") for m in _ARITH]
COUNTERS = [
    ("forms.act", "forms", "act"),
    ("groupoid.hom_in_H", "groupoid", "hom_in_H"),
    ("lattice.mat_inv", "lattice", "Mat2.inv"),
    ("lattice.pmat_new", "lattice", "PMat.__post_init__"),
    ("exact.quadirr_new", "exact", "QuadIrr.__post_init__"),
]

# Results that feed the ratio metrics.
_RESULT_COUNTS = {
    "solver.residue_classes": lambda r: ("solver.residues", len(r)),
    "solver.solve_proper": lambda r: ("solver.classes", len(r.classes)),
    "forms.equivalent_sl": lambda r: ("forms.equivalent_sl.found", r is not None),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in sorted({name for name, _, _ in SPANS + LEAVES}):
        out += [f"{name}.calls", f"{name}.self_ms"]
    out += sorted({f"{name}.calls" for name, _, _ in COUNTERS})
    out += ["solver.residues", "solver.class_yield", "forms.equivalent_sl.found_ratio",
            "groupoid.orbit_cache.hits", "groupoid.orbit_cache.misses",
            "groupoid.orbit_cache.hit_ratio", "groupoid.orbit_cache.size_end",
            "trace.overhead_ratio"]
    return out


class Tracer:
    def __init__(self):
        self.qid = None
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # (name, start, end, parent span index or -1, query id, leaf seconds inside)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._leaf_self: Counter = Counter()

    # -- wrappers ------------------------------------------------------

    def _timed(self, name, fn, span):
        stack = self._stack
        on_result = _RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if self.qid is None:
                return fn(*args, **kwargs)
            frame = [-1, 0.0, 0.0]  # [span index, leaf child seconds, span child seconds]
            if span:
                frame[0] = len(self.spans)
                self.spans.append(None)
                parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.calls[name] += 1
                if span:
                    self.spans[frame[0]] = (name, t0, t1, parent, self.qid, frame[1])
                    if stack:
                        stack[-1][2] += t1 - t0
                else:
                    self._leaf_self[name] += t1 - t0 - frame[1] - frame[2]
                    if stack:
                        stack[-1][1] += t1 - t0
            if on_result is not None:
                key, n = on_result(result)
                self.counts[key] += n
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.qid is not None:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, prog) -> None:
        """Wrap every target that exists in ``prog``; missing ones read 0."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "quadform" or n.startswith("quadform."))]
        for kind, table in (("span", SPANS), ("leaf", LEAVES), ("count", COUNTERS)):
            for name, module, attr in table:
                mod = getattr(prog, module, None)
                cls_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, cls_name, None) if cls_name else mod
                if owner is None:
                    continue
                orig = (vars(owner).get(meth) if cls_name else getattr(owner, meth, None))
                if orig is None:
                    continue
                wrapper = (self._counted(name, orig) if kind == "count"
                           else self._timed(name, orig, kind == "span"))
                if cls_name:
                    setattr(owner, meth, wrapper)
                else:
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, key, wrapper)

    # -- results -------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Self time per name.  A span's is its duration minus its child
        spans' durations (found through their parent links) minus the leaf
        time directly inside it; a leaf's is accumulated as it runs."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter(self._leaf_self)
        for (name, t0, t1, _, _, leaf_s), child_s in zip(self.spans, child):
            out[name] += t1 - t0 - child_s - leaf_s
        return out

    def totals(self) -> dict:
        """Plain totals for one round, to be summed over rounds."""
        self_s = self.self_seconds()
        out = {f"{name}.calls": self.calls[name] for name in self.calls}
        out.update({f"{name}.self_s": s for name, s in self_s.items()})
        out.update(self.counts)
        return out

