"""Per-layer tracing from outside the program.

Every public function of the seven layer modules, and every public static
constructor of their classes, is replaced by a wrapper that records a span
(id, parent span, call id, name, start, end) in memory.  The wrapper is
installed in every ``ckstab`` namespace that binds the function, because
``from .filtration import sum_filtration`` gives ``stability`` its own
reference that patching ``filtration`` alone would miss.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "toric", "filtration", "optimize", "stability",
          "serialize", "cli")

# Functions whose calls and self time are reported as per-layer metrics.
REPORTED = {
    "geometry": ("from_vertices", "from_halfspaces", "minkowski_sum", "centroid",
                 "lattice_points", "support_value", "cone_from_facets",
                 "restrict_min_support"),
    "toric": ("build_model", "section_basis", "support_min", "log_discrepancy",
              "s_invariant", "theta_twist", "monomial_lct"),
    "filtration": ("graded_basis", "valuation_filtration", "shift", "twist",
                   "base_change", "approximate", "numerics", "sum_filtration"),
    "optimize": ("lp_solve", "minimize_convex_pl", "minimize_pl_ratio",
                 "dinkelbach_ratio_min"),
    "stability": ("coupled_futaki", "coupled_delta", "coupled_ding",
                  "reduced_coupled_j", "reduced_coupled_delta",
                  "find_destabilizer", "identity_suite"),
    "serialize": ("load_model", "canonical_json"),
    "cli": ("main",),
}

# Element-wise vector helpers cost less per call than a span does; their
# time stays with the caller.
UNWRAPPED = {"vec", "as_vec", "vadd", "vsub", "vneg", "vscale", "vdot",
             "is_zero_vec"}


def _maxplus_pairs(counts, args, kwargs, result):
    # Counted after the span closes, so the counting costs the caller's self
    # time; the fold keeps only sizes, and every model in the workloads has
    # two summands, so no partial table is built.
    fam = args[0] if args else kwargs["fam"]
    for m in fam.degrees:
        rows = [f.weights[m].keys() for f in fam.members]
        acc = rows[0]
        for k, row in enumerate(rows[1:], 2):
            counts["filtration.sum_filtration.maxplus_pairs"] += len(acc) * len(row)
            if k < len(rows):
                acc = {tuple(p + q for p, q in zip(a, b)) for a in acc for b in row}


def _lp_rows(counts, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    counts["optimize.lp_solve.rows"] += len(lp.constraints)


def _points_in(counts, args, kwargs, result):
    counts["geometry.from_vertices.points_in"] += len(args[0] if args else kwargs["points"])


def _points_out(counts, args, kwargs, result):
    counts["geometry.lattice_points.points_out"] += len(result)


COUNTERS = {
    "filtration.sum_filtration": _maxplus_pairs,
    "optimize.lp_solve": _lp_rows,
    "geometry.from_vertices": _points_in,
    "geometry.lattice_points": _points_out,
}
COUNTER_NAMES = ("geometry.from_vertices.points_in",
                 "geometry.lattice_points.points_out",
                 "filtration.sum_filtration.maxplus_pairs",
                 "optimize.lp_solve.rows")


def _targets():
    """(span name, owner, attribute, function) for every wrapped callable;
    owner is a class for static constructors, else None."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"ckstab.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or attr in UNWRAPPED:
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", None, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, raw in vars(obj).items():
                    if isinstance(raw, staticmethod) and not cattr.startswith("_"):
                        out.append((f"{layer}.{cattr}", obj, cattr, raw.__func__))
    names = [t[0] for t in out]
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        raise RuntimeError(f"span names bound twice: {sorted(dup)}")
    return out


class Tracer:
    """Install with ``with tracer:``; set ``tracer.call_id`` before each
    top-level call.  It can be installed again; the spans accumulate."""

    def __init__(self):
        self.spans: list[list] = []   # [span id, parent id, call id, name, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.call_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, tracer.call_id, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ckstab" or n.startswith("ckstab."))]
        for name, owner, attr, fn in _targets():
            wrapper = self._wrap(name, fn)
            if owner is not None:
                self._undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, staticmethod(wrapper))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tcall\tname\tstart_s\tend_s\n")
            for sid, parent, call, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{call}\t{name}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer}.self_share")
        for fn in REPORTED[layer]:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    names += list(COUNTER_NAMES)
    names += ["filtration.graded_basis.hit_ratio", "stability.identity_suite.cases",
              "trace.overhead", "memory.basis_cache_entries",
              "memory.rss_growth_mb"]
    return names


def summarize(tracer: Tracer) -> dict[str, float]:
    """Calls, self times, layer shares and counters from the recorded spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    section_parents = set()
    for sid, parent, _call, name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
            if name == "toric.section_basis":
                section_parents.add(parent)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    top = 0.0
    gb_calls = gb_hits = 0
    for sid, parent, _call, name, start, end in spans:
        own = (end - start) - child[sid]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            top += end - start
        if name == "filtration.graded_basis":
            gb_calls += 1
            gb_hits += sid not in section_parents
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / top if top else 0.0
        for fn in REPORTED[layer]:
            out[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"]
            out[f"{layer}.{fn}.self_s"] = self_s[f"{layer}.{fn}"]
    for name in COUNTER_NAMES:
        out[name] = tracer.counts[name]
    out["filtration.graded_basis.hit_ratio"] = gb_hits / gb_calls if gb_calls else 0.0
    return out
