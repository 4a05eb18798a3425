"""Outside-in span tracer for the levyedge layers.

The tracer wraps the public functions and methods listed in TARGETS and
records one span per call: metric key, parent span, start and end time,
time covered by child spans, and a work count. Nothing in ``src/`` is
changed; the wrappers are installed after ``import levyedge.cli``.

``cli``, ``sde`` and ``sampling`` import the hot functions by name, so a
wrapper must replace the original at every binding: every module global
of the ``levyedge`` package and every class attribute (aliases such as
``Polynomial.__radd__`` included) that refers to it. ``install`` does
that and returns the bindings it could not cover, which must be empty.

Spans stay in memory until ``summary`` folds them into per-key totals.
Each thread keeps its own parent stack.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import threading
import time
import types

#: (module, attribute path, metric key, work count taken from the result).
#: A method target also covers every override in a subclass.
TARGETS = [
    ("levyedge.cli", "main", "cli.main", None),
    ("levyedge.levy", "LevyMeasureSpec.sample_interval", "levy.sample_interval", "rows"),
    ("levyedge.levy", "LevyMeasureSpec.sample_radius", "levy.sample_radius", None),
    ("levyedge.levy", "AnnulusDecomposition.__init__", "levy.AnnulusDecomposition", None),
    ("levyedge.sampling", "sample_compound_poisson", "sampling.sample_compound_poisson", None),
    ("levyedge.sampling", "sample_small_jumps", "sampling.sample_small_jumps", None),
    ("levyedge.sampling", "sample_gaussian", "sampling.sample_gaussian", None),
    ("levyedge.sampling", "sym_sqrt", "sampling.sym_sqrt", None),
    ("levyedge.sampling", "RngStream.child", "sampling.RngStream.child", None),
    ("levyedge.wasserstein", "wp_empirical", "wasserstein.wp_empirical", None),
    ("levyedge.wasserstein", "wp_1d_exact", "wasserstein.wp_1d_exact", None),
    ("levyedge.wasserstein", "rate_fit", "wasserstein.rate_fit", None),
    ("levyedge.sde", "coupled_paths", "sde.coupled_paths", "steps"),
    ("levyedge.laws", "TestLaw.sample_sum", "laws.sample_sum", "rows"),
    ("levyedge.edgeworth", "build_P", "edgeworth.build_P", None),
    ("levyedge.edgeworth", "build_Q", "edgeworth.build_Q", None),
    ("levyedge.edgeworth", "edgeworth_signed_moments", "edgeworth.moment_check", None),
    ("levyedge.edgeworth", "scaled_sum_moments", "edgeworth.moment_check", None),
    ("levyedge.perturbation", "invert_S_map", "perturbation.invert_S_map", None),
    ("levyedge.perturbation", "compute_S_tilde", "perturbation.compute_S_tilde", None),
    ("levyedge.perturbation", "solve_hermite_pde", "perturbation.solve_hermite_pde", None),
    ("levyedge.polycore", "Polynomial.__mul__", "polycore.Polynomial.mul", None),
    ("levyedge.polycore", "Polynomial.__add__", "polycore.Polynomial.add", None),
]

#: the key whose spans carry jumps drawn; ancestors inherit the count
JUMP_KEY = "levy.sample_interval"


def _work(kind, result) -> int:
    if kind == "rows":
        return len(result)
    if kind == "steps":
        return result.exact.shape[1] - 1  # coarse steps of one coupled_paths call
    return 0


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.keys = []
        self.spans = []
        self._local = threading.local()

    def _key_id(self, key: str) -> int:
        if key not in self.keys:
            self.keys.append(key)
        return self.keys.index(key)

    def _wrap(self, fn, key: str, kind):
        key_id = self._key_id(key)
        spans, local, clock = self.spans, self._local, time.perf_counter_ns
        is_jump = key == JUMP_KEY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # [key, parent, start, end, child_ns, work, jumps]
            span = [key_id, stack[-1] if stack else None, clock(), 0, 0, 0, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if kind is not None:
                    span[5] = _work(kind, result)
                    if is_jump:
                        span[6] = span[5]
                return result
            finally:
                span[3] = clock()
                stack.pop()
                parent = span[1]
                if parent is not None:
                    parent[4] += span[3] - span[2]
                    parent[6] += span[6]

        return traced

    def install(self) -> list:
        """Wrap every target at every binding; return uncovered bindings."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for modname, path, key, kind in TARGETS:
            owner = sys.modules[modname]
            *cls_path, name = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            owners = [owner]
            if isinstance(owner, type):
                owners += [c for c in _subclasses(owner) if name in vars(c)]
            for o in owners:
                fn = vars(o)[name]
                if not isinstance(fn, types.FunctionType):
                    raise TypeError(f"{modname}.{path} is not a plain function")
                wrappers[id(fn)] = (fn, self._wrap(fn, key, kind))

        replaced = {i: 0 for i in wrappers}
        for ns_owner in _namespaces():
            for attr, value in list(vars(ns_owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns_owner, attr, hit[1])
                    replaced[id(value)] += 1

        problems = [
            f"{fn.__module__}.{fn.__qualname__}: no binding found"
            for i, (fn, _) in wrappers.items()
            if not replaced[i]
        ]
        # a reference the rebinding cannot reach (a table entry, a default
        # argument, a closure cell) would let calls bypass the tracer
        ours = {id(w) for _, w in wrappers.values()}
        for ns_owner in _namespaces():
            for attr, value in vars(ns_owner).items():
                if id(value) in ours:
                    continue
                for inner in _held(value):
                    hit = wrappers.get(id(inner))
                    if hit is not None and hit[0] is inner:
                        problems.append(f"{getattr(ns_owner, '__name__', ns_owner)}.{attr}: "
                                        f"holds unwrapped {inner.__qualname__}")
        return problems

    def summary(self) -> dict:
        """Per-key totals: calls, inclusive and self ns, work, per-call lists."""
        out = {}
        self_ns_total = 0
        for key_id, _parent, start, end, child_ns, work, jumps in self.spans:
            dur = end - start
            agg = out.setdefault(self.keys[key_id], _empty())
            agg["calls"] += 1
            agg["incl_ns"] += dur
            agg["self_ns"] += dur - child_ns
            agg["work"] += work
            agg["durations_ns"].append(dur)
            agg["jumps"].append(jumps)
            self_ns_total += dur - child_ns
        return {"keys": out, "self_ns_total": self_ns_total, "spans": len(self.spans)}


def _empty() -> dict:
    return {"calls": 0, "incl_ns": 0, "self_ns": 0, "work": 0, "durations_ns": [], "jumps": []}


def _held(value) -> list:
    """Objects one level inside a binding: container items, defaults, closure cells."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    if isinstance(value, types.FunctionType):
        cells = []
        for cell in value.__closure__ or ():
            try:
                cells.append(cell.cell_contents)
            except ValueError:  # a cell not yet filled
                pass
        return list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values()) + cells
    return []


def _namespaces():
    """Every module of the levyedge package and every class defined in one."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "levyedge" or n.startswith("levyedge."))]
    seen = set()
    for mod in mods:
        yield mod
        for value in list(vars(mod).values()):
            if (isinstance(value, type) and value.__module__.startswith("levyedge")
                    and id(value) not in seen):
                seen.add(id(value))
                yield value


# ------------------------------------------------------- per-layer metrics

def merge(summaries: list) -> dict:
    """Sum span summaries of several processes (the ops of one round)."""
    keys: dict = {}
    for s in summaries:
        for key, agg in s["keys"].items():
            into = keys.setdefault(key, _empty())
            for f in ("calls", "incl_ns", "self_ns", "work"):
                into[f] += agg[f]
            into["durations_ns"] += agg["durations_ns"]
            into["jumps"] += agg["jumps"]
    return {
        "keys": keys,
        "self_ns_total": sum(s["self_ns_total"] for s in summaries),
        "spans": sum(s["spans"] for s in summaries),
    }


def _nearest_rank(values, share):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


#: metric name -> (span key, statistic, unit)
LAYER_METRICS = {
    "levy.sample_interval.calls": ("levy.sample_interval", "calls", "count"),
    "levy.sample_interval.self_s": ("levy.sample_interval", "self_s", "s"),
    "levy.sample_interval.jumps": ("levy.sample_interval", "work", "count"),
    "levy.sample_interval.ns_per_jump": ("levy.sample_interval", "ns_per_work", "ns"),
    "levy.sample_radius.self_s": ("levy.sample_radius", "self_s", "s"),
    "levy.AnnulusDecomposition.calls": ("levy.AnnulusDecomposition", "calls", "count"),
    "levy.AnnulusDecomposition.self_s": ("levy.AnnulusDecomposition", "self_s", "s"),
    "sampling.sample_compound_poisson.calls": ("sampling.sample_compound_poisson", "calls", "count"),
    "sampling.sample_compound_poisson.self_s": ("sampling.sample_compound_poisson", "self_s", "s"),
    "sampling.sample_compound_poisson.jumps_per_call_p50":
        ("sampling.sample_compound_poisson", "jumps_p50", "count"),
    "sampling.sample_small_jumps.calls": ("sampling.sample_small_jumps", "calls", "count"),
    "sampling.sample_small_jumps.self_s": ("sampling.sample_small_jumps", "self_s", "s"),
    "sampling.sample_gaussian.calls": ("sampling.sample_gaussian", "calls", "count"),
    "sampling.sample_gaussian.self_s": ("sampling.sample_gaussian", "self_s", "s"),
    "sampling.sym_sqrt.calls": ("sampling.sym_sqrt", "calls", "count"),
    "sampling.RngStream.children": ("sampling.RngStream.child", "calls", "count"),
    "wasserstein.wp_empirical.calls": ("wasserstein.wp_empirical", "calls", "count"),
    "wasserstein.wp_empirical.self_s": ("wasserstein.wp_empirical", "self_s", "s"),
    "wasserstein.wp_empirical.call_p50_ms": ("wasserstein.wp_empirical", "p50_ms", "ms"),
    "wasserstein.wp_empirical.call_p90_ms": ("wasserstein.wp_empirical", "p90_ms", "ms"),
    "wasserstein.wp_1d_exact.calls": ("wasserstein.wp_1d_exact", "calls", "count"),
    "wasserstein.wp_1d_exact.self_s": ("wasserstein.wp_1d_exact", "self_s", "s"),
    "wasserstein.rate_fit.self_s": ("wasserstein.rate_fit", "self_s", "s"),
    "sde.coupled_paths.calls": ("sde.coupled_paths", "calls", "count"),
    "sde.coupled_paths.self_s": ("sde.coupled_paths", "self_s", "s"),
    "sde.coupled_paths.steps": ("sde.coupled_paths", "work", "count"),
    "laws.sample_sum.calls": ("laws.sample_sum", "calls", "count"),
    "laws.sample_sum.self_s": ("laws.sample_sum", "self_s", "s"),
    "laws.sample_sum.draws": ("laws.sample_sum", "work", "count"),
    "edgeworth.build_P.self_s": ("edgeworth.build_P", "self_s", "s"),
    "edgeworth.build_Q.self_s": ("edgeworth.build_Q", "self_s", "s"),
    "edgeworth.moment_check.self_s": ("edgeworth.moment_check", "self_s", "s"),
    "perturbation.invert_S_map.self_s": ("perturbation.invert_S_map", "self_s", "s"),
    "perturbation.compute_S_tilde.self_s": ("perturbation.compute_S_tilde", "self_s", "s"),
    "perturbation.solve_hermite_pde.calls": ("perturbation.solve_hermite_pde", "calls", "count"),
    "perturbation.solve_hermite_pde.self_s": ("perturbation.solve_hermite_pde", "self_s", "s"),
    "polycore.Polynomial.mul.calls": ("polycore.Polynomial.mul", "calls", "count"),
    "polycore.Polynomial.mul.self_s": ("polycore.Polynomial.mul", "self_s", "s"),
    "polycore.Polynomial.add.calls": ("polycore.Polynomial.add", "calls", "count"),
    "polycore.Polynomial.add.self_s": ("polycore.Polynomial.add", "self_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


def layer_metrics(merged: dict) -> dict:
    """Per-layer metric values ({name: (value, unit)}) from merged spans."""
    out = {}
    for name, (key, stat, unit) in LAYER_METRICS.items():
        agg = merged["keys"].get(key)
        if agg is None:
            value = 0
        elif stat == "calls":
            value = agg["calls"]
        elif stat == "work":
            value = agg["work"]
        elif stat == "self_s":
            value = agg["self_ns"] / 1e9
        elif stat == "ns_per_work":
            value = agg["incl_ns"] / agg["work"] if agg["work"] else 0.0
        elif stat == "jumps_p50":
            value = statistics.median(agg["jumps"])
        elif stat == "p50_ms":
            value = statistics.median(agg["durations_ns"]) / 1e6
        elif stat == "p90_ms":
            value = _nearest_rank(agg["durations_ns"], 0.9) / 1e6
        else:
            raise ValueError(stat)
        out[name] = (value, unit)
    return out
