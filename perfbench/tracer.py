"""Outside-in tracing of the pmzs layers, and the per-layer metrics built from it.

``install`` wraps, from outside the library, every public function of each
layer module wherever a pmzs module bound it by name (``from .x import y``
copies the binding, so patching only the defining module would miss most
calls), plus the methods listed in ``METHODS``.  Each wrapped call records a
span ``(name, start, end, parent, hot_s)`` in memory; ``Trace.dump`` returns
them for writing out when the operation ends.

Functions in ``AGGREGATED`` run hundreds of thousands of times per operation,
so they are counted and timed in aggregate instead of spanned.  They may call
each other but no spanned function; their time is removed from the enclosing
span's self time (``hot_s``) and their self time is charged to their own
layer, as a span's would be.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import defaultdict

LAYERS = ("cli", "notation", "suite", "delta_star", "relations", "atoms", "groups", "sequences")

AGGREGATED = frozenset({
    "groups.signed_shift_mask",
    "groups.fold_negatives",
    "sequences.Sequence.is_pm_zero_sum",
    "relations.suffix_factorizations",
})

# shift_mask is the inner loop of signed_shift_mask (itself aggregated) and of
# the zero-sum-free search; timing it too would count the shift DP twice.
UNWRAPPED = frozenset({"groups.shift_mask"})

FACTORIZER_METHODS = ("factorizations", "length_set", "max_length", "max_length_of_vector")
METHODS = (
    ("relations", "Factorizer", FACTORIZER_METHODS),
    ("atoms", "AtomCache", ("load", "store")),
    ("sequences", "Sequence", ("is_pm_zero_sum",)),
)


class Trace:
    """Spans and aggregate timers of one traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.hot_in: list[float] = []
        self.agg_stack: list[float] = []
        self.aggregates: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._observers = {
            "atoms.AtomCache.load": self._observe_load,
            "atoms.enumerate_atoms": self._observe_enumerate,
            "groups.automorphisms": self._observe_automorphisms,
            "delta_star.delta_star": self._observe_delta_star,
            "relations.integer_kernel_basis": self._observe_kernel,
        }

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span_wrapper(self, name: str, fn):
        spans, stack, hot_in = self.spans, self.stack, self.hot_in
        observe = self._observers.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            hot_in.append(0.0)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = dict(self.counters) if observe else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, hot_in[idx])
            if observe:
                observe(args, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate_wrapper(self, name: str, fn):
        stack, hot_in, agg_stack = self.stack, self.hot_in, self.agg_stack
        slot = self.aggregates.setdefault(name, [0, 0.0, 0.0])  # calls, inclusive s, self s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            agg_stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = agg_stack.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - inner
                if agg_stack:
                    agg_stack[-1] += elapsed
                elif stack:
                    hot_in[stack[-1]] += elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, name: str, fn):
        if name in AGGREGATED:
            return self.aggregate_wrapper(name, fn)
        return self.span_wrapper(name, fn)

    # -- observers: exact counts read off arguments and results ------------------

    def _observe_load(self, args, result, before):
        if result is not None:
            self.count("atoms.cache.hits")

    def _observe_enumerate(self, args, result, before):
        if self.counters.get("atoms.cache.hits", 0) == before.get("atoms.cache.hits", 0):
            self.count("atoms.atoms_found", len(result))

    def _observe_automorphisms(self, args, result, before):
        self.count("groups.automorphisms.count", len(result))

    def _observe_delta_star(self, args, result, before):
        self.count("delta_star.table_rows", len(result.table))

    def _observe_kernel(self, args, result, before):
        matrix = args[0]
        cols = len(matrix[0]) if len(matrix) else 0
        self.counters["relations.integer_kernel_basis.max_cols"] = max(
            cols, self.counters.get("relations.integer_kernel_basis.max_cols", 0)
        )

    def dump(self) -> dict:
        return {"spans": self.spans, "aggregates": self.aggregates, "counters": self.counters}


def _suffix_timer(trace: Trace, init):
    """Wrap Factorizer.__init__ so each instance's memoized factorization
    search (a closure, reachable only as ``_suffixes``) is timed too."""

    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if hasattr(self, "_suffixes"):
            self._suffixes = trace.aggregate_wrapper("relations.suffix_factorizations", self._suffixes)

    return wrapper


def install(trace: Trace) -> None:
    """Wrap the public functions and listed methods of every layer module."""
    import pmzs

    modules = [pmzs] + [
        importlib.import_module(f"pmzs.{info.name}") for info in pkgutil.iter_modules(pmzs.__path__)
    ]
    by_name = {m.__name__: m for m in modules}
    replaced: dict[int, tuple] = {}
    for layer in LAYERS:
        module = by_name[f"pmzs.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in UNWRAPPED:
                replaced[id(obj)] = (obj, trace.wrap(name, obj))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    for layer, cls_name, methods in METHODS:
        cls = getattr(by_name[f"pmzs.{layer}"], cls_name)
        for method in methods:
            setattr(cls, method, trace.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
    factorizer = by_name["pmzs.relations"].Factorizer
    factorizer.__init__ = _suffix_timer(trace, factorizer.__init__)


# -- per-layer metrics ---------------------------------------------------------------

# Groups of spans whose inclusive time and call count a metric reports.
_SPAN_GROUPS = {
    "atoms.enumerate_atoms": ("atoms.enumerate_atoms",),
    "atoms.davenport_monoid": ("atoms.davenport_monoid",),
    "atoms.cache.load": ("atoms.AtomCache.load",),
    "atoms.cache.store": ("atoms.AtomCache.store",),
    "delta_star.subset_orbits": ("delta_star.subset_orbits",),
    "delta_star.canonical_subset": ("delta_star.canonical_subset",),
    "groups.automorphisms": ("groups.automorphisms",),
    "groups.davenport": ("groups.davenport",),
    "groups.subgroup_generated": ("groups.subgroup_generated",),
    "relations.min_delta": ("relations.min_delta",),
    "relations.integer_kernel_basis": ("relations.integer_kernel_basis",),
    "relations.factorizer": tuple(f"relations.Factorizer.{m}" for m in FACTORIZER_METHODS),
    "relations.rho_k": ("relations.rho_k",),
    "suite.run_suite": ("suite.run_suite",),
    "cli.main": ("cli.main",),
}

# counters that the observers of ``Trace`` fill in
COUNTERS = (
    "atoms.atoms_found",
    "atoms.cache.hits",
    "groups.automorphisms.count",
    "delta_star.table_rows",
    "relations.integer_kernel_basis.max_cols",
)

_AGGREGATE_METRICS = {
    "atoms.signed_shift": "groups.signed_shift_mask",
    "groups.fold_negatives": "groups.fold_negatives",
    "sequences.is_pm_zero_sum": "sequences.Sequence.is_pm_zero_sum",
    "relations.suffix_factorizations": "relations.suffix_factorizations",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced operations whose dumps are given,
    by metric name, including some that BENCHMARK.json does not report.

    ``.s`` of a span group is inclusive time, counting a call nested in
    another call of the same group once; ``self_s`` of a layer is the time of
    its spans minus the time of their child spans and aggregated calls, plus
    the self time of its own aggregated functions.
    """
    totals: defaultdict[str, float] = defaultdict(int)
    # every metric this function can produce is present, even where it reads 0
    for group in _SPAN_GROUPS:
        totals[f"{group}.calls"], totals[f"{group}.s"] = 0, 0.0
    for metric in _AGGREGATE_METRICS:
        totals[f"{metric}.calls"], totals[f"{metric}.s"] = 0, 0.0
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = 0.0
    for key in COUNTERS:
        totals[key] = 0
    group_of = {span: group for group, spans in _SPAN_GROUPS.items() for span in spans}
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, hot in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, hot) in enumerate(spans):
            totals[f"{_layer(name)}.self_s"] += (end - start) - child_time[i] - hot
            group = group_of.get(name)
            if group is None:
                continue
            totals[f"{group}.calls"] += 1
            ancestor = parent
            while ancestor >= 0 and group_of.get(spans[ancestor][0]) != group:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                totals[f"{group}.s"] += end - start
        for name, (calls, seconds, self_seconds) in dump["aggregates"].items():
            totals[f"{_layer(name)}.self_s"] += self_seconds
        for metric, name in _AGGREGATE_METRICS.items():
            calls, seconds, _ = dump["aggregates"].get(name, (0, 0.0, 0.0))
            totals[f"{metric}.calls"] += calls
            totals[f"{metric}.s"] += seconds
        for key, value in dump["counters"].items():
            if key.endswith(".max_cols"):
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    loads = totals["atoms.cache.load.calls"]
    totals["atoms.cache.hit_ratio"] = totals.pop("atoms.cache.hits") / loads if loads else 0.0
    return dict(totals)
