"""Span and counter tracing installed from outside the library.

The tracer replaces public qhammock functions and ``LaurentPoly`` methods by
timing wrappers, so nothing under ``src/`` has to change.  A function is
replaced in every ``qhammock.*`` namespace that bound it (``from … import``
copies the reference), otherwise internal calls would escape the wrapper.
Names that a later version of the library no longer has are skipped.

Every wrapped call adds its self time (duration minus the time covered by
wrapped calls it made) to its layer, and counts one call.  Spans — name,
start, end, parent, item — are kept for the benchmark's own calls
and for the items around them; calls deeper in the library are only
aggregated, because the Laurent ring alone sees hundreds of thousands.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "laurent",
    "quiver",
    "repetition",
    "hammock",
    "objects",
    "complexes",
    "cluster",
    "qchar",
)

# every per-layer metric the traced run reports, with its unit
UNITS = {f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))}
UNITS.update(
    {
        "bench.self_s": "s",
        "cluster.seeds": "count",
        "cluster.mutations": "count",
        "laurent.mul_calls": "count",
        "laurent.exact_div_calls": "count",
        "complexes.builds": "count",
        "complexes.build_hit_ratio": "ratio",
        "complexes.summands": "count",
        "hammock.qfun_equal_calls": "count",
        "repetition.section_calls": "count",
        "objects.tensor_calls": "count",
        "objects.pow_copies": "count",
        "qchar.recursion_s": "s",
        "qchar.extremal_s": "s",
        "qchar.terms": "count",
        "trace.overhead_ratio": "ratio",
    }
)

# functions wrapped in every namespace that bound them, per layer
FUNCTIONS = {
    "quiver": ("positive_roots", "default_height", "beta_combinatorics"),
    "repetition": ("section_through", "window_vertices"),
    "hammock": ("qfun_equal", "qfun_defect", "qfun_window", "hom_values", "dim_hom"),
    "objects": (
        "tensor_obj",
        "obj_pow",
        "leading_object",
        "root_of_dominant",
        "is_iso",
        "serre_tilt",
        "hammock_object",
        "ghost_object",
        "kr_object",
        "absorb_frontier",
        "frontier_injection_factor",
        "tilt_leading",
        "reconstruct_factorization",
        "factor_dominant",
    ),
    "complexes": (
        "build_complex",
        "tensor_complex",
        "cone",
        "shift",
        "euler_char",
        "verify_d_squared",
        "validate_components",
    ),
    "cluster": (
        "initial_seed",
        "mutate",
        "exchange_binomial",
        "enumerate_seeds",
        "enumerate_cluster_variables",
    ),
    "qchar": (
        "qchar_euler",
        "qchar_recursion",
        "qchar_cluster",
        "extremal_monomials",
        "nakajima_leq",
        "dominant_monomial",
        "variable_A",
    ),
}

# methods wrapped on their class: layer -> (class, methods)
METHODS = {"laurent": ("LaurentPoly", ("__mul__", "__rmul__", "exact_div", "substitute"))}

# functions whose inclusive time (outermost call only) is reported
INCLUSIVE = {"qchar.qchar_recursion": "qchar.recursion_s", "qchar.extremal_monomials": "qchar.extremal_s"}


class Tracer:
    """Collects per-layer self time, call counts, traffic counts and spans."""

    def __init__(self) -> None:
        # a frame is [time covered by wrapped children, span index or None,
        # whether calls made from it are the benchmark's own]
        self.stack: list[list] = [[0.0, None, True]]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.depth: Counter = Counter()
        self.spans: list[tuple] = []
        self.item = None
        self.item_self_s = 0.0
        self.seen_builds: set = set()
        self._restore: list[tuple] = []

    # -- spans around items ------------------------------------------

    @contextlib.contextmanager
    def item_span(self, item):
        """Open the span of one verified item; its self time is the benchmark's own time."""
        parent = self.stack[-1]
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index, True]
        self.stack.append(frame)
        self.item = item
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.item = None
            parent[0] += t1 - t0
            self.item_self_s += (t1 - t0) - frame[0]
            self.spans[index] = ("item", t0, t1, parent[1], item)

    # -- wrappers ----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        observe = _OBSERVERS.get(name)
        inclusive = INCLUSIVE.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            index = None
            if parent[2]:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, index, False]
            stack.append(frame)
            if inclusive:
                tracer.depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                tracer.self_s[layer] += dur - frame[0]
                tracer.calls[layer] += 1
                if inclusive:
                    tracer.depth[name] -= 1
                    if not tracer.depth[name]:
                        tracer.inclusive[inclusive] += dur
                if index is not None:
                    tracer.spans[index] = (name, t0, t1, parent[1], tracer.item)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every listed name that the loaded library defines."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qhammock" or n.startswith("qhammock."))
        ]
        for layer, names in FUNCTIONS.items():
            home = sys.modules.get(f"qhammock.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, f"{layer}.{fname}", layer)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        for layer, (cname, names) in METHODS.items():
            cls = getattr(sys.modules.get(f"qhammock.{layer}"), cname, None)
            for mname in names:
                original = vars(cls).get(mname) if cls is not None else None
                if original is None:
                    continue
                self._restore.append((cls, mname, original))
                setattr(cls, mname, self._wrap(original, f"{layer}.{mname}", layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics; ``bench.self_s`` is the wall time no layer covers."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out["bench.self_s"] = wall_s - sum(self.self_s.values())
        for name, unit in UNITS.items():
            if unit == "count" and name not in out:
                out[name] = self.counts[name]
        builds = self.counts["complexes.builds"]
        out["complexes.build_hit_ratio"] = (
            self.counts["complexes.build_repeats"] / builds if builds else 0.0
        )
        out["qchar.recursion_s"] = self.inclusive["qchar.recursion_s"]
        out["qchar.extremal_s"] = self.inclusive["qchar.extremal_s"]
        return out

    def span_rows(self) -> list[list]:
        """Spans as [index, name, start, end, parent index, item]."""
        return [[i, *s] for i, s in enumerate(self.spans)]


# -- traffic counters, keyed by wrapped name ------------------------------


def _count(key: str):
    def observe(tracer, args, kwargs, result):
        tracer.counts[key] += 1

    return observe


def _observe_seeds(tracer, args, kwargs, result):
    tracer.counts["cluster.seeds"] += len(result)


def _observe_pow(tracer, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs.get("n", 0)
    tracer.counts["objects.pow_copies"] += n


def _observe_build(tracer, args, kwargs, result):
    q, xi, beta = args[:3]
    pivot = args[3] if len(args) > 3 else kwargs.get("pivot")
    key = (q, xi, tuple(beta), pivot)
    tracer.counts["complexes.builds"] += 1
    if key in tracer.seen_builds:
        tracer.counts["complexes.build_repeats"] += 1
    else:
        tracer.seen_builds.add(key)
    tracer.counts["complexes.summands"] += result.num.summand_count()


_OBSERVERS = {
    "laurent.__mul__": _count("laurent.mul_calls"),
    "laurent.__rmul__": _count("laurent.mul_calls"),
    "laurent.exact_div": _count("laurent.exact_div_calls"),
    "cluster.mutate": _count("cluster.mutations"),
    "cluster.enumerate_seeds": _observe_seeds,
    "complexes.build_complex": _observe_build,
    "hammock.qfun_equal": _count("hammock.qfun_equal_calls"),
    "repetition.section_through": _count("repetition.section_calls"),
    "objects.tensor_obj": _count("objects.tensor_calls"),
    "objects.obj_pow": _observe_pow,
}
