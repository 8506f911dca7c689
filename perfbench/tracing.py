"""Span tracing around gcurv's public entry points, installed from outside.

The tracer rebinds each traced function in every loaded ``gcurv`` module
namespace that holds it, so calls made from ``verify.py``, ``classify.py``
and calls between functions of one module are all caught.  Spans live in
memory as ``[metric, start, end, parent]`` rows and are summarised (or
written out) after the pass; ``uninstall`` restores every original binding.
Span times come from the clock the tracer is given, so the runner can hand
it one that stands still while a host probe runs.

Hot helpers (``ball``, ``sphere``, ``Graph.adjacent``) are never wrapped.
"""

import functools
import json
import sys
from collections import Counter
from time import perf_counter

WRAPPER_MARK = "_perfbench_original"

# Per-layer metrics; time metrics are reported as "<name>_s" in self seconds.
TIME_METRICS = (
    "graphs.distances", "graphs.isomorphism", "graphs.parse", "families.build",
    "ollivier.edge_lp", "ollivier.longrange_lp", "ollivier.replay",
    "ollivier.oracle", "reflective.reflections", "reflective.orbit",
    "factorization.factorize", "spectral.eigen", "spectral.distance_regular",
    "bakry_emery.forms", "bakry_emery.curvature", "bakry_emery.bound",
    "classify.self", "classify.json", "verify.checks_self",
)
COUNT_METRICS = (
    "ollivier.edge_lp_solves", "ollivier.longrange_lp_solves",
    "ollivier.lp_requests", "ollivier.lp_support_sum", "ollivier.replay_calls",
    "ollivier.oracle_calls", "reflective.reflection_attempts",
    "factorization.factors", "spectral.eigen_calls",
    "bakry_emery.form_vars_sum", "verify.checks_run", "verify.checks_failed",
)
RATIO_METRICS = (
    "ollivier.lp_hit_ratio", "reflective.reflection_found_ratio",
)


def unit_of(metric):
    if metric in COUNT_METRICS:
        return "count"
    return "ratio" if metric in RATIO_METRICS or metric.endswith("_ratio") else "s"


def _gcurv_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gcurv" or name.startswith("gcurv."))]


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # --- wrappers ---

    def _span(self, metric, fn, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = metric(args) if callable(metric) else metric
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(args, result, rec)
            return result

        setattr(wrapper, WRAPPER_MARK, fn)
        return wrapper

    def _first_distances(self, fn):
        """Span only the call that computes a graph's distance matrix."""
        traced = self._span("graphs.distances", fn)

        @functools.wraps(fn)
        def dist_rows(graph):
            return graph._dist if graph._dist is not None else traced(graph)

        setattr(dist_rows, WRAPPER_MARK, fn)
        return dist_rows

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPER_MARK, fn)
        return wrapper

    def _rebind(self, module, attr, make, everywhere=True):
        original = getattr(module, attr)
        wrapper = make(original)
        owners = _gcurv_modules() if everywhere else [module]
        for mod in owners:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _rebind_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def _inside(self, metric):
        return any(self.spans[i][0] == metric for i in self._stack)

    # --- install / uninstall ---

    def install(self, gc):
        """Wrap the layer entry points; ``gc`` holds the gcurv modules by name."""
        counts = self.counts
        span = self._span

        def tally(key):
            return lambda args, result, rec: counts.update((key,))

        def count_solve(args, result, rec):
            counts[rec[0] + "_solves"] += 1
            counts["ollivier.lp_support_sum"] += len(args[1].support)

        def count_form(args, result, rec):
            counts["bakry_emery.form_vars_sum"] += len(result.support)

        def count_factors(args, result, rec):
            if not self._inside("factorization.factorize"):
                counts["factorization.factors"] += len(result)

        def count_found(fn):
            # a search ran inside this call iff candidate_reflection was called
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = counts["reflective.reflection_attempts"]
                result = fn(*args, **kwargs)
                if (counts["reflective.reflection_attempts"] > before
                        and result.reflection is not None):
                    counts["reflective.reflections_found"] += 1
                return result
            return wrapper

        self._rebind_method(gc.graphs.Graph, "dist_rows", self._first_distances)
        self._rebind(gc.graphs, "are_isomorphic", lambda f: span("graphs.isomorphism", f))
        self._rebind(gc.graphs, "parse_edge_list", lambda f: span("graphs.parse", f))

        self._rebind(gc.families, "parse_family", lambda f: span("families.build", f))
        self._rebind_method(gc.families.FamilySpec, "build",
                            lambda f: span("families.build", f))
        for name in ("complete_graph", "cycle", "path_graph", "complete_bipartite",
                     "cocktail_party", "johnson", "halved_cube", "schlafli",
                     "gosset", "cartesian_product", "hamming", "hypercube"):
            self._rebind(gc.families, name, lambda f: span("families.build", f))

        self._rebind(gc.ollivier, "solve_lipschitz_lp", lambda f: span(
            lambda a: "ollivier.edge_lp" if a[1].gap == 1 else "ollivier.longrange_lp",
            f, after=count_solve))
        for name in ("edge_curvature", "long_range_curvature"):
            self._rebind(gc.ollivier, name,
                         lambda f: self._counter("ollivier.lp_requests", f))
        self._rebind(gc.ollivier, "verify_optimality_certificate", lambda f: span(
            "ollivier.replay", f, after=tally("ollivier.replay_calls")))
        self._rebind(gc.ollivier, "brute_force_curvature_oracle", lambda f: span(
            "ollivier.oracle", f, after=tally("ollivier.oracle_calls")))

        # candidate_reflection runs once per uncached reflection search
        self._rebind(gc.reflective, "candidate_reflection",
                     lambda f: self._counter("reflective.reflection_attempts", f))
        self._rebind(gc.reflective, "find_reflection",
                     lambda f: count_found(span("reflective.reflections", f)))
        self._rebind(gc.reflective, "is_reflective",
                     lambda f: span("reflective.reflections", f))
        self._rebind(gc.reflective, "pair_orbit_certificate",
                     lambda f: span("reflective.orbit", f))

        self._rebind(gc.factorization, "factorize", lambda f: span(
            "factorization.factorize", f, after=count_factors))

        for name in ("laplacian_spectrum", "adjacency_spectrum"):
            self._rebind(gc.spectral, name, lambda f: span("spectral.eigen", f))
        # Only the spectral module's own binding: a Jacobi run started there is
        # a spectrum cache miss, while bakry_emery's eigen step stays its own.
        self._rebind(gc.spectral, "_jacobi_eigenvalues",
                     lambda f: self._counter("spectral.eigen_calls", f),
                     everywhere=False)
        for name in ("is_distance_regular", "is_lichnerowicz_sharp"):
            self._rebind(gc.spectral, name, lambda f: span("spectral.distance_regular", f))

        for name in ("gamma_form", "gamma2_form"):
            self._rebind(gc.bakry_emery, name,
                         lambda f: span("bakry_emery.forms", f, after=count_form))
        for name in ("bakry_emery_curvature", "curvature_from_forms"):
            self._rebind(gc.bakry_emery, name, lambda f: span("bakry_emery.curvature", f))
        for name in ("be_effective_bound_report", "be_rigidity_check"):
            self._rebind(gc.bakry_emery, name, lambda f: span("bakry_emery.bound", f))

        for name in ("classify", "identify_family"):
            self._rebind(gc.classify, name, lambda f: span("classify.self", f))
        self._rebind(gc.classify, "report_to_json", lambda f: span("classify.json", f))

    def wrap(self, metric, fn):
        """A span around a benchmark-side call, such as the verify entry point."""
        return self._span(metric, fn)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results ---

    def self_times(self):
        """Seconds per metric, each span's duration minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def summary(self):
        """Per-layer metrics of one traced pass, keyed by their BENCHMARK names."""
        out = {f"{name}_s": value for name, value in self.self_times().items()}
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        solves = out["ollivier.edge_lp_solves"] + out["ollivier.longrange_lp_solves"]
        requests = out["ollivier.lp_requests"]
        out["ollivier.lp_hit_ratio"] = 1 - solves / requests if requests else 0.0
        attempts = out["reflective.reflection_attempts"]
        found = self.counts["reflective.reflections_found"]
        out["reflective.reflection_found_ratio"] = found / attempts if attempts else 0.0
        return out

    def write(self, path):
        """Write every span, with its parent index, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["metric", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def wrapped_names():
    """(module, name) of every gcurv binding that still holds a span wrapper."""
    found = []
    for mod in _gcurv_modules():
        for name, value in vars(mod).items():
            if hasattr(value, WRAPPER_MARK):
                found.append((mod.__name__, name))
            elif isinstance(value, type):
                found += [(f"{mod.__name__}.{name}", attr)
                          for attr, member in vars(value).items()
                          if hasattr(member, WRAPPER_MARK)]
    return found
