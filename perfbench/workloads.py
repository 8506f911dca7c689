"""Inputs, layer sequences and output checks of the three benchmark workloads.

Every workload is a pass of fixed work that the runner repeats on freshly
built graphs.  A pass reports two timed regions, ``wall`` (the workload's
main work) and ``classify`` (a cold ``classify`` + ``report_to_json`` on a
fresh copy of every input, which is what ``gcurv classify`` costs), and its
outputs, which are checked against invariants and, where a record exists,
against the reference outputs of the seed commit.
"""

import contextlib
import importlib
import io
import json
import math
import os
import random
import sys
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = os.path.join(HERE, ".work")
FLOAT_TOL = 1e-6

GCURV_MODULES = ("errors", "graphs", "families", "ollivier", "reflective",
                 "factorization", "spectral", "bakry_emery", "classify",
                 "verify", "cli")


def load_gcurv():
    """Import gcurv from scratch, so no module state survives from a past pass.

    Returns a namespace of its modules (the package itself rebinds the name
    ``classify`` to the function).
    """
    for name in [m for m in sys.modules if m == "gcurv" or m.startswith("gcurv.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"gcurv.{name}") for name in GCURV_MODULES})


class OpFailed(Exception):
    """An operation crashed; the rest of its input's sequence is skipped."""


class Ops:
    """Counts attempted and failed operations of one pass.

    A documented ``GcurvError`` outcome is a result.  ``InternalCheckError``,
    any other exception, or a wrong output is a failed operation.
    """

    def __init__(self, gc):
        self.documented = gc.errors.GcurvError
        self.internal = gc.errors.InternalCheckError
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except self.internal as exc:
            self.wrong(f"{fn.__name__}: InternalCheckError: {exc}")
            raise OpFailed from exc
        except self.documented as exc:
            return exc
        except Exception as exc:  # any crash is a failed operation, not a benchmark crash
            self.wrong(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            raise OpFailed from exc

    def wrong(self, message):
        self.failed += 1
        self.failures.append(message)


def plain(value):
    """JSON-ready form of an output: Fractions as text, tuples as lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, BaseException):
        return f"error:{type(value).__name__}"
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    return value


def pair_index(n, x, y):
    """Position of the pair x < y in lexicographic order over all pairs."""
    return x * n - x * (x + 1) // 2 + (y - x - 1)


def same(expected, actual):
    """Exact equality, except floats, which agree within FLOAT_TOL."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and abs(expected - actual) <= FLOAT_TOL)
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(map(same, expected, actual))
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(
            same(expected[k], actual[k]) for k in expected)
    return expected == actual


# --- the analyze layer sequence ---

class Picks:
    """Seeded samples of one input: non-adjacent pairs, edges and vertices."""

    def __init__(self, pairs, edges, vertices):
        self.pairs, self.edges, self.vertices = pairs, edges, vertices

    @classmethod
    def sample(cls, g, rng, caps):
        pair_cap, edge_cap, vertex_cap = caps
        far = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)
               if not g.adjacent(x, y)]
        return cls(sorted(rng.sample(far, min(pair_cap, len(far)))),
                   sorted(rng.sample(list(g.edges), min(edge_cap, g.m))),
                   sorted(rng.sample(range(g.n), min(vertex_cap, g.n))))


EVERYTHING = (math.inf, math.inf, math.inf)


def analyze_graph(gc, g, picks, ops):
    """The fixed layer sequence on one fresh graph; returns its output record.

    Each step fills the caches of the layer that owns it, so in a traced pass
    the work is charged to that layer.  Vertex curvature is computed only at
    the picked vertices, so ``be_effective_bound_report`` (which needs every
    vertex) runs in the verify workload only.
    """
    ol, refl, bk = gc.ollivier, gc.reflective, gc.bakry_emery
    rec = {"n": g.n, "m": g.m}
    ops.call(g.dist_rows)
    rec["diam_eff"] = ops.call(gc.graphs.effective_diameter, g)
    mec = ops.call(ol.min_edge_curvature, g)
    rec["kappa_min"] = [mec.value, mec.is_constant, mec.min_edge, mec.other_edge]
    kappa = {}
    for (x, y) in picks.pairs:
        ops.call(ol.long_range_curvature, g, x, y)
    for (x, y), get in ([(e, ol.edge_curvature) for e in picks.edges]
                        + [(p, ol.long_range_curvature) for p in picks.pairs]):
        cv = ops.call(get, g, x, y)
        kappa[pair_index(g.n, x, y)] = cv.value
        if ops.call(ol.verify_optimality_certificate, g, cv) is not True:
            ops.wrong(f"certificate of ({x}, {y}) does not replay")
    rec["kappa"] = kappa
    verdict = ops.call(refl.is_reflective, g)
    rec["reflective"] = [verdict.reflective, verdict.counterexample]
    lc = ops.call(gc.graphs.is_locally_connected, g)[0]
    rec["orbit"] = (ops.call(refl.pair_orbit_certificate, g)
                    if verdict.reflective and lc else None)
    rec["factors"] = [[f.n, f.edges] for f in ops.call(gc.factorization.factorize, g)]
    rec["laplacian"] = list(ops.call(gc.spectral.laplacian_spectrum, g).values)
    rec["adjacency"] = list(ops.call(gc.spectral.adjacency_spectrum, g).values)
    dr = ops.call(gc.spectral.is_distance_regular, g).array
    rec["distance_regular"] = None if dr is None else [dr.b, dr.c]
    rec["be"] = {x: ops.call(bk.bakry_emery_curvature, g, x) for x in picks.vertices}
    rec["classify"] = classify_json(gc, g, ops)
    return plain(rec)


def classify_json(gc, g, ops):
    report = ops.call(gc.classify.classify, g)
    text = ops.call(gc.classify.report_to_json, report)
    for name, verdict in report.theorem_verdicts.items():
        if not verdict.passed:
            ops.wrong(f"theorem verdict {name} failed: {verdict.witness}")
    return text


def per_input(ops, name, fn, *args):
    """fn(*args), or None once one of its operations failed."""
    try:
        return fn(*args)
    except OpFailed:
        return None
    except Exception as exc:  # e.g. a GcurvError outcome where a later step needs a value
        ops.wrong(f"{name}: {type(exc).__name__}: {exc}")
        return None


def classify_round(gc, graphs, ops, clock):
    """Cold classify of every graph; returns (texts, clock region)."""
    begin = clock.mark()
    texts = [per_input(ops, g, classify_json, gc, g, ops) for g in graphs]
    return texts, clock.region(begin, clock.mark())


def check_record(rec, ref):
    """Mismatches of one input's record against its reference record."""
    bad = []
    for key in ("n", "m", "diam_eff", "kappa_min", "reflective", "orbit", "factors",
                "laplacian", "adjacency", "distance_regular"):
        if not same(ref[key], rec[key]):
            bad.append(key)
    for idx, value in rec["kappa"].items():
        if ref["kappa"][int(idx)] != value:
            bad.append(f"kappa[{idx}]")
    for x, value in rec["be"].items():
        if not same(ref["be"][int(x)], value):
            bad.append(f"be[{x}]")
    if not same(json.loads(ref["classify"]), json.loads(rec["classify"])):
        bad.append("classify")
    return bad


def full_record(rec):
    """Turn a record made with caps ``EVERYTHING`` into a reference record."""
    out = dict(rec)
    n = rec["n"]
    out["kappa"] = [rec["kappa"][str(i)] for i in range(n * (n - 1) // 2)]
    out["be"] = [rec["be"][str(x)] for x in range(n)]
    return out


class AnalyzeWorkload:
    """Shared pass structure of analyze-named and analyze-random."""

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.reference = self.load_reference()

    def reference_path(self):
        raise NotImplementedError

    def load_reference(self):
        path = self.reference_path()
        if self.tiny or path is None or not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def build_inputs(self, gc):
        """[(name, graph, second graph)] built from this workload's inputs."""
        raise NotImplementedError

    def setup(self, gc, full=False):
        inputs = self.build_inputs(gc)
        state = []
        for i, (name, g, cold) in enumerate(inputs):
            rng = random.Random(f"picks/{self.seed}/{i}")
            picks = Picks.sample(g, rng, EVERYTHING if full else self.caps)
            state.append((name, g, cold, picks))
        return state

    def run(self, gc, state, ops, tracer=None):
        return [per_input(ops, name, analyze_graph, gc, g, picks, ops)
                for name, g, _, picks in state]

    def run_classify(self, gc, state, ops, clock):
        """Cold classify of every input; returns (texts, [clock region])."""
        texts, region = classify_round(gc, [cold for _, _, cold, _ in state], ops, clock)
        return texts, [region]

    def check(self, state, records, texts, ops):
        for (name, g, _, _), rec, text in zip(state, records, texts):
            if rec is None:
                continue
            if text != rec["classify"]:
                ops.wrong(f"{name}: cold and warm classify reports differ")
            self.check_invariants(name, g, rec, ops)
            if self.reference is not None:
                bad = check_record(rec, self.reference[name])
                if bad:
                    ops.wrong(f"{name}: differs from reference in {', '.join(bad[:5])}")

    def check_invariants(self, name, g, rec, ops):
        pass


NAMED = ("gosset", "schlafli", "HQ 6", "J 7 3", "Q 5", "( Q 2 x CP 3 )")
NAMED_TINY = ("CP 3", "( K 2 x C 4 )")


class AnalyzeNamed(AnalyzeWorkload):
    """The six ROADMAP graphs, built from family expressions."""

    # (non-adjacent pairs, replayed edges, curvature vertices) per graph
    caps = (24, 24, 4)

    def reference_path(self):
        return os.path.join(REFERENCE_DIR, "analyze-named.json")

    def build_inputs(self, gc):
        exprs = NAMED_TINY if self.tiny else NAMED
        parse = gc.families.parse_family
        return [(e, parse(e).build(), parse(e).build()) for e in exprs]


DENSITIES = (0.15, 0.3, 0.5)
RANDOM_INPUTS = 24
DEFAULT_SEED = 1


def random_connected(rng, n, density):
    """Random spanning tree plus round(density * remaining pairs) chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, round(density * len(rest))))
    return n, sorted(edges)


def product_edges(a, b):
    (n1, e1), (n2, e2) = a, b
    edges = [(i * n2 + u, i * n2 + v) for i in range(n1) for (u, v) in e2]
    edges += [(u * n2 + j, v * n2 + j) for j in range(n2) for (u, v) in e1]
    return n1 * n2, edges


def edge_list_text(rng, n, edges):
    """Edge-list text with shuffled vertex labels, edge order and endpoints."""
    label = list(range(n))
    rng.shuffle(label)
    lines = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for (u, v) in edges]
    rng.shuffle(lines)
    return "\n".join([f"{n} {len(lines)}"] + [f"{u} {v}" for u, v in lines]) + "\n"


def random_inputs(seed, count):
    """[(name, edge-list text, is_product)], sizes fixed by position, shapes by seed.

    Input i is a Cartesian product of two random connected graphs of 3-6
    vertices when i % 3 == 2, else a random connected graph of 18-30
    vertices; sizes and chord densities depend on i only, so every seed does
    comparable work.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 == 2:
            a = random_connected(rng, 3 + (i // 3) % 4, DENSITIES[(i // 3) % 3])
            b = random_connected(rng, 3 + (i // 3 + 2) % 4, DENSITIES[(i // 3 + 1) % 3])
            n, edges = product_edges(a, b)
            product = True
        else:
            n, edges = random_connected(rng, 18 + (7 * i) % 13, DENSITIES[(i + i // 3) % 3])
            product = False
        out.append((f"input-{i:02d}", edge_list_text(rng, n, edges), product))
    return out


class AnalyzeRandom(AnalyzeWorkload):
    """Seeded random graphs that reach gcurv only as edge-list text."""

    caps = (16, 16, 6)

    products = frozenset()

    def reference_path(self):
        if self.seed != DEFAULT_SEED:
            return None
        return os.path.join(REFERENCE_DIR, f"analyze-random-seed{DEFAULT_SEED}.json")

    def build_inputs(self, gc):
        inputs = random_inputs(self.seed, 3 if self.tiny else RANDOM_INPUTS)
        self.products = frozenset(name for name, _, product in inputs if product)
        parse = gc.graphs.parse_edge_list
        return [(name, parse(text), parse(text)) for name, text, _ in inputs]

    def check_invariants(self, name, g, rec, ops):
        orders = [n for n, _ in rec["factors"]]
        if name in self.products and (len(orders) < 2 or math.prod(orders) != g.n):
            ops.wrong(f"{name}: product input factored into orders {orders}")


# The oracle (criterion_08) covers edges whose LP support has at most six
# vertices; the prism's three rungs are the only such edges with six, which
# keeps the oracle near half of the verify time, as on the standard corpus.
VERIFY_CORPUS = (
    "( K 2 x K 3 )", "K 5", "KB 2 3", "C 5", "C 6", "CP 4", "J 5 2", "HQ 5",
    "Q 4", "( K 2 x J 4 2 )", "H 2 3", "schlafli",
)
VERIFY_TINY = ("K 3", "C 5", "( K 2 x K 2 )")


class VerifyCorpus:
    """verify-theorems through cli.main on a fixed corpus in seeded order."""

    # its cold classify takes about a third of a second, so it is repeated on
    # fresh graphs and the median round is reported
    classify_rounds = 5

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.path = os.path.join(WORK_DIR, f"corpus-{os.getpid()}.txt")
        self.checks = None

    def setup(self, gc):
        exprs = list(VERIFY_TINY if self.tiny else VERIFY_CORPUS)
        random.Random(self.seed).shuffle(exprs)
        os.makedirs(WORK_DIR, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(exprs) + "\n")
        parse = gc.families.parse_family
        return [[parse(e).build() for e in exprs] for _ in range(self.classify_rounds)]

    def run(self, gc, state, ops, tracer=None):
        main = gc.cli.main if tracer is None else tracer.wrap("verify.checks_self", gc.cli.main)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main(["verify-theorems", "--corpus", self.path, "--json"])
            payload = json.loads(out.getvalue())
        except Exception as exc:  # a crash or unreadable output is one failed operation
            ops.attempted += 1
            ops.wrong(f"verify-theorems: {type(exc).__name__}: {exc}")
            return None
        finally:
            os.remove(self.path)
        self.checks = payload["checks"]
        ops.attempted += len(self.checks)
        for check in self.checks:
            if not check["passed"]:
                ops.wrong(f"{check['check']}: {check['witness']}")
        if code != 0 or not payload["all_passed"]:
            ops.wrong(f"verify-theorems exited {code}, all_passed {payload['all_passed']}")
        return payload

    def run_classify(self, gc, state, ops, clock):
        """Cold classify of the corpus, once per round; (texts, clock regions)."""
        rounds = [classify_round(gc, graphs, ops, clock) for graphs in state]
        return rounds[0][0], [region for _, region in rounds]

    def check(self, state, payload, texts, ops):
        pass


WORKLOADS = {
    "verify-corpus": VerifyCorpus,
    "analyze-named": AnalyzeNamed,
    "analyze-random": AnalyzeRandom,
}
