"""Standard corpus and the named check suite behind verify-theorems.

Each check returns a witness string on failure and None on success; the
runner wraps them with timing so the CLI can print a pass/fail table.
Checks quantify over the corpus and gate themselves on preconditions
(a reflectivity check skips non-reflective members), so the same suite
runs on user-supplied corpora.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .bakry_emery import (
    LocalForm,
    bakry_emery_curvature,
    be_effective_bound_report,
    be_rigidity_check,
    curvature_from_forms,
    gamma2_form,
    gamma2_matches_symbolic,
    gamma_form,
)
from .classify import classify, report_to_json
from .errors import NonpositiveCurvatureError
from .factorization import factorize, is_prime
from .families import (
    cartesian_product,
    cocktail_party,
    complete_bipartite,
    complete_graph,
    cycle,
    gosset,
    halved_cube,
    hamming,
    hypercube,
    johnson,
    parse_family,
    path_graph,
    schlafli,
)
from .graphs import (
    Graph,
    are_isomorphic,
    ball,
    build_graph,
    effective_diameter,
    induced_subgraph,
    is_convex_subset,
    is_isometric_subset,
    is_locally_connected,
    side_partition,
)
from .ollivier import (
    brute_force_curvature_oracle,
    curvature_from_intersection_array,
    edge_curvature,
    long_range_curvature,
    min_edge_curvature,
    verify_optimality_certificate,
)
from .reflective import (
    are_parallel,
    candidate_reflection,
    distance_eigenfunction_check,
    find_reflection,
    is_reflective,
    matching_structure_check,
    pair_orbit_certificate,
    parallel_gradient_identity,
    parallel_in_ball,
    triangle_matching_check,
    vxy_convex_reflective_check,
)
from .spectral import (
    adjacency_matrix,
    adjacency_spectrum,
    is_distance_regular,
    is_lichnerowicz_sharp,
    laplacian_matrix,
    laplacian_spectrum,
    smallest_positive_laplacian_eigenvalue,
    theta_condition,
)


@dataclass(frozen=True)
class CorpusMember:
    name: str
    graph: Graph
    list_graph: bool = False
    non_example: bool = False
    product: bool = False
    vertex_transitive: bool = True
    expectations: bool = True
    expected_kappa: Fraction | None = None
    expected_diam: Fraction | None = None


def petersen() -> Graph:
    """Complement of the 2-subset Johnson graph on a 5-set."""
    j = johnson(5, 2)
    edges = [
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if not j.adjacent(u, v)
    ]
    return build_graph(10, edges)


def standard_corpus() -> tuple:
    members = []

    def add(name, g, **kw):
        members.append(CorpusMember(name=name, graph=g, **kw))

    for k in range(2, 6):
        add(f"CP({k})", cocktail_party(k), list_graph=True,
            expected_kappa=Fraction(2 * k - 2), expected_diam=Fraction(1))
    for (n, k) in [(2, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3)]:
        add(f"J({n},{k})", johnson(n, k), list_graph=True,
            expected_kappa=Fraction(n))
    for n in range(3, 7):
        add(f"HQ({n})", halved_cube(n), list_graph=True,
            expected_kappa=Fraction(2 * n - 2), expected_diam=Fraction(n, 4))
    add("Schläfli", schlafli(), list_graph=True,
        expected_kappa=Fraction(12), expected_diam=Fraction(4, 3))
    add("Gosset", gosset(), list_graph=True,
        expected_kappa=Fraction(18), expected_diam=Fraction(3, 2))
    for n in range(1, 6):
        add(f"Q{n}", hypercube(n), list_graph=(n <= 2), product=(n >= 2),
            expected_kappa=Fraction(2), expected_diam=Fraction(n, 2))
    add("H(2,3)", hamming(2, 3), product=True)
    add("J(4,2) x CP(3)",
        cartesian_product(johnson(4, 2), cocktail_party(3)), product=True)
    add("K2 x J(4,2)",
        cartesian_product(complete_graph(2), johnson(4, 2)), product=True)
    add("Q2 x CP(3)",
        cartesian_product(hypercube(2), cocktail_party(3)), product=True)
    add("C5", cycle(5), non_example=True)
    add("C6", cycle(6), non_example=True)
    add("K3,3", complete_bipartite(3, 3), non_example=True)
    add("Petersen", petersen(), non_example=True)
    add("P4", path_graph(4), non_example=True, vertex_transitive=False)
    return tuple(members)


@dataclass
class Ctx:
    corpus: tuple
    tol: float
    max_lp_support: int
    standard: bool
    memo: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    witness: str | None
    seconds: float


def _member(ctx: Ctx, name: str):
    for mem in ctx.corpus:
        if mem.name == name:
            return mem
    return None


def _lc(g: Graph) -> bool:
    return is_locally_connected(g)[0]


def _sharp_members(ctx: Ctx):
    """Members satisfying the exact rational sharpness equality."""
    if "sharp" not in ctx.memo:
        out = []
        for mem in ctx.corpus:
            mec = min_edge_curvature(mem.graph)
            if mec.value > 0 and (
                effective_diameter(mem.graph) * mec.value
                == mem.graph.max_degree()
            ):
                out.append(mem)
        ctx.memo["sharp"] = tuple(out)
    return ctx.memo["sharp"]


def _reflective_members(ctx: Ctx):
    if "refl" not in ctx.memo:
        ctx.memo["refl"] = tuple(
            mem for mem in ctx.corpus if is_reflective(mem.graph).reflective
        )
    return ctx.memo["refl"]


# --- acceptance criteria ---

def _check_curvature_constants(ctx: Ctx):
    t0 = time.time()
    for mem in ctx.corpus:
        if mem.expected_kappa is None:
            continue
        mec = min_edge_curvature(mem.graph)
        if not mec.is_constant:
            return (f"{mem.name}: curvature not constant, "
                    f"{mec.min_edge} vs {mec.other_edge}")
        if mec.value != mem.expected_kappa:
            return f"{mem.name}: kappa {mec.value} != {mem.expected_kappa}"
        dr = is_distance_regular(mem.graph)
        if dr.array is None:
            return f"{mem.name}: not distance regular, witness {dr.witness}"
        pred = curvature_from_intersection_array(dr.array)
        if pred != mec.value:
            return f"{mem.name}: 1+b0-b1 = {pred} != kappa {mec.value}"
    elapsed = time.time() - t0
    if elapsed >= 120:
        return f"runtime budget exceeded: {elapsed:.1f}s"
    return None


_DIAM_EQUALITY_PRODUCTS = {"J(4,2) x CP(3)"}
_DIAM_STRICT_NAMES = {"K2 x J(4,2)", "K3,3"}


def _check_effective_diameter(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        de = effective_diameter(g)
        if mem.expected_diam is not None and de != mem.expected_diam:
            return f"{mem.name}: diam_eff {de} != {mem.expected_diam}"
        mec = min_edge_curvature(g)
        lhs, rhs = de * mec.value, Fraction(g.max_degree())
        if (mem.list_graph and _lc(g)) or mem.name in _DIAM_EQUALITY_PRODUCTS:
            if lhs != rhs:
                return f"{mem.name}: diam_eff*kappa {lhs} != maxdeg {rhs}"
        if mem.name in _DIAM_STRICT_NAMES or (
            mem.non_example and mec.value > 0
        ):
            if not lhs < rhs:
                return f"{mem.name}: expected strict bound, {lhs} vs {rhs}"
    return None


def _check_reflectiveness(ctx: Ctx):
    for mem in ctx.corpus:
        if not mem.expectations:
            continue
        v = is_reflective(mem.graph)
        if mem.non_example:
            if v.reflective:
                return f"{mem.name}: unexpectedly reflective"
            if v.counterexample is None:
                return f"{mem.name}: missing counterexample edge"
        elif not v.reflective:
            return f"{mem.name}: not reflective at {v.counterexample}"
    return None


def _check_lichnerowicz_sharpness(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        mec = min_edge_curvature(g)
        if mem.list_graph and _lc(g):
            lam = smallest_positive_laplacian_eigenvalue(g, ctx.tol)
            if abs(lam - float(mec.value)) > 1e-8:
                return f"{mem.name}: lam {lam} vs kappa {mec.value}"
            ia = is_distance_regular(g).array
            if ia is None:
                return f"{mem.name}: expected an intersection array"
            th = theta_condition(g, ia, ctx.tol)
            if not th.matches_b1_minus_1:
                return f"{mem.name}: theta {th.theta} misses b1-1"
        # the spectral gap must never undercut a positive curvature minimum
        if mec.value > 0:
            lam = smallest_positive_laplacian_eigenvalue(g, ctx.tol)
            if lam < float(mec.value) - 1e-6:
                return (f"{mem.name}: Lichnerowicz violation, "
                        f"lam {lam} < kappa {mec.value}")
    return None


def _check_factorization_round_trip(ctx: Ctx):
    q3 = _member(ctx, "Q3")
    if q3 is not None:
        fs = factorize(q3.graph)
        if len(fs) != 3:
            return f"Q3: {len(fs)} factors"
        if any(are_isomorphic(f, complete_graph(2)) is None for f in fs):
            return "Q3: factor not a single edge"
        rebuilt = reduce(cartesian_product, fs)
        if are_isomorphic(rebuilt, q3.graph) is None:
            return "Q3: factor product differs from the original"
    jc = _member(ctx, "J(4,2) x CP(3)")
    if jc is not None:
        fs = factorize(jc.graph)
        if len(fs) != 2:
            return f"J(4,2) x CP(3): {len(fs)} factors"
        if any(are_isomorphic(f, cocktail_party(3)) is None for f in fs):
            return "J(4,2) x CP(3): factor not an octahedron"
        if are_isomorphic(reduce(cartesian_product, fs), jc.graph) is None:
            return "J(4,2) x CP(3): factor product differs"
    for mem in ctx.corpus:
        if mem.name.startswith(("Schl", "Gosset", "J(")) and " x " not in mem.name:
            if not is_prime(mem.graph):
                return f"{mem.name}: expected prime"
    return None


def _check_structural_suite(ctx: Ctx):
    for mem in _sharp_members(ctx):
        g = mem.graph
        kappa = min_edge_curvature(g).value
        for (x, y) in g.edges:
            mv = matching_structure_check(g, x, y, kappa)
            if not mv.ok:
                return f"{mem.name} ({x},{y}): matching, {mv.note}"
            if not triangle_matching_check(g, x, y):
                return f"{mem.name} ({x},{y}): triangle matching"
            if not vxy_convex_reflective_check(g, x, y):
                return f"{mem.name} ({x},{y}): side structure"
            if not vxy_convex_reflective_check(g, y, x):
                return f"{mem.name} ({y},{x}): side structure"
        for x in range(g.n):
            if not distance_eigenfunction_check(g, x, kappa):
                return f"{mem.name} vertex {x}: distance eigenfunction"
        for e in g.edges:
            for z in range(g.n):
                parallel_in_ball(g, e, z)  # raises on any internal failure
        ps = _parallel_structure(ctx, mem)
        if ps["gradient"] is not None:
            return ps["gradient"]
    return None


def _check_orbit_certificate(ctx: Ctx):
    for mem in _reflective_members(ctx):
        if _lc(mem.graph) and not pair_orbit_certificate(mem.graph):
            return f"{mem.name}: pair orbit certificate failed"
    return None


def _check_oracle_equivalence(ctx: Ctx):
    checked = 0
    for mem in ctx.corpus:
        g = mem.graph
        for (x, y) in g.edges:
            support = set(ball(g, x, 1)) | set(ball(g, y, 1))
            if len(support) > ctx.max_lp_support:
                continue
            val = brute_force_curvature_oracle(g, x, y, ctx.max_lp_support)
            lp = edge_curvature(g, x, y).value
            if val != lp:
                return f"{mem.name} ({x},{y}): oracle {val} != lp {lp}"
            checked += 1
    if ctx.standard and checked < 90:
        return f"oracle scope unexpectedly small: {checked} edges"
    return None


def _check_bakry_emery(ctx: Ctx):
    for n in range(2, 6):
        mem = _member(ctx, f"Q{n}")
        if mem is None:
            continue
        for x in range(mem.graph.n):
            k = bakry_emery_curvature(mem.graph, x)
            if abs(k - 2) > 1e-6:
                return f"Q{n} vertex {x}: curvature {k}"
    positive = []
    for mem in ctx.corpus:
        try:
            rep = be_effective_bound_report(mem.graph, ctx.tol)
        except NonpositiveCurvatureError:
            continue
        if not rep.bound_holds:
            return f"{mem.name}: effective diameter bound violated"
        positive.append((mem.name, mem.graph))
    rig = be_rigidity_check(positive)
    if not rig.ok:
        bad = next(e for e in rig.entries if not e.consistent)
        return (f"{bad.name}: bound equality {bad.equality} but "
                f"hypercube {bad.is_hypercube}")
    for mem in ctx.corpus:
        if mem.graph.n <= 10:
            for x in range(mem.graph.n):
                if not gamma2_matches_symbolic(mem.graph, x):
                    return f"{mem.name} vertex {x}: iterated form mismatch"
    return None


def _classify_reports(ctx: Ctx):
    if "classify" not in ctx.memo:
        ctx.memo["classify"] = tuple(
            (mem, classify(mem.graph, ctx.tol)) for mem in ctx.corpus
        )
    return ctx.memo["classify"]


def _check_classification(ctx: Ctx):
    for mem, rep in _classify_reports(ctx):
        for name, verdict in rep.theorem_verdicts.items():
            if not verdict.passed:
                return f"{mem.name}: {name}: {verdict.witness}"
    return None


# --- graph_core invariants ---

def _check_metric_axioms(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        dist = g.dist_rows()
        for x in range(g.n):
            row = dist[x]
            if row[x] != 0:
                return f"{mem.name}: d({x},{x}) = {row[x]}"
            for y in range(g.n):
                if row[y] != dist[y][x]:
                    return f"{mem.name}: asymmetry at ({x},{y})"
                if x != y and row[y] <= 0:
                    return f"{mem.name}: nonpositive d({x},{y})"
        for y in range(g.n):
            ry = dist[y]
            for x in range(g.n):
                dxy = dist[x][y]
                rx = dist[x]
                for z in range(g.n):
                    if rx[z] > dxy + ry[z]:
                        return f"{mem.name}: triangle fails at ({x},{y},{z})"
    return None


def _check_side_partition_cover(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        for (x, y) in g.edges:
            sp = side_partition(g, x, y)
            parts = (set(sp.side_x), set(sp.side_y), set(sp.middle))
            if sum(len(p) for p in parts) != g.n:
                return f"{mem.name} ({x},{y}): sides overlap"
            if parts[0] | parts[1] | parts[2] != set(range(g.n)):
                return f"{mem.name} ({x},{y}): sides miss vertices"
    return None


def _check_effective_diameter_rows(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        de = effective_diameter(g)
        rows = [Fraction(sum(r), g.n) for r in g.dist_rows()]
        if de > max(rows):
            return f"{mem.name}: diam_eff above the worst row average"
        if mem.vertex_transitive and mem.expectations and len(set(rows)) != 1:
            return f"{mem.name}: row averages differ on a transitive graph"
    return None


def _check_convex_implies_isometric(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        edges = g.edges if g.n <= 36 else g.edges[:60]
        for (x, y) in edges:
            sp = side_partition(g, x, y)
            for side in (sp.side_x, sp.side_y):
                if is_convex_subset(g, side) and not is_isometric_subset(g, side):
                    return f"{mem.name} ({x},{y}): convex side not isometric"
    return None


def _check_isomorphism_properties(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        iso = are_isomorphic(g, g)
        if iso is None:
            return f"{mem.name}: no self isomorphism found"
        for (u, v) in g.edges:
            if not g.adjacent(iso[u], iso[v]):
                return f"{mem.name}: self map breaks edge ({u},{v})"
    pairs = [
        (johnson(4, 2), cocktail_party(3)),
        (halved_cube(4), cocktail_party(4)),
        (halved_cube(3), complete_graph(4)),
    ]
    for a, b in pairs:
        if are_isomorphic(a, b) is None or are_isomorphic(b, a) is None:
            return "known isomorphic pair rejected"
    if are_isomorphic(complete_bipartite(3, 3), cycle(6)) is not None:
        return "K3,3 accepted as C6"
    return None


# --- families invariants ---

def _check_generator_validation(ctx: Ctx):
    from math import comb

    for k in range(2, 7):
        g = cocktail_party(k)
        if g.n != 2 * k or not g.is_regular() or g.degree(0) != 2 * k - 2:
            return f"CP({k}): wrong shape"
    for n in range(3, 9):
        if cycle(n).m != n:
            return f"C{n}: wrong edge count"
    for n in range(2, 9):
        if complete_graph(n).m != n * (n - 1) // 2:
            return f"K{n}: wrong edge count"
        if path_graph(n).m != n - 1:
            return f"P{n}: wrong edge count"
    for a in range(1, 5):
        for b in range(1, 5):
            if complete_bipartite(a, b).m != a * b:
                return f"K{a},{b}: wrong edge count"
    for n in range(2, 9):
        for k in range(1, n):
            if comb(n, k) < 2:
                continue
            g = johnson(n, k)
            if g.n != comb(n, k) or g.degree(0) != k * (n - k):
                return f"J({n},{k}): wrong shape"
    for n in range(3, 9):
        g = halved_cube(n)
        if g.n != 2 ** (n - 1) or g.degree(0) != comb(n, 2):
            return f"HQ({n}): wrong shape"
    for n in range(1, 9):
        g = hypercube(n)
        if g.n != 2 ** n or g.degree(0) != n:
            return f"Q{n}: wrong shape"
    for (m, q) in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 5)]:
        g = hamming(m, q)
        if g.n != q ** m or g.degree(0) != m * (q - 1):
            return f"H({m},{q}): wrong shape"
    if schlafli().n != 27 or schlafli().degree(0) != 16:
        return "Schlafli generator shape"
    if gosset().n != 56 or gosset().degree(0) != 27:
        return "Gosset generator shape"
    return None


def _check_known_isomorphisms(ctx: Ctx):
    g = gosset()
    nbhd, _ = induced_subgraph(g, g.neighbors[0])
    if are_isomorphic(nbhd, schlafli()) is None:
        return "Gosset neighborhood is not the Schlafli graph"
    if are_isomorphic(
        cartesian_product(complete_graph(2), complete_graph(2)), cycle(4)
    ) is None:
        return "K2 x K2 is not C4"
    k2 = complete_graph(2)
    cube = cartesian_product(cartesian_product(k2, k2), k2)
    if are_isomorphic(cube, hypercube(3)) is None:
        return "triple edge product is not Q3"
    return None


def _check_product_distance_additivity(ctx: Ctx):
    cases = [
        (complete_graph(3), cycle(5)),
        (complete_graph(2), johnson(4, 2)),
        (cocktail_party(3), hypercube(2)),
    ]
    for g1, g2 in cases:
        prod = cartesian_product(g1, g2)
        d1, d2, dp = g1.dist_rows(), g2.dist_rows(), prod.dist_rows()
        for u1 in range(g1.n):
            for u2 in range(g2.n):
                pu = u1 * g2.n + u2
                for v1 in range(g1.n):
                    for v2 in range(g2.n):
                        if dp[pu][v1 * g2.n + v2] != d1[u1][v1] + d2[u2][v2]:
                            return (f"distance not additive at "
                                    f"(({u1},{u2}),({v1},{v2}))")
    return None


def _check_dsl_round_trip(ctx: Ctx):
    from .errors import ParseError

    cases = [
        ("K 5", complete_graph(5)),
        ("cp 3", cocktail_party(3)),
        ("J 5 2", johnson(5, 2)),
        ("HQ 4", halved_cube(4)),
        ("q 3", hypercube(3)),
        ("H 2 3", hamming(2, 3)),
        ("C 6", cycle(6)),
        ("KB 3 3", complete_bipartite(3, 3)),
        ("SCHLAFLI", schlafli()),
        ("gosset", gosset()),
        ("( J 4 2 x CP 3 )", cartesian_product(johnson(4, 2), cocktail_party(3))),
        ("( ( K 2 x K 2 ) x K 2 )", hypercube(3)),
    ]
    for text, expect in cases:
        spec = parse_family(text)
        built = spec.build()
        if are_isomorphic(built, expect) is None:
            return f"DSL {text!r} builds the wrong graph"
        if parse_family(spec.label()) != spec:
            return f"DSL label round trip fails for {text!r}"
    for bad in ("K", "CP x", "( K 2", "K 2 K 3", "Z 4", ""):
        try:
            parse_family(bad)
        except ParseError:
            continue
        return f"DSL accepted invalid input {bad!r}"
    return None


# --- spectral invariants ---

def _check_trace_identities(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        for matf, specf in (
            (laplacian_matrix, laplacian_spectrum),
            (adjacency_matrix, adjacency_spectrum),
        ):
            mat = matf(g)
            vals = specf(g).values
            trace = float(np.trace(mat))
            frob2 = float((np.asarray(mat) ** 2).sum())
            if abs(sum(vals) - trace) > 1e-8:
                return f"{mem.name}: eigenvalue sum misses the trace"
            if abs(sum(v * v for v in vals) - frob2) > 1e-6:
                return f"{mem.name}: eigenvalue squares miss the Frobenius norm"
    return None


def _check_lichnerowicz_inequality(ctx: Ctx):
    for mem in ctx.corpus:
        mec = min_edge_curvature(mem.graph)
        if mec.value <= 0:
            continue
        lam = smallest_positive_laplacian_eigenvalue(mem.graph, ctx.tol)
        if lam < float(mec.value) - 1e-8:
            return f"{mem.name}: lam {lam} < kappa {mec.value}"
    return None


def _check_reflective_sharp_identity(ctx: Ctx):
    for mem in _reflective_members(ctx):
        g = mem.graph
        if not _lc(g):
            continue
        lich = is_lichnerowicz_sharp(g, ctx.tol)
        if not lich.sharp:
            return f"{mem.name}: gap {lich.lam} vs kappa {lich.kappa_min}"
        ia = is_distance_regular(g).array
        if ia is None:
            return f"{mem.name}: locally connected reflective but not DR"
        pred = float(curvature_from_intersection_array(ia))
        if abs(lich.lam - pred) > 1e-8:
            return f"{mem.name}: gap {lich.lam} vs 1+b0-b1 {pred}"
    return None


def _recount_intersection_numbers(g: Graph):
    """Array recount from scratch, None unless all pairs agree."""
    dist = g.dist_rows()
    diam = max(max(row) for row in dist)
    seen = [set() for _ in range(diam + 1)]
    for x in range(g.n):
        row = dist[x]
        for y in range(g.n):
            i = row[y]
            if i == 0:
                continue
            b = sum(1 for w in g.neighbors[y] if row[w] == i + 1)
            c = sum(1 for w in g.neighbors[y] if row[w] == i - 1)
            seen[i].add((b, c))
            if len(seen[i]) > 1:
                return None
    degs = {g.degree(v) for v in range(g.n)}
    if len(degs) != 1:
        return None
    if any(len(s) != 1 for s in seen[1:]):
        return None
    pairs = [next(iter(s)) for s in seen[1:]]
    b = (degs.pop(),) + tuple(p[0] for p in pairs[:-1])
    c = tuple(p[1] for p in pairs)
    return (b, c)


def _check_distance_regular_recount(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        if g.n > 64:
            continue
        dr = is_distance_regular(g)
        recount = _recount_intersection_numbers(g)
        if dr.array is None:
            if recount is not None:
                return f"{mem.name}: verdict misses array {recount}"
        elif recount != (dr.array.b, dr.array.c):
            return f"{mem.name}: array {dr.array} vs recount {recount}"
    return None


# --- ollivier invariants ---

def _check_optimizer_certificates(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        for (x, y) in g.edges:
            if not verify_optimality_certificate(g, edge_curvature(g, x, y)):
                return f"{mem.name} ({x},{y}): certificate rejected"
    return None


def _check_lipschitz_extension(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        dist = g.dist_rows()
        for (x, y) in g.edges:
            f = edge_curvature(g, x, y).optimizer
            if all(v.denominator == 1 for v in f.values()):
                vals = [(w, int(v)) for w, v in f.items()]
            else:
                vals = list(f.items())
            ext = [
                min(fv + dist[w][z] for (w, fv) in vals) for z in range(g.n)
            ]
            for (u, v) in g.edges:
                if abs(ext[u] - ext[v]) > 1:
                    return (f"{mem.name} ({x},{y}): extension jumps on "
                            f"edge ({u},{v})")
    return None


def _check_long_range_lower_bound(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        mec = min_edge_curvature(g)
        if mec.value <= 0:
            continue
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if long_range_curvature(g, x, y).value < mec.value:
                    return f"{mem.name}: pair ({x},{y}) beats the edge minimum"
    return None


def _check_curvature_formula_agreement(ctx: Ctx):
    for mem in _reflective_members(ctx):
        g = mem.graph
        if not _lc(g):
            continue
        ia = is_distance_regular(g).array
        if ia is None:
            return f"{mem.name}: no intersection array"
        pred = curvature_from_intersection_array(ia)
        for (x, y) in g.edges:
            if edge_curvature(g, x, y).value != pred:
                return f"{mem.name} ({x},{y}): kappa differs from 1+b0-b1"
    return None


# --- reflective invariants ---

def _check_reflection_axioms(ctx: Ctx):
    for mem in _reflective_members(ctx):
        g = mem.graph
        edge_set = set(g.edges)
        for (x, y) in g.edges:
            m = find_reflection(g, x, y).reflection.mapping
            if m[x] != y or m[y] != x:
                return f"{mem.name} ({x},{y}): endpoints not exchanged"
            if any(m[m[v]] != v for v in range(g.n)):
                return f"{mem.name} ({x},{y}): not an involution"
            image = {tuple(sorted((m[u], m[v]))) for (u, v) in g.edges}
            if image != edge_set:
                return f"{mem.name} ({x},{y}): not an automorphism"
            sp = side_partition(g, x, y)
            if any(m[v] != v for v in sp.middle):
                return f"{mem.name} ({x},{y}): middle moves"
            if {m[v] for v in sp.side_x} != set(sp.side_y):
                return f"{mem.name} ({x},{y}): sides not exchanged"
            sx, sy = set(sp.side_x), set(sp.side_y)
            cross = {
                (u, v)
                for (u, v) in g.edges
                if (u in sx and v in sy) or (u in sy and v in sx)
            }
            swaps = {tuple(sorted((v, m[v]))) for v in sp.side_x}
            if cross != swaps:
                return f"{mem.name} ({x},{y}): cross edges differ from swaps"
    return None


def _check_candidate_uniqueness(ctx: Ctx):
    for mem in _reflective_members(ctx):
        g = mem.graph
        for (x, y) in g.edges:
            cand = candidate_reflection(g, x, y)
            found = find_reflection(g, x, y)
            if cand.reflection is None or found.reflection is None:
                return f"{mem.name} ({x},{y}): candidate missing"
            if cand.reflection.mapping != found.reflection.mapping:
                return f"{mem.name} ({x},{y}): candidate is not the reflection"
    return None


def _parallel_structure(ctx: Ctx, mem: CorpusMember):
    """One exhaustive pass over directed-edge pairs; results are memoized.

    Verifies that the side-membership relation coincides with equality of
    side partitions (hence is an equivalence), that partner sets match the
    reflection pairing, and that every parallel pair satisfies the distance
    gradient identity.
    """
    key = ("par", mem.name)
    if key in ctx.memo:
        return ctx.memo[key]
    g = mem.graph
    dirs = [e for (x, y) in g.edges for e in ((x, y), (y, x))]
    sx, sy, keys = {}, {}, {}
    interned = {}
    for e in dirs:
        sp = side_partition(g, *e)
        a, b = frozenset(sp.side_x), frozenset(sp.side_y)
        sx[e], sy[e] = a, b
        keys[e] = interned.setdefault((a, b), len(interned))
    out = {"equivalence": None, "remark": None, "gradient": None}
    partners = {e: [] for e in dirs}
    for e1 in dirs:
        a, b, k1 = sx[e1], sy[e1], keys[e1]
        for e2 in dirs:
            related = e2[0] in a and e2[1] in b
            if related != (k1 == keys[e2]):
                out["equivalence"] = (
                    f"{mem.name}: relation disagrees with side classes "
                    f"at {e1} vs {e2}"
                )
                break
            if related:
                partners[e1].append(e2)
        if out["equivalence"]:
            break
    if out["equivalence"] is None:
        rng = random.Random(len(dirs))
        for _ in range(min(2000, len(dirs) ** 2)):
            e1, e2 = rng.choice(dirs), rng.choice(dirs)
            if are_parallel(g, e1, e2) != (keys[e1] == keys[e2]):
                out["equivalence"] = f"{mem.name}: are_parallel({e1},{e2}) odd"
                break
    if out["equivalence"] is None:
        for e in dirs:
            m = find_reflection(g, *e).reflection.mapping
            expected = {(v, m[v]) for v in sx[e]}
            if set(partners[e]) != expected:
                out["remark"] = (
                    f"{mem.name}: partners of {e} differ from the "
                    f"reflection pairing"
                )
                break
    if out["equivalence"] is None and out["gradient"] is None:
        done = False
        for e1 in dirs:
            for e2 in partners[e1]:
                if not parallel_gradient_identity(g, e1, e2):
                    out["gradient"] = (
                        f"{mem.name}: gradient identity fails for "
                        f"{e1} and {e2}"
                    )
                    done = True
                    break
            if done:
                break
    ctx.memo[key] = out
    return out


def _check_parallel_equivalence(ctx: Ctx):
    for mem in _reflective_members(ctx):
        w = _parallel_structure(ctx, mem)["equivalence"]
        if w is not None:
            return w
    return None


def _check_parallel_remark(ctx: Ctx):
    for mem in _reflective_members(ctx):
        w = _parallel_structure(ctx, mem)["remark"]
        if w is not None:
            return w
    return None


def _check_sharp_structure(ctx: Ctx):
    for mem in _sharp_members(ctx):
        g = mem.graph
        kappa = min_edge_curvature(g).value
        for (x, y) in g.edges:
            if not matching_structure_check(g, x, y, kappa).ok:
                return f"{mem.name} ({x},{y}): matching structure"
        for x in range(g.n):
            if not distance_eigenfunction_check(g, x, kappa):
                return f"{mem.name} vertex {x}: distance eigenfunction"
    return None


# --- factorization invariants ---

def _check_product_round_trip(ctx: Ctx):
    rng = random.Random(20250821)
    primes = [
        complete_graph(2),
        complete_graph(3),
        cycle(5),
        cocktail_party(3),
    ]
    for _ in range(6):
        count = rng.choice((2, 2, 3))
        chosen = [rng.choice(primes) for _ in range(count)]
        while reduce(lambda a, b: a * b.n, chosen, 1) > 64:
            chosen.pop()
        if len(chosen) < 2:
            chosen = [primes[0], primes[1]]
        prod = reduce(cartesian_product, chosen)
        fs = factorize(prod)
        if len(fs) != len(chosen):
            return f"round trip count {len(fs)} != {len(chosen)}"
        remaining = list(chosen)
        for f in fs:
            hit = next(
                (i for i, c in enumerate(remaining)
                 if are_isomorphic(f, c) is not None),
                None,
            )
            if hit is None:
                return "factor matches no chosen prime"
            remaining.pop(hit)
    return None


def _check_factor_arithmetic(ctx: Ctx):
    for mem in ctx.corpus:
        if not mem.product:
            continue
        g = mem.graph
        fs = factorize(g)
        if reduce(lambda a, f: a * f.n, fs, 1) != g.n:
            return f"{mem.name}: vertex counts do not multiply"
        if sum(f.degree(0) for f in fs) != g.degree(0):
            return f"{mem.name}: degrees do not add"
        if sum(effective_diameter(f) for f in fs) != effective_diameter(g):
            return f"{mem.name}: effective diameters do not add"
    return None


def _check_reflectiveness_transfer(ctx: Ctx):
    for mem in ctx.corpus:
        if not mem.product:
            continue
        whole = is_reflective(mem.graph).reflective
        parts = all(is_reflective(f).reflective for f in factorize(mem.graph))
        if whole != parts:
            return f"{mem.name}: transfer breaks ({whole} vs {parts})"
    for bad in (cycle(5), path_graph(4)):
        prod = cartesian_product(bad, complete_graph(2))
        whole = is_reflective(prod).reflective
        parts = all(is_reflective(f).reflective for f in factorize(prod))
        if whole or parts:
            return "non-reflective factor slipped through a product"
    return None


def _check_locally_disconnected_nonprime(ctx: Ctx):
    for mem in _reflective_members(ctx):
        if not _lc(mem.graph) and len(factorize(mem.graph)) < 2:
            return f"{mem.name}: locally disconnected, reflective, yet prime"
    return None


# --- bakry_emery invariants ---

def _check_form_properties(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        vertices = range(g.n) if g.n <= 10 else (0,)
        for x in vertices:
            for form in (gamma_form(g, x), gamma2_form(g, x)):
                mat = form.matrix
                k = len(mat)
                for i in range(k):
                    for j in range(i):
                        if mat[i][j] != mat[j][i]:
                            return f"{mem.name} vertex {x}: form asymmetry"
            gam = np.array(
                [[float(v) for v in row] for row in gamma_form(g, x).matrix]
            )
            if float(np.linalg.eigvalsh(gam)[0]) < -1e-10:
                return f"{mem.name} vertex {x}: gradient form not psd"
    return None


def _scale_form(form: LocalForm, factor: int) -> LocalForm:
    return LocalForm(
        form.base,
        form.support,
        tuple(tuple(v * factor for v in row) for row in form.matrix),
    )


def _check_scale_invariance(ctx: Ctx):
    for mem in ctx.corpus:
        g = mem.graph
        base = bakry_emery_curvature(g, 0)
        scaled = curvature_from_forms(
            g, 0, _scale_form(gamma_form(g, 0), 4),
            _scale_form(gamma2_form(g, 0), 4),
        )
        if abs(base - scaled) > 1e-9:
            return f"{mem.name}: scaling moved curvature by {base - scaled}"
    return None


def _check_vertex_transitive_consistency(ctx: Ctx):
    for mem in ctx.corpus:
        if not (mem.vertex_transitive and mem.expectations):
            continue
        g = mem.graph
        vals = [bakry_emery_curvature(g, x) for x in range(g.n)]
        if max(vals) - min(vals) > 1e-8:
            return f"{mem.name}: curvature spread {max(vals) - min(vals)}"
    return None


def _check_diameter_bound(ctx: Ctx):
    for mem in ctx.corpus:
        try:
            rep = be_effective_bound_report(mem.graph, ctx.tol)
        except NonpositiveCurvatureError:
            continue
        if not rep.bound_holds:
            return f"{mem.name}: diameter bound fails"
    return None


# --- cli invariants ---

def _check_report_determinism(ctx: Ctx):
    builders = {
        "CP(3)": lambda: cocktail_party(3),
        "C5": lambda: cycle(5),
        "Q2 x CP(3)": lambda: cartesian_product(hypercube(2), cocktail_party(3)),
    }
    for name, build in builders.items():
        first = report_to_json(classify(build(), ctx.tol))
        second = report_to_json(classify(build(), ctx.tol))
        if first != second:
            return f"{name}: reports differ between runs"
    return None


def _check_verdict_witnesses(ctx: Ctx):
    for mem, rep in _classify_reports(ctx):
        for name, verdict in rep.theorem_verdicts.items():
            if not verdict.passed and verdict.witness is None:
                return f"{mem.name}: {name} failed without witness"
    return None


ACCEPTANCE_CHECKS = (
    ("criterion_01_curvature_constants", _check_curvature_constants),
    ("criterion_02_effective_diameter", _check_effective_diameter),
    ("criterion_03_reflectiveness", _check_reflectiveness),
    ("criterion_04_lichnerowicz_sharpness", _check_lichnerowicz_sharpness),
    ("criterion_05_factorization_round_trip", _check_factorization_round_trip),
    ("criterion_06_structural_suite", _check_structural_suite),
    ("criterion_07_orbit_certificate", _check_orbit_certificate),
    ("criterion_08_lp_oracle_equivalence", _check_oracle_equivalence),
    ("criterion_09_bakry_emery", _check_bakry_emery),
    ("criterion_10_classification", _check_classification),
)

INVARIANT_CHECKS = (
    ("graph_core.metric_axioms", _check_metric_axioms),
    ("graph_core.side_partition_cover", _check_side_partition_cover),
    ("graph_core.effective_diameter_rows", _check_effective_diameter_rows),
    ("graph_core.convex_implies_isometric", _check_convex_implies_isometric),
    ("graph_core.isomorphism_properties", _check_isomorphism_properties),
    ("families.generator_validation", _check_generator_validation),
    ("families.known_isomorphisms", _check_known_isomorphisms),
    ("families.product_distance_additivity", _check_product_distance_additivity),
    ("families.dsl_round_trip", _check_dsl_round_trip),
    ("spectral.trace_identities", _check_trace_identities),
    ("spectral.lichnerowicz_inequality", _check_lichnerowicz_inequality),
    ("spectral.reflective_sharp_identity", _check_reflective_sharp_identity),
    ("spectral.distance_regular_recount", _check_distance_regular_recount),
    ("ollivier.optimizer_certificates", _check_optimizer_certificates),
    ("ollivier.lipschitz_extension", _check_lipschitz_extension),
    ("ollivier.long_range_lower_bound", _check_long_range_lower_bound),
    ("ollivier.formula_agreement", _check_curvature_formula_agreement),
    ("reflective.reflection_axioms", _check_reflection_axioms),
    ("reflective.candidate_uniqueness", _check_candidate_uniqueness),
    ("reflective.parallel_equivalence", _check_parallel_equivalence),
    ("reflective.parallel_remark", _check_parallel_remark),
    ("reflective.sharp_structure", _check_sharp_structure),
    ("factorization.product_round_trip", _check_product_round_trip),
    ("factorization.factor_arithmetic", _check_factor_arithmetic),
    ("factorization.reflectiveness_transfer", _check_reflectiveness_transfer),
    ("factorization.locally_disconnected_nonprime",
     _check_locally_disconnected_nonprime),
    ("bakry_emery.form_properties", _check_form_properties),
    ("bakry_emery.scale_invariance", _check_scale_invariance),
    ("bakry_emery.vertex_transitive_consistency",
     _check_vertex_transitive_consistency),
    ("bakry_emery.diameter_bound", _check_diameter_bound),
    ("cli.report_determinism", _check_report_determinism),
    ("cli.verdict_witnesses", _check_verdict_witnesses),
)


def _run_one(name, fn, ctx: Ctx) -> CheckResult:
    t0 = time.time()
    try:
        witness = fn(ctx)
    except Exception as exc:  # a crash is a failed check, not a crash of the suite
        witness = f"{type(exc).__name__}: {exc}"
    return CheckResult(name, witness is None, witness, time.time() - t0)


def _make_ctx(corpus, tol, max_lp_support) -> Ctx:
    standard = corpus is None
    if corpus is None:
        corpus = standard_corpus()
    return Ctx(corpus=tuple(corpus), tol=tol,
               max_lp_support=max_lp_support, standard=standard)


def run_acceptance_checks(corpus=None, tol: float = 1e-8,
                          max_lp_support: int = 10):
    ctx = _make_ctx(corpus, tol, max_lp_support)
    if not ctx.corpus:
        return []
    return [_run_one(name, fn, ctx) for name, fn in ACCEPTANCE_CHECKS]


def run_all_checks(corpus=None, tol: float = 1e-8, max_lp_support: int = 10):
    """Acceptance criteria plus every module invariant suite, one table."""
    ctx = _make_ctx(corpus, tol, max_lp_support)
    if not ctx.corpus:
        return []
    results = [_run_one(name, fn, ctx) for name, fn in ACCEPTANCE_CHECKS]
    results += [_run_one(name, fn, ctx) for name, fn in INVARIANT_CHECKS]
    return results
