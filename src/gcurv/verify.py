"""Standard corpus and the named check suite behind verify-theorems.

Each check returns a witness string on failure and None on success; the
runner wraps them with timing so the CLI can print a pass/fail table.
Every check quantifies over the corpus it is given: a property that holds
on fixed inputs whatever the corpus is a unit test, not a check.  A corpus
is a list of family expressions, and what the paper predicts of a member
is read off its expression's prime factors (_predict), so the standard
corpus and a user's corpus are checked alike.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from .bakry_emery import (
    _inner_gamma2,
    _pencil_psd_nullity,
    bakry_emery_curvature,
    be_effective_bound_report,
    be_rigidity_check,
    gamma2_matches_symbolic,
)
from .classify import classify
from .errors import NonpositiveCurvatureError, ParseError
from .factorization import factorize
from .families import FamilySpec, cartesian_product, parse_family
from .graphs import (
    Graph,
    are_isomorphic,
    effective_diameter,
    is_convex_subset,
    is_isometric_subset,
    is_locally_connected,
)
from .ollivier import (
    brute_force_curvature_oracle,
    curvature_from_intersection_array,
    edge_curvature,
    long_range_curvatures,
    min_edge_curvature,
    verify_optimality_certificate,
)
from .reflective import (
    are_parallel,
    distance_eigenfunction_check,
    find_reflection,
    is_reflective,
    matching_structure_check,
    pair_orbit_certificate,
    parallel_gradient_identity,
    parallel_in_ball,
    side_classes,
    sphere_isometry_witness,
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
    theta_condition,
)


@dataclass(frozen=True)
class CorpusMember:
    spec: FamilySpec
    graph: Graph

    @property
    def name(self) -> str:
        return self.spec.label()


# the graphs the paper names, their products, and graphs that miss the list
STANDARD_CORPUS = (
    "CP 2", "CP 3", "CP 4", "CP 5",
    "J 2 1", "J 4 2", "J 5 2", "J 6 2", "J 6 3", "J 7 3",
    "HQ 3", "HQ 4", "HQ 5", "HQ 6", "schlafli", "gosset",
    "Q 1", "Q 2", "Q 3", "Q 4", "Q 5", "H 2 3",
    "( J 4 2 x CP 3 )", "( K 2 x J 4 2 )", "( Q 2 x CP 3 )",
    "C 5", "C 6", "KB 3 3", "petersen", "P 4", "( C 5 x K 2 )", "( P 4 x K 2 )",
)


def load_corpus(lines) -> tuple:
    """Corpus members from family expressions, one per line.

    Blank lines and lines starting with '#' are skipped.  Every member needs
    an edge, so a graph with fewer than two vertices is refused.
    """
    members = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            spec = parse_family(line)
        except ParseError as exc:
            raise ParseError(f"corpus line {lineno}: {exc}", line=lineno)
        g = spec.build()
        if g.n < 2:
            raise ParseError(f"corpus line {lineno}: {spec.label()} "
                             "needs at least two vertices")
        members.append(CorpusMember(spec, g))
    if not members:
        raise ParseError("corpus file lists no graphs")
    return tuple(members)


def standard_corpus() -> tuple:
    return load_corpus(STANDARD_CORPUS)


class Prediction(NamedTuple):
    """What the paper's theorems say of a member, read off its prime factors.

    named: every factor is a cocktail party, Johnson, halved cube, Schlafli
    or Gosset graph, which is exactly when the member is reflective.  sharp:
    named with equal factor curvatures, which is exactly when the effective
    diameter bound is attained.  kappa and diam_eff are None unless named.
    """

    named: bool
    kappa: Fraction | None
    sharp: bool
    diam_eff: Fraction | None


def _predict(mem: CorpusMember) -> Prediction:
    primes = mem.spec.prime_factors()
    kappas = [k for _, _, k in primes]
    if None in kappas:
        return Prediction(False, None, False, None)
    # a listed factor attains the bound: diam_eff = degree / kappa
    diam = sum(Fraction(2 * m, n * k) for n, m, k in primes)
    return Prediction(True, Fraction(min(kappas)), len(set(kappas)) == 1, diam)


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    witness: str | None
    seconds: float


def _lc(g: Graph) -> bool:
    return is_locally_connected(g)[0]


def _reflective_members(corpus):
    return (mem for mem in corpus if is_reflective(mem.graph).reflective)


# --- acceptance criteria ---

def _check_curvature_constants(corpus):
    for mem in corpus:
        pred = _predict(mem)
        if not pred.named:
            continue
        mec = min_edge_curvature(mem.graph)
        if mec.value != pred.kappa:
            return f"{mem.name}: kappa {mec.value} != {pred.kappa}"
        if mec.is_constant != pred.sharp:
            return (f"{mem.name}: curvature constant is {mec.is_constant}, "
                    f"{mec.min_edge} vs {mec.other_edge}")
        if mem.spec.kind == "product":
            continue
        dr = is_distance_regular(mem.graph)
        if dr.array is None:
            return f"{mem.name}: not distance regular, witness {dr.witness}"
        formula = curvature_from_intersection_array(dr.array)
        if formula != mec.value:
            return f"{mem.name}: 1+b0-b1 = {formula} != kappa {mec.value}"
    return None


def _check_effective_diameter(corpus):
    for mem in corpus:
        g, pred = mem.graph, _predict(mem)
        de = effective_diameter(g)
        if pred.named and de != pred.diam_eff:
            return f"{mem.name}: diam_eff {de} != {pred.diam_eff}"
        mec = min_edge_curvature(g)
        if mec.value <= 0:
            continue
        lhs, rhs = de * mec.value, Fraction(g.max_degree())
        if pred.sharp and lhs != rhs:
            return f"{mem.name}: diam_eff*kappa {lhs} != maxdeg {rhs}"
        if not pred.sharp and not lhs < rhs:
            return f"{mem.name}: expected strict bound, {lhs} vs {rhs}"
    return None


def _check_reflectiveness(corpus):
    for mem in corpus:
        v = is_reflective(mem.graph)
        if _predict(mem).named:
            if not v.reflective:
                return f"{mem.name}: not reflective at {v.counterexample}"
        elif v.reflective:
            return f"{mem.name}: unexpectedly reflective"
        elif v.counterexample is None:
            return f"{mem.name}: missing counterexample edge"
    return None


def _check_lichnerowicz_sharpness(corpus):
    for mem in corpus:
        g = mem.graph
        lich = is_lichnerowicz_sharp(g)
        if _predict(mem).sharp and _lc(g):
            if not lich.sharp:
                return f"{mem.name}: lam {lich.lam} vs kappa {lich.kappa_min}"
            ia = is_distance_regular(g).array
            if ia is None:
                return f"{mem.name}: expected an intersection array"
            th = theta_condition(g, ia)
            if not th.matches_b1_minus_1:
                return f"{mem.name}: theta {th.theta} misses b1-1"
        # the spectral gap must never undercut the curvature minimum
        if not lich.holds:
            return (f"{mem.name}: Lichnerowicz violation, "
                    f"lam {lich.lam} < kappa {lich.kappa_min}")
    return None


def _check_factorization_round_trip(corpus):
    for mem in corpus:
        fs = factorize(mem.graph)
        sizes = sorted((f.n, f.m) for f in fs)
        expected = sorted((n, m) for n, m, _ in mem.spec.prime_factors())
        if sizes != expected:
            return f"{mem.name}: factor sizes {sizes} != {expected}"
        if are_isomorphic(reduce(cartesian_product, fs), mem.graph) is None:
            return f"{mem.name}: factor product differs from the original"
    return None


def _check_structural_suite(corpus):
    for mem in corpus:
        # criterion_02 holds the predicted sharp members to the bound's equality
        if not _predict(mem).sharp:
            continue
        g = mem.graph
        kappa = min_edge_curvature(g).value
        if _lc(g):
            bad = sphere_isometry_witness(g)
            if bad is not None:
                v, w = bad
                part = "unit sphere" if w is None else f"cap away from {w}"
                return f"{mem.name}: vertex {v}: {part} not isometric"
        # these checks read only the edge's sides: one member per side class,
        # and every other member's gradient against the first's
        for members in side_classes(g).values():
            x, y = members[0]
            mv = matching_structure_check(g, x, y, kappa)
            if not mv.ok:
                return f"{mem.name} ({x},{y}): matching, {mv.note}"
            if not vxy_convex_reflective_check(g, x, y):
                return f"{mem.name} ({x},{y}): side structure"
            for e in members[1:]:
                if not parallel_gradient_identity(g, members[0], e):
                    return (f"{mem.name}: gradient identity fails for "
                            f"{members[0]} and {e}")
        for (x, y) in g.edges:
            if not triangle_matching_check(g, x, y):
                return f"{mem.name} ({x},{y}): triangle matching"
        for x in range(g.n):
            if not distance_eigenfunction_check(g, x, kappa):
                return f"{mem.name} vertex {x}: distance eigenfunction"
        for e in g.edges:
            for z in range(g.n):
                parallel_in_ball(g, e, z)  # raises on any internal failure
    return None


def _check_orbit_certificate(corpus):
    for mem in _reflective_members(corpus):
        if _lc(mem.graph) and not pair_orbit_certificate(mem.graph):
            return f"{mem.name}: pair orbit certificate failed"
    return None


def _check_oracle_equivalence(corpus):
    for mem in corpus:
        g = mem.graph
        for (x, y) in g.edges:
            val = brute_force_curvature_oracle(g, x, y)
            lp = edge_curvature(g, x, y).value
            if val != lp:
                return f"{mem.name} ({x},{y}): oracle {val} != lp {lp}"
    return None


def _check_bakry_emery(corpus):
    for mem in corpus:
        # a hypercube: every prime factor is K 2
        if any(p != (2, 1, 2) for p in mem.spec.prime_factors()):
            continue
        for x in range(mem.graph.n):
            # K(x) == 2: the pencil at r = 2 is positive semidefinite and singular
            psd, nullity = _pencil_psd_nullity(mem.graph, x, Fraction(2))
            if not (psd and nullity):
                return (f"{mem.name} vertex {x}: curvature "
                        f"{bakry_emery_curvature(mem.graph, x)}")
    positive = []
    for mem in corpus:
        try:
            rep = be_effective_bound_report(mem.graph)
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
    for mem in corpus:
        for x in range(mem.graph.n):
            if not gamma2_matches_symbolic(mem.graph, x):
                return f"{mem.name} vertex {x}: iterated form mismatch"
    return None


def _check_classification(corpus):
    for mem in corpus:
        for name, verdict in classify(mem.graph).theorem_verdicts.items():
            if not verdict.passed:
                witness = verdict.witness or "failed without witness"
                return f"{mem.name}: {name}: {witness}"
    return None


# --- graph_core invariants ---

def _check_metric_axioms(corpus):
    for mem in corpus:
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


def _check_effective_diameter_rows(corpus):
    for mem in corpus:
        g = mem.graph
        # every regular graph the family expressions build is vertex-transitive
        if g.is_regular() and len({sum(r) for r in g.dist_rows()}) != 1:
            return f"{mem.name}: row averages differ on a transitive graph"
    return None


def _check_convex_implies_isometric(corpus):
    for mem in corpus:
        g = mem.graph
        # every directed edge's side is the first side of its class
        for (side, _), members in side_classes(g).items():
            if is_convex_subset(g, side) and not is_isometric_subset(g, side):
                x, y = members[0]
                return f"{mem.name} ({x},{y}): convex side not isometric"
    return None


def _check_isomorphism_properties(corpus):
    for mem in corpus:
        if are_isomorphic(mem.graph, mem.graph) is None:
            return f"{mem.name}: no self isomorphism found"
    return None


# --- spectral invariants ---

def _check_trace_identities(corpus):
    for mem in corpus:
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


def _check_distance_regular_recount(corpus):
    for mem in corpus:
        g = mem.graph
        dr = is_distance_regular(g)
        recount = _recount_intersection_numbers(g)
        if dr.array is None:
            if recount is not None:
                return f"{mem.name}: verdict misses array {recount}"
        elif recount != (dr.array.b, dr.array.c):
            return f"{mem.name}: array {dr.array} vs recount {recount}"
    return None


# --- ollivier invariants ---

def _check_optimizer_certificates(corpus):
    for mem in corpus:
        g = mem.graph
        for (x, y) in g.edges:
            if not verify_optimality_certificate(g, edge_curvature(g, x, y)):
                return f"{mem.name} ({x},{y}): certificate rejected"
    return None


def _check_long_range_lower_bound(corpus):
    for mem in corpus:
        g = mem.graph
        mec = min_edge_curvature(g)
        if mec.value <= 0:
            continue
        for (x, y), cv in long_range_curvatures(g).items():
            if cv.value < mec.value:
                return f"{mem.name}: pair ({x},{y}) beats the edge minimum"
    return None


def _check_curvature_formula_agreement(corpus):
    for mem in _reflective_members(corpus):
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

def _check_reflection_axioms(corpus):
    for mem in _reflective_members(corpus):
        g = mem.graph
        edge_set = set(g.edges)
        # all axioms but the endpoint one read only the sides: check them on
        # the class's first member, then map every member onto that reflection
        for (side_x, side_y), members in side_classes(g).items():
            x, y = members[0]
            m = find_reflection(g, x, y).reflection.mapping
            if any(m[m[v]] != v for v in range(g.n)):
                return f"{mem.name} ({x},{y}): not an involution"
            image = {tuple(sorted((m[u], m[v]))) for (u, v) in g.edges}
            if image != edge_set:
                return f"{mem.name} ({x},{y}): not an automorphism"
            sx, sy = set(side_x), set(side_y)
            if any(m[v] != v for v in range(g.n) if v not in sx and v not in sy):
                return f"{mem.name} ({x},{y}): middle moves"
            if {m[v] for v in sx} != sy:
                return f"{mem.name} ({x},{y}): sides not exchanged"
            cross = {
                (u, v)
                for (u, v) in g.edges
                if (u in sx and v in sy) or (u in sy and v in sx)
            }
            swaps = {tuple(sorted((v, m[v]))) for v in sx}
            if cross != swaps:
                return f"{mem.name} ({x},{y}): cross edges differ from swaps"
            for (u, v) in members:
                if find_reflection(g, u, v).reflection.mapping != m:
                    return f"{mem.name} ({u},{v}): mapping differs from its class's"
                if m[u] != v or m[v] != u:
                    return f"{mem.name} ({u},{v}): endpoints not exchanged"
    return None


def _check_parallel_equivalence(corpus):
    """The parallel relation coincides with equality of side partitions.

    Hence it is an equivalence.  A relation row reads only its edge's sides,
    so one row per side class is scanned; a seeded sample of are_parallel
    calls is then held to the classes.
    """
    for mem in _reflective_members(corpus):
        g = mem.graph
        classes = side_classes(g)
        dirs = [e for (x, y) in g.edges for e in ((x, y), (y, x))]
        index = {e: i for i, members in enumerate(classes.values()) for e in members}
        for i, ((a, b), members) in enumerate(classes.items()):
            a, b = frozenset(a), frozenset(b)
            for e2 in dirs:
                if (e2[0] in a and e2[1] in b) != (index[e2] == i):
                    return (f"{mem.name}: relation disagrees with side classes "
                            f"at {members[0]} vs {e2}")
        rng = random.Random(len(dirs))
        for _ in range(min(2000, len(dirs) ** 2)):
            e1, e2 = rng.choice(dirs), rng.choice(dirs)
            if are_parallel(g, e1, e2) != (index[e1] == index[e2]):
                return f"{mem.name}: are_parallel({e1},{e2}) odd"
    return None


# --- factorization invariants ---

def _check_factor_arithmetic(corpus):
    for mem in corpus:
        g = mem.graph
        fs = factorize(g)
        if reduce(lambda a, f: a * f.n, fs, 1) != g.n:
            return f"{mem.name}: vertex counts do not multiply"
        if sum(f.max_degree() for f in fs) != g.max_degree():
            return f"{mem.name}: degrees do not add"
        if sum(effective_diameter(f) for f in fs) != effective_diameter(g):
            return f"{mem.name}: effective diameters do not add"
    return None


def _check_reflectiveness_transfer(corpus):
    for mem in corpus:
        whole = is_reflective(mem.graph).reflective
        parts = all(is_reflective(f).reflective for f in factorize(mem.graph))
        if whole != parts:
            return f"{mem.name}: transfer breaks ({whole} vs {parts})"
    return None


def _check_locally_disconnected_nonprime(corpus):
    for mem in _reflective_members(corpus):
        if not _lc(mem.graph) and len(factorize(mem.graph)) < 2:
            return f"{mem.name}: locally disconnected, reflective, yet prime"
    return None


# --- bakry_emery invariants ---

def _check_vertex_transitive_consistency(corpus):
    """Every vertex of a regular member has vertex 0's curvature, exactly.

    K(0) = 2 lam / a_den, with lam the least eigenvalue of vertex 0's integer
    reduced form: an algebraic integer, so K(0) is rational only when lam is
    the integer m nearest its float.  Then K(x) = r = 2m / a_den exactly when
    the pencil Gamma_2 - r Gamma at x is positive semidefinite and singular.
    """
    for mem in corpus:
        g = mem.graph
        if not g.is_regular():
            continue
        a_den = _inner_gamma2(g, 0)[1]
        r = Fraction(2 * round(bakry_emery_curvature(g, 0) * a_den / 2), a_den)
        for x in range(g.n):
            psd, nullity = _pencil_psd_nullity(g, x, r)
            if not (psd and nullity):
                if x == 0:
                    return f"{mem.name}: curvature at vertex 0 is irrational: equality undecided"
                return f"{mem.name}: vertex {x}: curvature is not {r}, vertex 0's"
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
    ("graph_core.effective_diameter_rows", _check_effective_diameter_rows),
    ("graph_core.convex_implies_isometric", _check_convex_implies_isometric),
    ("graph_core.isomorphism_properties", _check_isomorphism_properties),
    ("spectral.trace_identities", _check_trace_identities),
    ("spectral.distance_regular_recount", _check_distance_regular_recount),
    ("ollivier.optimizer_certificates", _check_optimizer_certificates),
    ("ollivier.long_range_lower_bound", _check_long_range_lower_bound),
    ("ollivier.formula_agreement", _check_curvature_formula_agreement),
    ("reflective.reflection_axioms", _check_reflection_axioms),
    ("reflective.parallel_equivalence", _check_parallel_equivalence),
    ("factorization.factor_arithmetic", _check_factor_arithmetic),
    ("factorization.reflectiveness_transfer", _check_reflectiveness_transfer),
    ("factorization.locally_disconnected_nonprime",
     _check_locally_disconnected_nonprime),
    ("bakry_emery.vertex_transitive_consistency",
     _check_vertex_transitive_consistency),
)


def _run_one(name, fn, corpus) -> CheckResult:
    t0 = time.time()
    try:
        witness = fn(corpus)
    except Exception as exc:  # a crash is a failed check, not a crash of the suite
        witness = f"{type(exc).__name__}: {exc}"
    return CheckResult(name, witness is None, witness, time.time() - t0)


def run_all_checks(corpus=None):
    """Acceptance criteria plus every module invariant suite, one table.

    No corpus selects the standard one.
    """
    corpus = standard_corpus() if corpus is None else tuple(corpus)
    if not corpus:
        return []
    return [_run_one(name, fn, corpus) for name, fn in ACCEPTANCE_CHECKS + INVARIANT_CHECKS]
