import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from gcurv import ollivier, reflective
from gcurv.errors import (
    DisconnectedError,
    InternalCheckError,
    InvalidParameterError,
    NotAdjacentError,
    NotReflectiveError,
)
from gcurv.families import (
    cartesian_product,
    cocktail_party,
    complete_graph,
    cycle,
    gosset,
    hypercube,
    johnson,
    parse_family,
    path_graph,
    schlafli,
)
from gcurv.graphs import build_graph, induced_subgraph, is_locally_connected, side_partition
from gcurv.ollivier import (
    edge_curvature,
    long_range_curvatures,
    min_assignment_cost,
    min_edge_curvature,
)
from gcurv.reflective import (
    _automorphism_witness,
    are_parallel,
    candidate_reflection,
    distance_eigenfunction_check,
    find_reflection,
    is_reflective,
    matching_structure_check,
    pair_orbit_certificate,
    reflection_generators,
    side_classes,
    sphere_isometry_witness,
    triangle_matching_check,
    vxy_convex_reflective_check,
)
from gcurv.verify import STANDARD_CORPUS


@pytest.mark.parametrize("search", [find_reflection, candidate_reflection])
@pytest.mark.parametrize("x, y", [(-1, 3), (3, -1), (0.0, 1), (0, 8)])
def test_reflection_search_refuses_a_non_vertex(search, x, y):
    # -1 would read vertex 7 of Q 3 and 0.0 would fail inside the adjacency test
    g = hypercube(3)
    with pytest.raises(InvalidParameterError):
        search(g, x, y)
    assert not any(isinstance(k, tuple) and k[0] == "refl" for k in g.cache)


def test_octahedron_is_reflective(octahedron):
    verdict = is_reflective(octahedron)
    assert verdict.reflective
    assert verdict.counterexample is None


def test_cycle5_counterexample():
    verdict = is_reflective(cycle(5))
    assert not verdict.reflective
    assert verdict.counterexample == (0, 1)


def test_path_not_reflective():
    assert not is_reflective(path_graph(4)).reflective


def test_reflection_mapping_octahedron(octahedron):
    found = find_reflection(octahedron, 0, 2)
    assert found.reflection is not None
    # antipodal pairs 0-1 and 2-3 swap across the edge, the rest stay
    assert found.reflection.mapping == (2, 3, 0, 1, 4, 5)


def test_reflection_swaps_endpoints_and_fixes_middle(q3):
    x, y = q3.edges[0]
    m = find_reflection(q3, x, y).reflection.mapping
    assert m[x] == y and m[y] == x
    sp = side_partition(q3, x, y)
    assert all(m[v] == v for v in sp.middle)
    assert {m[v] for v in sp.side_x} == set(sp.side_y)


def test_reflection_is_involution(j52):
    for (x, y) in j52.edges[:6]:
        m = find_reflection(j52, x, y).reflection.mapping
        assert all(m[m[v]] == v for v in range(j52.n))


def test_candidate_agrees_with_search(octahedron):
    for (x, y) in octahedron.edges:
        cand = candidate_reflection(octahedron, x, y)
        found = find_reflection(octahedron, x, y)
        assert cand.reflection.mapping == found.reflection.mapping


def test_failed_search_names_an_axiom():
    search = find_reflection(cycle(5), 0, 1)
    assert search.reflection is None
    assert search.failed_axiom


def test_parallel_relation_octahedron(octahedron):
    # the opposite edge of a square face is the reflection partner
    assert are_parallel(octahedron, (0, 2), (0, 2))
    m = find_reflection(octahedron, 0, 2).reflection.mapping
    for v in side_partition(octahedron, 0, 2).side_x:
        assert are_parallel(octahedron, (0, 2), (v, m[v]))


@pytest.mark.parametrize("text", ["Q 3", "J 5 2", "KB 2 3", "petersen", "( C 5 x K 2 )"])
def test_are_parallel_reads_the_first_edge_through_its_sides(text):
    # every ordered pair of directed edges, reflective or not
    g = parse_family(text).build()
    dirs = [e for (x, y) in g.edges for e in ((x, y), (y, x))]
    for e1 in dirs:
        sp = side_partition(g, *e1)
        for e2 in dirs:
            assert are_parallel(g, e1, e2) == (e2[0] in sp.side_x and e2[1] in sp.side_y)


def test_pair_orbit_certificate(octahedron, j52):
    assert pair_orbit_certificate(octahedron)
    assert pair_orbit_certificate(j52)


def test_matching_structure_octahedron(octahedron):
    kappa = Fraction(4)
    for (x, y) in octahedron.edges:
        verdict = matching_structure_check(octahedron, x, y, kappa)
        assert verdict.ok, verdict.note


def test_matching_structure_rejects_non_integer():
    verdict = matching_structure_check(
        cocktail_party(3), 0, 2, Fraction(7, 2),
    )
    assert not verdict.ok
    assert verdict.note


def test_distance_eigenfunction_octahedron(octahedron):
    for x in range(octahedron.n):
        assert distance_eigenfunction_check(octahedron, x, Fraction(4))


def _eigenfunction_by_fractions(g, x, K):
    """The identity in rational arithmetic, as the integer check replaced it."""
    dx = g.dist_rows()[x]
    return all(
        Fraction(sum(dx[w] - dx[v] for w in g.neighbors[v])) == g.degree(x) - Fraction(K) * dx[v]
        for v in range(g.n)
    )


@given(connected_graphs(max_n=12), st.data())
@settings(max_examples=200, deadline=None)
def test_distance_eigenfunction_check_matches_the_fraction_formula(g, data):
    x, v = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
    dx = g.dist_rows()[x]
    lap = sum(dx[w] - dx[v] for w in g.neighbors[v])
    # the K that makes the identity hold at v, when v is not x, then moved off it
    exact = Fraction(g.degree(x) - lap, dx[v]) if dx[v] else Fraction(data.draw(st.integers(0, 9)))
    K = data.draw(st.sampled_from([
        exact, exact + Fraction(1, 7), int(exact), float(exact), Fraction(7, 2), 3.5, 0.1,
    ]))
    assert distance_eigenfunction_check(g, x, K) == _eigenfunction_by_fractions(g, x, K)


@pytest.mark.parametrize("expr", ["CP 3", "HQ 5"])
def test_distance_eigenfunction_check_refuses_a_near_constant(expr):
    g = parse_family(expr).build()
    K = min_edge_curvature(g).value
    for x in range(g.n):
        assert distance_eigenfunction_check(g, x, K)
        for q in (1, 2, 3, 10**12):
            for near in (K - Fraction(1, q), K + Fraction(1, q), float(K + Fraction(1, q))):
                assert not distance_eigenfunction_check(g, x, near)
                assert not _eigenfunction_by_fractions(g, x, near)


def test_triangle_matching(octahedron):
    for (x, y) in octahedron.edges:
        assert triangle_matching_check(octahedron, x, y)


def test_triangle_matching_requires_adjacency(octahedron):
    with pytest.raises(NotAdjacentError):
        triangle_matching_check(octahedron, 0, 1)


def _assignment_triangle_matching(g, x, y):
    """triangle_matching_check with the matching decided by an assignment:
    a perfect one along graph edges costs 0 when each edge costs 0 and each
    other pair 1."""
    kappa = edge_curvature(g, x, y).value
    common = sum(1 for w in g.neighbors[x] if g.adjacent(w, y))
    if common != kappa - 2:
        return common > kappa - 2
    left = [w for w in g.neighbors[x] if w != y and not g.adjacent(w, y)]
    right = [w for w in g.neighbors[y] if w != x and not g.adjacent(w, x)]
    if len(left) != len(right):
        return False
    return min_assignment_cost([[0 if g.adjacent(a, b) else 1 for b in right]
                                for a in left]) == 0


@pytest.mark.parametrize("expr", STANDARD_CORPUS)
def test_triangle_matching_agrees_with_the_assignment_reference(expr):
    g = parse_family(expr).build()
    min_edge_curvature(g)  # orbit records, so each edge's value is carried
    for (x, y) in g.edges:
        assert triangle_matching_check(g, x, y) == _assignment_triangle_matching(g, x, y)


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=60, deadline=None)
def test_triangle_matching_agrees_with_the_assignment_reference_on_random_graphs(g):
    for (x, y) in g.edges:
        assert triangle_matching_check(g, x, y) == _assignment_triangle_matching(g, x, y)


def test_vxy_check_octahedron(octahedron):
    for (x, y) in octahedron.edges:
        assert vxy_convex_reflective_check(octahedron, x, y)
        assert vxy_convex_reflective_check(octahedron, y, x)


def test_vxy_check_rejects_non_reflective():
    with pytest.raises(NotReflectiveError):
        vxy_convex_reflective_check(cycle(5), 0, 1)


def test_sphere_isometry_witness_names_a_sphere_or_a_cap(octahedron):
    assert sphere_isometry_witness(octahedron) is None
    # C 5: no edge joins the sphere {1, 4} of vertex 0
    assert sphere_isometry_witness(cycle(5)) == (0, None)
    # K 1,1,3: every sphere is isometric, but the cap of 1 away from 0 is {3, 4}
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert sphere_isometry_witness(g) == (1, 0)


def _every_vertex_sphere_witness(g):
    """sphere_isometry_witness by a scan of every vertex."""
    dist = g.dist_rows()
    for v in range(g.n):
        if not reflective.is_isometric_subset(g, g.neighbors[v]):
            return (v, None)
        for w in range(g.n):
            # w == v gives the sphere itself, already found isometric
            cap = [u for u in g.neighbors[v] if dist[u][w] == dist[v][w] + 1]
            if len(cap) >= 2 and not reflective.is_isometric_subset(g, cap):
                return (v, w)
    return None


def test_sphere_witness_of_vertex_zero_matches_every_vertex_scan():
    graphs = [parse_family(e).build() for e in STANDARD_CORPUS]
    reflective_graphs = [g for g in graphs if is_reflective(g).reflective]
    witnesses = [sphere_isometry_witness(g) for g in reflective_graphs]
    assert witnesses == [_every_vertex_sphere_witness(g) for g in reflective_graphs]
    # the corpus exercises both verdicts
    assert None in witnesses and (0, None) in witnesses


def test_sphere_witness_reads_vertex_zero_alone_on_gosset(gosset_graph, monkeypatch):
    seen = []
    real = reflective.is_isometric_subset
    monkeypatch.setattr(reflective, "is_isometric_subset",
                        lambda g, s: seen.append(set(s)) or real(g, s))
    assert sphere_isometry_witness(gosset_graph) is None
    ball = set(gosset_graph.neighbors[0])
    # the unit sphere first, then caps, all inside vertex 0's neighborhood
    assert seen[0] == ball and len(seen) > 1
    assert all(s <= ball for s in seen)


def test_products_of_reflective_factors_are_reflective():
    prod = cartesian_product(complete_graph(2), johnson(4, 2))
    assert is_reflective(prod).reflective


def test_product_with_non_reflective_factor_fails():
    prod = cartesian_product(cycle(5), complete_graph(2))
    assert not is_reflective(prod).reflective


@given(connected_graphs(min_n=2, max_n=6))
@settings(max_examples=30, deadline=None)
def test_returned_reflections_are_automorphisms(g):
    edge_set = set(g.edges)
    for (x, y) in g.edges[:3]:
        search = find_reflection(g, x, y)
        if search.reflection is None:
            continue
        m = search.reflection.mapping
        image = {tuple(sorted((m[u], m[v]))) for (u, v) in g.edges}
        assert image == edge_set
        assert all(m[m[v]] == v for v in range(g.n))


@given(connected_graphs(min_n=2, max_n=6))
@settings(max_examples=25, deadline=None)
def test_parallel_is_reflexive_on_reflective_graphs(g):
    if not is_reflective(g).reflective:
        return
    for e in g.edges[:4]:
        assert are_parallel(g, e, e)


def test_automorphism_witness_is_lexicographically_first():
    g = build_graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (2, 4), (3, 4)])
    search = find_reflection(g, 0, 2)
    assert search.failed_axiom == "automorphism"
    assert search.witness == (1, 4)


def _validate_by_pair_scan(g, mapping, x, y):
    """Reference: every axiom checked with the full O(n^2) adjacency scan."""
    n = g.n
    for u in range(n):
        pu = mapping[u]
        for v in range(u + 1, n):
            if g.adjacent(u, v) != g.adjacent(pu, mapping[v]):
                return ("automorphism", (u, v))
    for v in range(n):
        if mapping[mapping[v]] != v:
            return ("involution", v)
    if mapping[x] != y:
        return ("endpoint", x)
    sp = side_partition(g, x, y)
    sy_set = frozenset(sp.side_y)
    for xp in sp.side_x:
        for w in g.neighbors[xp]:
            if w in sy_set and w != mapping[xp]:
                return ("cross-edges", (xp, w))
        img = mapping[xp]
        if img not in sy_set or not g.adjacent(xp, img):
            return ("cross-edges", (xp, img))
    for z in sp.middle:
        if mapping[z] != z:
            return ("middle", z)
    return None


@st.composite
def graphs_with_involution(draw):
    """A graph, a mapping and an edge.  The mapping is a random involution,
    or one that moves only two or three vertices: a transposition or a
    3-cycle."""
    g = draw(connected_graphs(min_n=2, max_n=7))
    order = draw(st.permutations(range(g.n)))
    mapping = list(range(g.n))
    kind = draw(st.sampled_from(["involution", "transposition", "3-cycle"]))
    if kind == "3-cycle" and g.n >= 3:
        a, b, c = order[:3]
        mapping[a], mapping[b], mapping[c] = b, c, a
    else:
        swaps = draw(st.integers(0, g.n // 2)) if kind == "involution" else 1
        for i in range(swaps):
            a, b = order[2 * i], order[2 * i + 1]
            mapping[a], mapping[b] = b, a
    x, y = draw(st.sampled_from(g.edges))
    if draw(st.booleans()):
        x, y = y, x
    return g, tuple(mapping), x, y


# mappings that move two or three vertices of a path or a star and break an
# edge at a fixed vertex: 0 in the first three cases, 2 in the last one
_P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
_STAR = build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


@example((_P4, (0, 2, 1, 3), 0, 1))
@example((_P4, (0, 2, 3, 1), 1, 2))
@example((_STAR, (0, 1, 4, 3, 2), 0, 3))
@example((_P4, (1, 0, 2, 3), 0, 1))
@given(graphs_with_involution())
@settings(max_examples=300, deadline=None)
def test_validate_matches_full_pair_scan(case):
    g, mapping, x, y = case
    cand = candidate_reflection(g, x, y).reflection
    for m in [mapping] + ([] if cand is None else [cand.mapping]):
        scan = _validate_by_pair_scan(g, m, x, y)
        expected = scan[1] if scan is not None and scan[0] == "automorphism" else None
        assert _automorphism_witness(g, m) == expected


@given(connected_graphs(min_n=2, max_n=8))
@settings(max_examples=150, deadline=None)
def test_every_candidate_meets_all_axioms_but_automorphism(g):
    # find_reflection tests a built candidate only for being an automorphism
    for (u, v) in g.edges:
        for x, y in ((u, v), (v, u)):
            cand = candidate_reflection(g, x, y).reflection
            if cand is None:
                continue
            scan = _validate_by_pair_scan(g, cand.mapping, x, y)
            assert scan is None or scan[0] == "automorphism"


@pytest.mark.parametrize("build", [
    schlafli,
    lambda: johnson(5, 2),
    lambda: cartesian_product(complete_graph(2), johnson(4, 2)),
])
def test_side_memo_matches_uncached_check(build):
    # the class's first member stands for every member in criterion_06
    g, fresh = build(), build()
    for members in side_classes(g).values():
        verdict = vxy_convex_reflective_check(g, *members[0])
        for (x, y) in members:
            assert vxy_convex_reflective_check(fresh, x, y) == verdict


def test_gosset_side_memo_holds_one_entry_per_side():
    g = gosset()
    classes = side_classes(g)
    assert len(classes) == 126
    assert all(len(members) == 12 for members in classes.values())
    for (side_x, side_y), members in classes.items():
        for (x, y) in members:
            sp = side_partition(g, x, y)
            assert (sp.side_x, sp.side_y) == (side_x, side_y)


def test_side_classes_list_members_in_edge_order(octahedron):
    dirs = [e for (x, y) in octahedron.edges for e in ((x, y), (y, x))]
    classes = side_classes(octahedron)
    assert sorted(e for members in classes.values() for e in members) == sorted(dirs)
    for members in classes.values():
        assert members == sorted(members, key=dirs.index)
    assert side_classes(octahedron) is classes


def test_gosset_validates_each_mapping_once(monkeypatch):
    verdicts = []
    witness = reflective._automorphism_witness

    def counting(g, mapping):
        verdicts.append(witness(g, mapping))
        return verdicts[-1]

    monkeypatch.setattr(reflective, "_automorphism_witness", counting)
    g = gosset()
    assert is_reflective(g).reflective
    assert verdicts == [None] * 27  # the edges at vertex 0 decide the verdict
    # the orbit route closes pairs under the same 27 proven mappings and
    # tests none of them again
    min_edge_curvature(g)
    assert verdicts == [None] * 27


def _memo_free_search(g, x, y):
    """(mapping, axiom, witness) of one search on a freshly built graph."""
    fresh = build_graph(g.n, g.edges)
    cand = candidate_reflection(fresh, x, y)
    if cand.reflection is None:
        return (None, "cross-edges", cand.violator)
    pair = _automorphism_witness(fresh, cand.reflection.mapping)
    if pair is None:
        return (cand.reflection.mapping, None, None)
    return (None, "automorphism", pair)


@given(connected_graphs(min_n=2, max_n=8))
@settings(max_examples=80, deadline=None)
def test_side_class_memo_matches_a_memo_free_search(g):
    expected = {e: _memo_free_search(g, *e) for e in g.edges}
    for (u, v) in g.edges:
        for x, y in ((u, v), (v, u)):
            found = find_reflection(g, x, y)
            mapping = None if found.reflection is None else found.reflection.mapping
            assert (mapping, found.failed_axiom, found.witness) == expected[u, v]
            if found.reflection is not None:
                assert found.reflection.edge == (x, y)
    first = next((e for e in g.edges if expected[e][0] is None), None)
    verdict = is_reflective(build_graph(g.n, g.edges))
    assert verdict == (first is None, first)
    assert is_reflective(g) == verdict


@pytest.mark.parametrize("build, searches", [(lambda: hypercube(6), 192), (gosset, 756)])
def test_one_candidate_per_edge(monkeypatch, build, searches):
    calls = []
    build_candidate = reflective.candidate_reflection

    def counting(g, x, y):
        calls.append((x, y))
        return build_candidate(g, x, y)

    monkeypatch.setattr(reflective, "candidate_reflection", counting)
    g = build()
    assert is_reflective(g).reflective
    assert len(calls) == g.degree(0)  # Q 6: 6; Gosset: 27
    for (x, y) in g.edges:
        find_reflection(g, y, x)
    assert len(calls) == searches == g.m
    assert len(set(calls)) == g.m
    for (x, y) in g.edges:  # both orientations read the one search
        find_reflection(g, x, y)
        find_reflection(g, y, x)
    assert len(calls) == g.m


# --- vertex 0 speaks for a connected graph ---

def _every_edge_verdict(g):
    """is_reflective by a search of every edge, on a fresh graph."""
    fresh = build_graph(g.n, g.edges)
    first = next((e for e in fresh.edges if find_reflection(fresh, *e).reflection is None), None)
    return (first is None, first)


@pytest.mark.parametrize("expr", STANDARD_CORPUS + ("( P 3 x K 2 )",))
def test_vertex_zero_verdict_matches_every_edge_search(expr):
    g = parse_family(expr).build()
    assert is_reflective(g) == _every_edge_verdict(g)


def test_induced_subgraph_refuses_a_disconnected_subset():
    # every Graph is connected, so vertex 0's edges speak for every graph;
    # vertex 0 would be isolated in P 4 restricted to {0, 2, 3}
    with pytest.raises(DisconnectedError, match=r"component \[0\]\.\.\. vs \[1, 2\]\.\.\."):
        induced_subgraph(path_graph(4), [0, 2, 3])
    with pytest.raises(DisconnectedError):
        induced_subgraph(path_graph(4), [0, 3])


def _every_reflection(g):
    """The distinct reflections of every edge, found on a fresh graph."""
    fresh = build_graph(g.n, g.edges)
    maps = [find_reflection(fresh, *e).reflection for e in fresh.edges]
    assert all(found is not None for found in maps)
    return list(dict.fromkeys(found.mapping for found in maps))


def _ordered_orbit(gens, seed):
    """The ordered pairs that the forward closure of seed under gens reaches."""
    seen, frontier = {seed}, [seed]
    while frontier:
        images = {(mp[u], mp[v]) for (u, v) in frontier for mp in gens}
        frontier = list(images - seen)
        seen |= images
    return seen


def _orbit_sizes(g, gens):
    """Per distance, how many ordered pairs the closure of its first pair reaches."""
    n, dist = g.n, g.dist_rows()
    sizes = {}
    for k in sorted({d for row in dist for d in row}):
        seed = next((u, v) for u in range(n) for v in range(n) if dist[u][v] == k)
        sizes[k] = len(_ordered_orbit(gens, seed))
    return sizes


def _reflective_locally_connected(expr):
    g = parse_family(expr).build()
    return is_reflective(g).reflective and is_locally_connected(g)[0]


ORBIT_MEMBERS = [e for e in STANDARD_CORPUS if _reflective_locally_connected(e)] + ["K 12"]


@pytest.mark.parametrize("expr", ORBIT_MEMBERS)
def test_vertex_zero_reflections_close_pairs_like_every_reflection(expr):
    g = parse_family(expr).build()
    every = _every_reflection(g)
    at_zero = reflection_generators(g)
    assert at_zero == [find_reflection(g, 0, w).reflection.mapping for w in g.neighbors[0]]
    orbits = _orbit_sizes(g, every)
    assert _orbit_sizes(g, at_zero) == orbits
    classes = {k: sum(row.count(k) for row in g.dist_rows()) for k in orbits}
    assert pair_orbit_certificate(g) == (orbits == classes)


def _unordered_pair_orbits(g, gens):
    """How many orbits the group generated by gens has on pairs x < y."""
    seen, orbits = set(), 0
    for seed in ((x, y) for x in range(g.n) for y in range(x + 1, g.n)):
        if seed in seen:
            continue
        orbits += 1
        seen.add(seed)
        frontier = [seed]
        while frontier:
            images = {tuple(sorted((mp[u], mp[v]))) for (u, v) in frontier for mp in gens}
            frontier = list(images - seen)
            seen |= images
    return orbits


REFLECTIVE_MEMBERS = [e for e in STANDARD_CORPUS
                      if is_reflective(parse_family(e).build()).reflective] + ["K 12"]


@pytest.mark.parametrize("expr", REFLECTIVE_MEMBERS)
def test_orbit_route_solves_one_lp_per_orbit_of_every_reflection(monkeypatch, expr):
    # vertex 0's reflections split no orbit of the group of every reflection,
    # locally connected or not
    solves = []
    solve = ollivier.solve_lipschitz_lp
    monkeypatch.setattr(ollivier, "solve_lipschitz_lp",
                        lambda g, lp, *plan: solves.append(lp) or solve(g, lp, *plan))
    g = parse_family(expr).build()
    min_edge_curvature(g)
    long_range_curvatures(g)
    # the minimum solves only the edge roots its bounds pick; asking for
    # every edge solves the rest, one LP per orbit
    for (x, y) in g.edges:
        edge_curvature(g, x, y)
    assert len(solves) == _unordered_pair_orbits(g, _every_reflection(g))


def test_both_orbit_consumers_refuse_an_unproven_generator():
    g = parse_family("J 5 2").build()
    assert is_reflective(g).reflective and is_locally_connected(g)[0]
    w = g.neighbors[0][0]
    far = next(v for v in range(g.n) if g.distance(0, v) == 2)
    mapping = list(range(g.n))
    mapping[w], mapping[far] = far, w  # sends the edge (0, w) to a far pair
    g.cache["refl", 0, w] = (tuple(mapping), None, None)
    with pytest.raises(InternalCheckError, match="not an involutive automorphism"):
        pair_orbit_certificate(g)
    with pytest.raises(InternalCheckError, match="not an involutive automorphism"):
        min_edge_curvature(g)


# --- one pair closure: orbit_roots and the certificate that reads it ---

def _planted(monkeypatch, gens):
    monkeypatch.setattr(reflective, "reflection_generators", lambda g: gens)


@pytest.mark.parametrize("seed", range(40))
def test_reversible_roots_match_an_ordered_pair_search(monkeypatch, seed):
    # every permutation is an automorphism of K n, so any planted set of
    # them is a valid generating set, involutions or not
    rng = random.Random(seed)
    n = rng.randint(2, 11)
    gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
    _planted(monkeypatch, gens)
    g = complete_graph(n)
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    roots, reversible = reflective.orbit_roots(g, pairs)
    reach = g.cache["orbits"][1]
    expected_roots = {}
    for (x, y) in pairs:
        orbit = _ordered_orbit(gens, (x, y))
        unordered = {(min(p), max(p)) for p in orbit}
        expected_roots[x, y] = min(unordered)
        if (x, y) == min(unordered):
            assert ((x, y) in reversible) == ((y, x) in orbit)
    assert roots == [expected_roots[p] for p in pairs]
    assert reversible <= set(roots)
    for pair, (parent, sigma, side, root) in reach.items():
        # side 1: the chain from the root reaches the pair turned over
        if parent is None:
            assert (pair, side, root) == (pair, 0, pair)
            continue
        px, py = parent
        image = (sigma[px], sigma[py])
        assert pair in (image, image[::-1])
        assert side == reach[parent][2] ^ (image != pair)
        assert root == reach[parent][3]


def _certificate_reference(g, gens):
    """Is every distance class of ordered pairs one orbit of the group of gens?"""
    sizes = _orbit_sizes(g, gens)
    return sizes == {k: sum(row.count(k) for row in g.dist_rows()) for k in sizes}


@pytest.mark.parametrize("expr", ["gosset", "schlafli", "J 6 3"])
def test_certificate_matches_the_ordered_orbits_under_planted_generators(monkeypatch, expr):
    at_zero = reflection_generators(parse_family(expr).build())
    rng = random.Random(expr)
    planted = [at_zero, at_zero[:1], at_zero[:2]]
    planted += [rng.sample(at_zero, rng.randint(1, len(at_zero))) for _ in range(8)]
    for _ in range(4):  # products of two reflections: automorphisms, not involutions
        pairs = [rng.sample(at_zero, 2) for _ in range(rng.randint(1, 6))]
        planted.append([tuple(s[t[v]] for v in range(len(s))) for s, t in pairs])
    verdicts = []
    for gens in planted:
        _planted(monkeypatch, gens)
        g = parse_family(expr).build()
        verdicts.append(pair_orbit_certificate(g))
        assert verdicts[-1] == _certificate_reference(g, gens)
    assert verdicts[0] and not verdicts[1] and set(verdicts) == {True, False}


def test_certificate_records_every_pair_of_a_fresh_graph():
    g = gosset()
    assert pair_orbit_certificate(g)
    reach = g.cache["orbits"][1]
    assert len(reach) == 56 * 55 // 2 == 1540
    roots = {record[3] for record in reach.values()}
    assert sorted(g.distance(*root) for root in roots) == [1, 2, 3]


def test_certificate_reads_the_records_of_the_curvature_calls():
    g = gosset()
    min_edge_curvature(g)
    long_range_curvatures(g)
    reach = g.cache["orbits"][1]
    records = dict(reach)
    assert len(records) == 1540
    assert pair_orbit_certificate(g)
    assert reach == records
    assert all(reach[p] is records[p] for p in records)
