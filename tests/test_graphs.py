import random
from collections import deque
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from gcurv import graphs
from gcurv.bakry_emery import be_effective_bound_report
from gcurv.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GcurvError,
    InvalidParameterError,
    NonpositiveCurvatureError,
    ParseError,
    SelfLoopError,
)
from gcurv.families import (
    cocktail_party,
    complete_bipartite,
    complete_graph,
    cycle,
    hamming,
    hypercube,
    path_graph,
)
from gcurv.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    are_isomorphic,
    ball,
    build_graph,
    effective_diameter,
    induced_subgraph,
    is_convex_subset,
    is_isometric_subset,
    is_locally_connected,
    local_components,
    parse_edge_list,
    side_partition,
    sphere,
)
from gcurv.verify import standard_corpus


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(0, 1), (1, 1)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 0), (1, 2)])


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("n,edges", [
    (2, [(0, 1.0)]), (2, [("0", 1)]), (2.0, [(0, 1)]), ("2", [(0, 1)]),
])
def test_build_refuses_a_non_integer_vertex_count_or_label(n, edges):
    with pytest.raises(InvalidParameterError, match="is not a.* integer"):
        build_graph(n, edges)


def test_build_stores_integer_labels():
    g = build_graph(np.int64(3), [(0, True), (np.int64(2), 1)])
    assert g.edges == ((0, 1), (1, 2)) and g.neighbors == ((1,), (0, 2), (1,))
    assert {type(v) for e in g.edges for v in e} == {int}
    assert {type(v) for nb in g.neighbors for v in nb} == {int}
    assert type(g.n) is int


def test_build_refuses_edges_over_the_budget(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_EDGES", 2)
    with pytest.raises(ParseError, match="input budget of 2 edges"):
        build_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_parse_edge_list_k2():
    g = parse_edge_list("2 1\n0 1\n")
    assert g.n == 2 and g.m == 1


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# triangle\n3 3\n\n0 1\n1 2\n0 2\n")
    assert g.m == 3


def test_parse_edge_list_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("3 2\n0 1\n1 1\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("edge", ["1 5", "1 3", "-1 2"])
def test_parse_edge_list_reports_the_line_of_an_out_of_range_edge(edge):
    with pytest.raises(ParseError, match="out of range for n=3") as exc:
        parse_edge_list(f"3 2\n0 1\n{edge}\n")
    assert exc.value.line == 3


def test_parse_edge_list_reports_the_line_of_a_duplicate_edge():
    with pytest.raises(ParseError, match=r"duplicate edge \(2, 1\)") as exc:
        parse_edge_list("3 3\n0 1\n1 2\n2 1\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("bad,message", [
    (["2 2", "0 9", "1 0"], "self loop at vertex 2"),
    (["0 9", "2 2", "1 0"], r"edge \(0, 9\) out of range for n=4"),
    (["1 0", "0 9", "2 2"], r"duplicate edge \(1, 0\)"),
])
def test_parse_edge_list_reports_the_first_of_several_bad_edges(bad, message):
    text = "\n".join(["4 5", "0 1", "1 2", *bad])
    with pytest.raises(ParseError, match=message) as exc:
        parse_edge_list(text)
    assert exc.value.line == 4


def test_parse_edge_list_counts_comment_and_blank_lines_in_the_bad_line():
    text = "# header next\n\n3 3\n# edges\n0 1\n\n   # indented\n1 2\n\n2 2\n"
    with pytest.raises(ParseError, match="self loop at vertex 2") as exc:
        parse_edge_list(text)
    assert exc.value.line == 10


def test_parse_edge_list_blames_no_edge_for_an_empty_vertex_set():
    # with n = 0 every label is out of range, but the header is at fault
    with pytest.raises(ParseError, match="at least one vertex") as exc:
        parse_edge_list("0 1\n0 1\n")
    assert exc.value.line is None


@pytest.mark.parametrize("text,line", [
    ("1000000000 0\n", 1),
    (f"# big\n{MAX_VERTICES + 1} {MAX_VERTICES}\n", 2),
    (f"{MAX_VERTICES} {MAX_EDGES + 1}\n", 1),
])
def test_parse_edge_list_refuses_header_over_budget(monkeypatch, text, line):
    # refused from the header alone: nothing may be built
    monkeypatch.setattr(graphs, "build_graph",
                        lambda *a: pytest.fail("built an over-budget graph"))
    with pytest.raises(ParseError, match="input budget") as exc:
        parse_edge_list(text)
    assert exc.value.line == line


_LINE = st.lists(
    st.one_of(st.integers(-1, 7).map(str),
              st.sampled_from(["#", "x", "1.5", "0x1", "1000000000"]),
              st.text(max_size=3)),
    max_size=4,
).map(" ".join)


@st.composite
def _edge_list_texts(draw):
    """A header and edge lines over a few vertices, with noise lines mixed in."""
    n = draw(st.integers(-1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)),
                          max_size=6))
    if draw(st.booleans()):  # a spanning path makes a valid graph likely
        pairs = [(v - 1, v) for v in range(1, n)] + pairs
    m = draw(st.one_of(st.just(len(pairs)), st.integers(-1, 12)))
    lines = [f"{n} {m}"] + [f"{u} {v}" for (u, v) in pairs]
    for pos, line in draw(st.lists(st.tuples(st.integers(0, len(lines)), _LINE),
                                   max_size=3)):
        lines.insert(pos, line)
    return "\n".join(lines)


@given(st.one_of(_edge_list_texts(), st.text(max_size=40)))
@settings(max_examples=300, deadline=None)
def test_edge_list_text_gives_graph_or_gcurv_error(text):
    try:
        g = parse_edge_list(text)
    except GcurvError:
        return
    assert isinstance(g, Graph)


def test_parse_edge_list_edge_count_mismatch():
    with pytest.raises(ParseError):
        parse_edge_list("3 3\n0 1\n1 2\n")


def test_distances_path():
    g = path_graph(4)
    assert g.distance(0, 3) == 3
    assert g.distance(1, 3) == 2


def test_sphere_and_ball():
    g = cycle(6)
    assert sphere(g, 0, 2) == (2, 4)
    assert ball(g, 0, 1) == (0, 1, 5)
    assert sphere(g, 0, 7) == ()


def test_effective_diameter_cycle():
    # row sums of C5 are 0+1+2+2+1 = 6, over 25 ordered pairs
    assert effective_diameter(cycle(5)) == Fraction(6, 5)


def test_effective_diameter_octahedron(octahedron):
    assert effective_diameter(octahedron) == Fraction(1)


def test_side_partition_octahedron(octahedron):
    sp = side_partition(octahedron, 0, 2)
    assert sp.side_x == (0, 3)
    assert sp.side_y == (1, 2)
    assert sp.middle == (4, 5)


def test_locally_connected_verdicts(octahedron):
    assert is_locally_connected(octahedron) == (True, None)
    ok, witness = is_locally_connected(cycle(5))
    assert not ok and witness is not None


@pytest.mark.parametrize("call", [
    lambda g: sphere(g, -1, 1),
    lambda g: sphere(g, 8, 1),
    lambda g: sphere(g, 1.0, 1),
    lambda g: ball(g, -1, 1),
    lambda g: ball(g, 8, 0),
    lambda g: side_partition(g, -1, 3),
    lambda g: side_partition(g, 3, -1),
    lambda g: side_partition(g, 0.0, 1),
])
def test_vertex_arguments_are_checked(call):
    # sphere(Q 3, -1, 1) used to read vertex 7 and sphere(Q 3, 8, 1) to raise IndexError
    g = hypercube(3)
    with pytest.raises(InvalidParameterError):
        call(g)
    assert g.cache == {}


def _locally_connected_by_bfs(g):
    """The per-vertex breadth-first search that is_locally_connected once ran."""
    for v in range(g.n):
        nb = g.neighbors[v]
        if len(nb) <= 1:
            continue
        inside = set(nb)
        seen = {nb[0]}
        q = deque([nb[0]])
        while q:
            u = q.popleft()
            for w in g._nbr_sets[u] & inside:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        if len(seen) != len(inside):
            return (False, v)
    return (True, None)


def _local_test_graphs():
    rng = random.Random(31)
    seeded = []
    for _ in range(60):
        n = rng.randint(2, 14)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
        seeded.append(build_graph(n, sorted(edges)))
    return [mem.graph for mem in standard_corpus()] + seeded


def test_local_components_match_the_per_vertex_search():
    for g in _local_test_graphs():
        assert is_locally_connected(g) == _locally_connected_by_bfs(g)
        for v, comps in enumerate(local_components(g)):
            # the components partition N(v), in order of their least vertex,
            # and no edge joins two of them
            assert sum(comps) == sum(1 << a for a in g.neighbors[v])
            assert all(c & d == 0 for i, c in enumerate(comps) for d in comps[i + 1:])
            assert [c & -c for c in comps] == sorted(c & -c for c in comps)
            members = [[a for a in g.neighbors[v] if c >> a & 1] for c in comps]
            for i, comp in enumerate(members):
                assert not any(g.adjacent(a, b) for other in members[i + 1:]
                               for a in comp for b in other)
                sub, _ = induced_subgraph(g, comp)  # raises unless connected
                assert sub.n == len(comp)


def test_induced_subgraph_tracks_vertices(octahedron):
    sub, verts = induced_subgraph(octahedron, (0, 3))
    assert sub.n == 2 and sub.m == 1
    assert verts == (0, 3)


def test_convex_and_isometric_subsets():
    g = cycle(6)
    assert is_isometric_subset(g, (0, 1, 2, 3))
    assert not is_isometric_subset(g, (0, 3))  # disconnected inside the pair
    assert not is_convex_subset(g, (0, 3))  # both geodesics leave the pair
    assert is_convex_subset(g, (0, 1))


# The scans the shell predicates replaced, kept as references: every
# outside vertex against every member pair, and a breadth-first search from
# each member that steps only inside s.

def _convex_by_scan(g, s):
    inside = set(s)
    dist = g.dist_rows()
    vs = sorted(inside)
    return not any(dist[u][z] + dist[v][z] == dist[u][v]
                   for i, u in enumerate(vs) for v in vs[i + 1:]
                   for z in range(g.n) if z not in inside)


def _isometric_by_bfs(g, s):
    inside = set(s)
    for u in inside:
        row = {u: 0}
        q = deque([u])
        while q:
            a = q.popleft()
            for w in g.neighbors[a]:
                if w in inside and w not in row:
                    row[w] = row[a] + 1
                    q.append(w)
        if len(row) != len(inside) or any(g.distance(u, v) != d for v, d in row.items()):
            return False
    return True


def _induced_by_edge_scan(g, s):
    vs = sorted(set(s))
    index = {v: i for i, v in enumerate(vs)}
    return tuple(sorted((index[u], index[v]) for (u, v) in g.edges if u in index and v in index))


def _assert_subset_predicates_agree(g, s):
    assert is_convex_subset(g, s) == _convex_by_scan(g, s), s
    assert is_isometric_subset(g, s) == _isometric_by_bfs(g, s), s


@st.composite
def graphs_with_subsets(draw):
    """A connected graph on at most 12 vertices and a list of its labels.

    The list is random (empty, single, duplicated and disconnected sets
    among them), a ball, a side of an edge or a geodesic interval, so that
    convex and isometric sets are drawn as well as others.
    """
    g = draw(connected_graphs(min_n=1, max_n=12))
    labels = st.integers(0, g.n - 1)
    dist = g.dist_rows()
    kind = draw(st.sampled_from(["random", "random", "ball", "side", "interval"]))
    if kind == "ball":
        x, r = draw(labels), draw(st.integers(0, 3))
        s = [v for v in range(g.n) if dist[x][v] <= r]
    elif kind == "side" and g.m:
        x, y = draw(st.sampled_from(g.edges))
        s = list(side_partition(g, x, y).side_x)
    elif kind == "interval":
        u, v = draw(labels), draw(labels)
        s = [z for z in range(g.n) if dist[u][z] + dist[z][v] == dist[u][v]]
    else:
        bits = draw(st.integers(0, (1 << g.n) - 1))
        s = [v for v in range(g.n) if bits >> v & 1]
    s = draw(st.permutations(s))
    if s:
        s += draw(st.lists(st.sampled_from(s), max_size=3))
    return g, s


@given(graphs_with_subsets())
@settings(max_examples=400, deadline=None)
def test_subset_predicates_match_the_scans(case):
    g, s = case
    _assert_subset_predicates_agree(g, s)
    if s:
        try:
            sub, vs = induced_subgraph(g, s)
        except DisconnectedError:
            assert not _isometric_by_bfs(g, s)
        else:
            assert vs == tuple(sorted(set(s))) and sub.edges == _induced_by_edge_scan(g, s)


def test_subset_predicates_match_the_scans_on_the_standard_corpus():
    # every side, unit sphere and cap of sphere_isometry_witness, once per distinct set
    for mem in standard_corpus():
        g = mem.graph
        dist = g.dist_rows()
        sets = {frozenset(side_partition(g, x, y).side_x) for (u, v) in g.edges
                for (x, y) in ((u, v), (v, u))}
        for v in range(g.n):
            sets.add(frozenset(g.neighbors[v]))
            for w in range(g.n):
                sets.add(frozenset(u for u in g.neighbors[v] if dist[u][w] == dist[v][w] + 1))
        for s in sets:
            _assert_subset_predicates_agree(g, s)


def test_distance_shells_split_the_distance_row():
    g = hypercube(3)
    assert graphs.distance_shells(g, 0) == (0b1, 0b10110, 0b1101000, 0b10000000)
    for u in range(g.n):
        shells = graphs.distance_shells(g, u)
        assert sum(shells) == (1 << g.n) - 1 and len(shells) == max(g.dist_rows()[u]) + 1
        assert all(shells[d] >> v & 1 for v, d in enumerate(g.dist_rows()[u]))
    assert graphs.distance_shells(g, 5) is g.cache["shells", 5]
    assert graphs.distance_shells(build_graph(1, []), 0) == (1,)


@pytest.mark.parametrize("predicate", [is_convex_subset, is_isometric_subset, induced_subgraph])
@pytest.mark.parametrize("s", [[0, 9], [-1, 0], [0, 6], [3, 1.0], [0, "1"], [None]],
                         ids=["9", "-1", "n", "float", "str", "None"])
def test_subset_predicates_refuse_labels_outside_the_graph(predicate, s):
    with pytest.raises(InvalidParameterError):
        predicate(cycle(6), s)


def test_subset_predicates_take_integer_labels_of_any_kind():
    # numpy labels past bit 63 must still land on their own bit of the mask
    g = cycle(80)
    assert is_convex_subset(g, np.array([70, 71])) and not is_convex_subset(g, np.array([0, 70]))
    assert is_isometric_subset(g, (np.int64(0), True)) and not is_isometric_subset(g, np.array([0, 70]))
    sub, vs = induced_subgraph(g, np.array([72, 71, 70]))
    assert vs == (70, 71, 72) and sub.edges == ((0, 1), (1, 2))


def test_isomorphic_octahedron_relabelled(octahedron):
    relabel = (5, 4, 3, 2, 1, 0)
    edges = [(relabel[u], relabel[v]) for (u, v) in octahedron.edges]
    h = build_graph(6, edges)
    assert are_isomorphic(octahedron, h) is not None


def test_not_isomorphic_same_degree_sequence():
    assert are_isomorphic(cycle(6), build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)],
    )) is None
    # six vertices each, both bipartite and vertex transitive
    assert are_isomorphic(complete_bipartite(3, 3), cycle(6)) is None


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _is_isomorphism(mapping, g, h):
    image = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges}
    return sorted(mapping) == list(range(g.n)) and image == set(h.edges)


@st.composite
def _same_order_and_size(draw, g):
    """A connected graph with g's n and m: a random tree plus random chords."""
    tree = {tuple(sorted((draw(st.integers(0, i - 1)), i))) for i in range(1, g.n)}
    rest = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in tree]
    k = g.m - len(tree)
    chords = draw(st.lists(st.sampled_from(rest), unique=True, min_size=k, max_size=k)) if k else []
    return build_graph(g.n, sorted(tree) + chords)


@given(st.data(), connected_graphs(max_n=6), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_isomorphism_verdict_matches_brute_force(data, g, seed):
    for h in (_relabelled(g, seed), data.draw(_same_order_and_size(g))):
        mapping = are_isomorphic(g, h)
        exists = any(_is_isomorphism(p, g, h) for p in permutations(range(g.n)))
        assert (mapping is not None) == exists
        assert mapping is None or _is_isomorphism(mapping, g, h)


def _record_results(monkeypatch, name):
    """The list of every result graphs.<name> returns from now on."""
    results = []
    original = getattr(graphs, name)

    def recorded(*args):
        results.append(original(*args))
        return results[-1]
    monkeypatch.setattr(graphs, name, recorded)
    return results


def test_asymmetric_cubic_graph_backs_out_of_failed_branches(monkeypatch):
    # the Frucht graph: cubic, trivial automorphism group, LCF notation
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    ring = {(i, (i + 1) % 12) for i in range(12)}
    chords = {(i, (i + s) % 12) for i, s in enumerate(lcf)}
    frucht = build_graph(12, {tuple(sorted(e)) for e in ring | chords})
    assert frucht.m == 18 and frucht.is_regular()
    h = _relabelled(frucht, 1)
    refined = _record_results(monkeypatch, "_refine")
    mapping = are_isomorphic(frucht, h)
    assert mapping is not None and _is_isomorphism(mapping, frucht, h)
    # refinement alone cannot split a regular graph; some pinned pair failed
    assert False in refined


def test_shrikhande_graph_is_not_the_rook_graph():
    # both strongly regular with intersection array {6,3;1,2}
    steps = ((1, 0), (0, 1), (1, 1))
    shrikhande = build_graph(16, {
        tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
        for a in range(4) for b in range(4) for da, db in steps})
    rook = hamming(2, 4)
    assert are_isomorphic(shrikhande, rook) is None
    assert are_isomorphic(shrikhande, _relabelled(shrikhande, 3)) is not None


def test_complete_graph_needs_one_pinned_pair_per_level(monkeypatch):
    g = complete_graph(30)
    h = _relabelled(g, 7)
    refined = _record_results(monkeypatch, "_refine")
    mapping = are_isomorphic(g, h)
    assert mapping is not None and _is_isomorphism(mapping, g, h)
    # every pinned pair of K 30 extends: the root and 29 nested pins, one refinement each
    assert refined == [True] * 30


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # each pinned leaf pair of a star leaves the other leaves in one cell
    star = complete_bipartite(1, 1200)
    h = _relabelled(star, 5)
    mapping = are_isomorphic(star, h)
    assert mapping is not None and _is_isomorphism(mapping, star, h)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_metric_symmetry_and_triangle(g):
    dist = g.dist_rows()
    for x in range(g.n):
        assert dist[x][x] == 0
        for y in range(g.n):
            assert dist[x][y] == dist[y][x]
            for z in range(g.n):
                assert dist[x][z] <= dist[x][y] + dist[y][z]


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_side_partition_is_a_partition(g):
    x, y = g.edges[0]
    sp = side_partition(g, x, y)
    combined = sorted(sp.side_x + sp.side_y + sp.middle)
    assert combined == list(range(g.n))


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_reversed_side_partition_swaps_the_cached_one(g):
    for (x, y) in g.edges:
        side_partition(g, x, y)
    scratch = build_graph(g.n, g.edges)
    g.dist_rows = None  # a partition computed again would fail here
    for (x, y) in g.edges:
        assert side_partition(g, y, x) == side_partition(scratch, y, x)


@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_self_isomorphism_exists(g):
    mapping = are_isomorphic(g, g)
    assert mapping is not None
    for (u, v) in g.edges:
        assert g.adjacent(mapping[u], mapping[v])


@given(connected_graphs(min_n=3, max_n=7))
@settings(max_examples=30, deadline=None)
def test_effective_diameter_between_zero_and_diameter(g):
    de = effective_diameter(g)
    diam = max(max(row) for row in g.dist_rows())
    assert 0 < de <= diam


def test_complete_graph_effective_diameter():
    # n-1 ordered pairs at distance 1 per vertex
    assert effective_diameter(complete_graph(4)) == Fraction(12, 16)


def test_convex_subset_implies_isometric_examples(octahedron):
    for s in [(0, 3), (1, 2), (0,)]:
        if is_convex_subset(octahedron, s):
            assert is_isometric_subset(octahedron, s)


def test_memo_publishes_once_and_caches_no_raise():
    calls = []

    @graphs.memo("probe")
    def probe(g, *args):
        calls.append(args)
        if args == (-1,):
            raise GcurvError("refused")
        return [len(args)]

    g = cycle(5)
    first = probe(g)
    assert probe(g) is first is g.cache["probe"]
    pair = probe(g, 2, 3)
    assert probe(g, 2, 3) is pair is g.cache["probe", 2, 3]
    assert (first, pair) == ([0], [2])
    assert calls == [(), (2, 3)]
    for _ in range(2):
        with pytest.raises(GcurvError, match="refused"):
            probe(g, -1)
    assert calls[2:] == [(-1,), (-1,)]
    assert ("probe", -1) not in g.cache
    flat = cycle(6)
    for _ in range(2):
        with pytest.raises(NonpositiveCurvatureError):
            be_effective_bound_report(flat)
    assert "be_bound" not in flat.cache
