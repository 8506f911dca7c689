import hashlib
import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from conftest import load_workloads as _load_workloads
from gcurv import cli, factorization
from gcurv.errors import InternalCheckError, TrivialGraphError
from gcurv.families import (
    cartesian_product,
    cocktail_party,
    complete_graph,
    cycle,
    gosset,
    hamming,
    hypercube,
    johnson,
    parse_family,
    path_graph,
    schlafli,
)
from gcurv.factorization import (
    EdgeRelationPartition,
    edge_relation_components,
    factorize,
    is_prime,
)
from gcurv.graphs import (
    Graph,
    are_isomorphic,
    build_graph,
    effective_diameter,
    local_components,
    parse_edge_list,
)
from gcurv.verify import standard_corpus


def test_cube_splits_into_three_edges(q3):
    factors = factorize(q3)
    assert len(factors) == 3
    for f in factors:
        assert are_isomorphic(f, complete_graph(2)) is not None


def test_hamming_splits_into_triangles():
    factors = factorize(hamming(2, 3))
    assert len(factors) == 2
    for f in factors:
        assert are_isomorphic(f, complete_graph(3)) is not None


def test_reassembly_is_isomorphic(q3):
    rebuilt = reduce(cartesian_product, factorize(q3))
    assert are_isomorphic(rebuilt, q3) is not None


@pytest.mark.parametrize("g", [
    cycle(5),
    path_graph(4),
    johnson(5, 2),
    cocktail_party(3),
    schlafli(),
])
def test_primes(g):
    assert is_prime(g)
    assert len(factorize(g)) == 1


def test_gosset_prime(gosset_graph):
    assert is_prime(gosset_graph)


def test_factorize_rejects_single_vertex():
    with pytest.raises(TrivialGraphError):
        factorize(build_graph(1, []))


def test_edge_relation_components_cube(q3):
    part = edge_relation_components(q3)
    # one class per coordinate direction
    assert part.count == 3
    assert len(part.component_of) == q3.m


def test_factor_vertex_counts_multiply():
    prod = cartesian_product(cycle(5), complete_graph(3))
    factors = factorize(prod)
    total = 1
    for f in factors:
        total *= f.n
    assert total == prod.n


def test_factor_effective_diameters_add():
    g1, g2 = cocktail_party(3), hypercube(2)
    prod = cartesian_product(g1, g2)
    assert effective_diameter(prod) \
        == effective_diameter(g1) + effective_diameter(g2)


_PRIME_POOL = [complete_graph(2), complete_graph(3), cycle(5), path_graph(3),
               cocktail_party(3)]


def _same_up_to_isomorphism(factors, expected):
    """True iff the two factor lists match one to one up to isomorphism."""
    remaining = list(expected)
    for f in factors:
        hit = next((i for i, c in enumerate(remaining) if are_isomorphic(f, c) is not None),
                   None)
        if hit is None:
            return False
        remaining.pop(hit)
    return not remaining


@given(st.lists(st.sampled_from(range(len(_PRIME_POOL))), min_size=2,
                max_size=3))
@settings(max_examples=25, deadline=None)
def test_random_products_round_trip(indices):
    chosen = [_PRIME_POOL[i] for i in indices]
    size = 1
    for c in chosen:
        size *= c.n
    if size > 40:
        return
    prod = reduce(cartesian_product, chosen)
    assert _same_up_to_isomorphism(factorize(prod), chosen)


def _random_connected(rng, n):
    """Random spanning tree plus random chords, as analyze-random's inputs are made."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4}
    return build_graph(n, sorted(edges))


def test_irregular_products_factor_uniquely():
    rng = random.Random(2024)
    for _ in range(100):
        a = _random_connected(rng, rng.randint(2, 6))
        b = _random_connected(rng, rng.randint(2, 6))
        factors = factorize(cartesian_product(a, b))
        assert all(is_prime(f) for f in factors)
        assert _same_up_to_isomorphism(factors, factorize(a) + factorize(b))


def test_one_class_per_edge_is_an_internal_inconsistency(monkeypatch, capsys):
    # on C 5, class 0's edge has no projection along the other four
    monkeypatch.setattr(factorization, "edge_relation_components",
                        lambda h: EdgeRelationPartition(h.edges, tuple(range(h.m)), h.m))
    assert cli.main(["factorize", "--family", "C 5"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_merged_classes_fail_the_primality_certificate(monkeypatch):
    # two of Q 3's classes merged rebuild Q 3 as K 2 x C 4, and C 4 is not prime
    g = hypercube(3)
    real = factorization.edge_relation_components
    merged = tuple(min(c, 1) for c in real(g).component_of)
    part = EdgeRelationPartition(g.edges, merged, 2)
    monkeypatch.setattr(factorization, "edge_relation_components",
                        lambda h: part if h is g else real(h))
    with pytest.raises(InternalCheckError, match="composite factor"):
        factorize(g)


# SHA-256 (first 16 hex digits) of repr([(f.n, f.edges) for f in factorize(g)]):
# factors come in relation-class order, not in the order the expression names them
FAMILY_DIGESTS = {
    "( Q 2 x CP 3 )": "0e408dac1c4bffb0",
    "( C 5 x ( P 4 x K 3 ) )": "77a936cdb65b3d48",
    "( petersen x ( KB 2 3 x C 6 ) )": "a9f469eee5e980d4",
    "H 3 4": "487166bceeffcc20",
}
# the product inputs of analyze-random, seed 1
RANDOM_PRODUCT_DIGESTS = {
    "input-02": "854065ccef573e78",
    "input-05": "f3eed4ce05082d50",
    "input-08": "47058343521a80b2",
    "input-11": "6e8c199280e861ae",
    "input-14": "7f5c5c50deaffefd",
    "input-17": "8ae33d19510d203c",
    "input-20": "15386aaf1c8df818",
    "input-23": "cfbf7dfd1d6965e5",
}


def _factor_digest(g):
    text = repr([(f.n, f.edges) for f in factorize(g)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_factor_order_and_labels_are_pinned():
    assert {e: _factor_digest(parse_family(e).build()) for e in FAMILY_DIGESTS} \
        == FAMILY_DIGESTS
    products = [(name, text) for name, text, product
                in _load_workloads().random_inputs(1, 24) if product]
    assert {name: _factor_digest(parse_edge_list(text)) for name, text in products} \
        == RANDOM_PRODUCT_DIGESTS
    q2cp3 = factorize(parse_family("( Q 2 x CP 3 )").build())
    assert [f.n for f in q2cp3] == [6, 2, 2]


def _scan_components(g):
    """Feder's relation by the unseeded O(m^2) scan over every pair of edges.

    Two edges are related when their endpoint distances break the rectangle
    identity, or when they share an endpoint that is the whole common
    neighbourhood of their other ends; classes are numbered by first edge.
    """
    edges = g.edges
    dist = g.dist_rows()
    nbr = g._nbr_sets
    parent = list(range(len(edges)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def related(e1, e2):
        (x, y), (xp, yp) = e1, e2
        if dist[x][xp] + dist[y][yp] != dist[x][yp] + dist[y][xp]:
            return True
        return any(a == c and nbr[b] & nbr[d] == {a}
                   for a, b in ((x, y), (y, x)) for c, d in ((xp, yp), (yp, xp)))

    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if find(i) != find(j) and related(edges[i], edges[j]):
                parent[find(j)] = find(i)
    rename = {}
    return tuple(rename.setdefault(find(i), len(rename)) for i in range(len(edges)))


def _circulant(n, jumps):
    return build_graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n)
                                  for s in jumps}))


def _circulants(max_n):
    """Every C(n; S) with 3 <= n <= max_n and 1 in S subset of 1..n/2, keyed by (n, S)."""
    return {(n, (1,) + rest): _circulant(n, (1,) + rest)
            for n in range(3, max_n + 1) for r in range(n // 2)
            for rest in itertools.combinations(range(2, n // 2 + 1), r)}


def _local_count(g):
    """Number of classes of the local relation alone."""
    uf = factorization._UnionFind(g.m)
    factorization._relate_locally(g, uf)
    return uf.count


# the circulants with n <= 16 whose local classes do not rebuild them: all prime
NEED_THE_DISTANCE_TEST = [
    (8, (1, 4)), (10, (1, 5)), (12, (1, 4)), (12, (1, 6)), (13, (1, 5)), (14, (1, 4)),
    (14, (1, 7)), (14, (1, 2, 7)), (15, (1, 4)), (15, (1, 5)), (15, (1, 6)), (16, (1, 4)),
    (16, (1, 6)), (16, (1, 8)), (16, (1, 2, 8)), (16, (1, 3, 8)), (16, (1, 4, 8)),
    (16, (1, 5, 8)),
]


def test_relation_classes_match_the_pairwise_scan():
    graphs = [mem.graph for mem in standard_corpus()]
    graphs += [parse_edge_list(text) for _, text, _ in _load_workloads().random_inputs(1, 24)]
    circulants = _circulants(16)
    assert len(circulants) == 381  # 378 with n >= 5
    graphs += circulants.values()
    for g in graphs:
        assert edge_relation_components(g).component_of == _scan_components(g)
    need = [key for key, g in circulants.items()
            if _local_count(g) != edge_relation_components(g).count]
    assert need == NEED_THE_DISTANCE_TEST
    for key in need:
        g = circulants[key]
        assert factorize(g) == [g]


@given(connected_graphs(max_n=5), connected_graphs(max_n=5))
@settings(max_examples=40, deadline=None)
def test_product_relation_classes_match_the_pairwise_scan(a, b):
    g = cartesian_product(a, b)
    assert edge_relation_components(g).component_of == _scan_components(g)


def test_moebius_ladder_has_two_local_classes_but_is_prime():
    # C(8; 1, 4): rungs and ring edges stay apart locally, yet the rung (0, 4)
    # and the ring edge (1, 2) break the rectangle identity: 1 + 2 against 2 + 2
    g = _circulant(8, (1, 4))
    assert _local_count(g) == 2
    assert edge_relation_components(g).count == 1
    assert is_prime(g)
    assert factorize(g) == [g]


def _local_scan(g):
    """The local relation from its generators, each found from scratch:
    triangles vab relate va with vb, induced squares v a w b relate va with
    bw and vb with aw, and two neighbours a, b of v with N(a) & N(b) = {v}
    relate va with vb."""
    nbr = g._nbr_sets
    index = {e: i for i, e in enumerate(g.edges)}
    uf = factorization._UnionFind(g.m)

    def edge(u, w):
        return index[(u, w) if u < w else (w, u)]

    for v in range(g.n):
        for a, b in itertools.combinations(sorted(nbr[v]), 2):
            common = nbr[a] & nbr[b]
            if b in nbr[a] or common == {v}:
                uf.union(edge(v, a), edge(v, b))
            else:
                for w in common - nbr[v] - {v}:
                    uf.union(edge(v, a), edge(b, w))
                    uf.union(edge(v, b), edge(a, w))
    return factorization._partition(g.edges, uf).component_of


def _check_local_relation(g):
    uf = factorization._UnionFind(g.m)
    factorization._relate_locally(g, uf)
    assert factorization._partition(g.edges, uf).component_of == _local_scan(g)


def test_local_relation_matches_its_generators():
    graphs = [mem.graph for mem in standard_corpus()]
    graphs += [parse_edge_list(text) for _, text, _ in _load_workloads().random_inputs(1, 24)]
    graphs += _circulants(12).values()
    graphs += [parse_family(e).build() for e in FAMILY_DIGESTS]
    # the induced squares 4 0 1 5, 4 0 3 5 and 4 2 3 5 are related at corner 4
    # alone: their lesser corners 0 to 3 have connected neighbourhoods
    graphs.append(build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (2, 3),
                                  (2, 4), (3, 5), (4, 5)]))
    for g in graphs:
        _check_local_relation(g)


@given(connected_graphs(min_n=4, max_n=9))
@settings(max_examples=100, deadline=None)
def test_local_relation_matches_its_generators_on_random_graphs(g):
    _check_local_relation(g)


class _CountingUnionFind(factorization._UnionFind):
    unions = 0

    def union(self, a, b):
        self.unions += 1
        super().union(a, b)


def _expected_unions(g):
    """Unions of the local relation when each induced square is related once:
    size - 1 per local component, one per pair of neighbours in different
    components with no other common neighbour, two per induced square that
    some corner sees with its two square neighbours in different components."""
    nbr = g._nbr_sets
    part = [{a: comp for comp in comps for a in nbr[v] if comp >> a & 1}
            for v, comps in enumerate(local_components(g))]
    unions = sum(comp.bit_count() - 1 for comps in local_components(g) for comp in comps)
    squares = set()
    for v in range(g.n):
        for a, b in itertools.combinations(sorted(nbr[v]), 2):
            if part[v][a] != part[v][b]:
                common = nbr[a] & nbr[b] - {v}
                unions += not common
                squares.update(frozenset((v, a, w, b)) for w in common)
    return unions + 2 * len(squares)


def test_each_induced_square_is_related_at_one_corner():
    # Q 3: every star is one edge and the six faces are its induced squares;
    # each face is related by two unions at its least corner, not at all four
    g = hypercube(3)
    uf = _CountingUnionFind(g.m)
    factorization._relate_locally(g, uf)
    assert (uf.unions, uf.count) == (12, 3) == (_expected_unions(g), 3)


@given(connected_graphs(max_n=5), connected_graphs(max_n=5))
@settings(max_examples=40, deadline=None)
def test_product_squares_are_related_once(a, b):
    # a product has two or more local classes, so no vertex is skipped
    g = cartesian_product(a, b)
    uf = _CountingUnionFind(g.m)
    factorization._relate_locally(g, uf)
    assert uf.unions == _expected_unions(g)


def test_product_factors_without_distance_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("distance rows read")

    g = parse_family("( Q 2 x gosset )").build()
    monkeypatch.setattr(Graph, "dist_rows", refuse)
    assert sorted(f.n for f in factorize(g)) == [2, 2, 56]
