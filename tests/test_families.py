from math import comb

import pytest

from gcurv.errors import InvalidParameterError, ParseError
from gcurv.families import (
    MAX_PRODUCT_NESTING,
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
from gcurv.graphs import MAX_EDGES, MAX_VERTICES, are_isomorphic, induced_subgraph


@pytest.mark.parametrize("k", range(2, 6))
def test_cocktail_party_shape(k):
    g = cocktail_party(k)
    assert g.n == 2 * k
    assert g.is_regular() and g.degree(0) == 2 * k - 2


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_johnson_shape(n, k):
    g = johnson(n, k)
    assert g.n == comb(n, k)
    assert g.is_regular() and g.degree(0) == k * (n - k)


@pytest.mark.parametrize("n", range(3, 7))
def test_halved_cube_shape(n):
    g = halved_cube(n)
    assert g.n == 2 ** (n - 1)
    assert g.degree(0) == comb(n, 2)


def test_hamming_is_iterated_product():
    assert are_isomorphic(
        hamming(2, 3),
        cartesian_product(complete_graph(3), complete_graph(3)),
    ) is not None


def test_hypercube_is_hamming_base_two():
    assert are_isomorphic(hypercube(4), hamming(4, 2)) is not None


def test_schlafli_shape():
    g = schlafli()
    assert (g.n, g.degree(0)) == (27, 16)
    assert g.is_regular()


def test_gosset_shape():
    g = gosset()
    assert (g.n, g.degree(0)) == (56, 27)


def test_gosset_neighborhood_is_schlafli(gosset_graph, schlafli_graph):
    nbhd, _ = induced_subgraph(gosset_graph, gosset_graph.neighbors[0])
    assert are_isomorphic(nbhd, schlafli_graph) is not None


def test_small_coincidences(octahedron):
    assert are_isomorphic(johnson(4, 2), octahedron) is not None
    assert are_isomorphic(halved_cube(4), cocktail_party(4)) is not None
    assert are_isomorphic(halved_cube(3), complete_graph(4)) is not None
    assert are_isomorphic(cocktail_party(2), cycle(4)) is not None


def test_generators_reject_bad_parameters():
    with pytest.raises(InvalidParameterError):
        cycle(2)
    with pytest.raises(InvalidParameterError):
        johnson(3, 0)
    with pytest.raises(InvalidParameterError):
        hamming(0, 2)


def test_product_distances_add():
    g1, g2 = complete_graph(3), cycle(5)
    prod = cartesian_product(g1, g2)
    d1, d2, dp = g1.dist_rows(), g2.dist_rows(), prod.dist_rows()
    for u1 in range(3):
        for u2 in range(5):
            for v1 in range(3):
                for v2 in range(5):
                    assert (dp[u1 * 5 + u2][v1 * 5 + v2]
                            == d1[u1][v1] + d2[u2][v2])


def test_parse_family_simple():
    spec = parse_family("J 5 2")
    assert are_isomorphic(spec.build(), johnson(5, 2)) is not None


def test_parse_family_case_insensitive():
    assert parse_family("q 3") == parse_family("Q 3")


def test_parse_family_product():
    spec = parse_family("( CP 3 x K 2 )")
    expect = cartesian_product(cocktail_party(3), complete_graph(2))
    assert are_isomorphic(spec.build(), expect) is not None


def test_parse_family_nested_product():
    spec = parse_family("( ( K 2 x K 2 ) x K 2 )")
    assert are_isomorphic(spec.build(), hypercube(3)) is not None


def test_label_round_trip():
    for text in ["K 5", "J 6 3", "( CP 3 x Q 2 )", "gosset"]:
        spec = parse_family(text)
        assert parse_family(spec.label()) == spec


@pytest.mark.parametrize("bad,col", [
    ("Z 4", 1),
    ("K 2 K 3", 3),
    ("( K 2", 4),
    ("(", 2),
    ("( K 2 x", 5),
])
def test_parse_family_error_columns(bad, col):
    with pytest.raises(ParseError) as exc:
        parse_family(bad)
    assert exc.value.column == col


@pytest.mark.parametrize("text", [
    "K 5", "C 7", "KB 3 4", "CP 4", "J 7 3", "HQ 6", "Q 5", "H 3 4",
    "schlafli", "gosset", "( Q 2 x ( CP 3 x K 2 ) )",
])
def test_spec_size_matches_built_graph(text):
    spec = parse_family(text)
    g = spec.build()
    assert spec.size() == (g.n, g.m)


@pytest.mark.parametrize("text", [
    "Q 30", "K 100000", "H 1000000000 2", "J 1000000000 500000000",
    "HQ 99999999999999", "( Q 10 x Q 10 )", f"K {MAX_VERTICES + 1}",
])
def test_parse_family_refuses_vertex_budget(text):
    # decided by arithmetic on the spec; parse_family builds nothing
    with pytest.raises(ParseError, match=f"{MAX_VERTICES} vertices"):
        parse_family(text)


def test_parse_family_refuses_edge_budget():
    k = 2
    while k * (k - 1) // 2 <= MAX_EDGES:
        k += 1
    assert k <= MAX_VERTICES
    with pytest.raises(ParseError, match=f"{MAX_EDGES} edges"):
        parse_family(f"K {k}")
    assert parse_family(f"K {k - 1}").size()[1] <= MAX_EDGES
    assert parse_family("Q 12").size() == (MAX_VERTICES, 12 * MAX_VERTICES // 2)


def test_parse_family_bounds_product_nesting():
    with pytest.raises(ParseError) as exc:
        parse_family("( " * 2000 + "K 2" + " )" * 2000)
    assert exc.value.column == MAX_PRODUCT_NESTING + 1
    deepest = "K 2"
    for _ in range(MAX_PRODUCT_NESTING):
        deepest = f"( {deepest} x K 1 )"
    assert parse_family(deepest).build().n == 2
    with pytest.raises(ParseError):
        parse_family(f"( {deepest} x K 1 )")


def test_parse_family_rejects_non_integer_parameter():
    with pytest.raises(ParseError):
        parse_family("K two")


def test_path_graph_shape():
    g = path_graph(4)
    assert g.m == 3 and not g.is_regular()


def test_complete_bipartite_shape():
    g = complete_bipartite(3, 3)
    assert g.n == 6 and g.m == 9 and g.degree(0) == 3
