import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcurv import families
from gcurv.errors import GcurvError, InvalidParameterError, ParseError
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
    petersen,
    schlafli,
)
from gcurv.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    are_isomorphic,
    induced_subgraph,
)


@pytest.mark.parametrize("k", range(2, 7))
def test_cocktail_party_shape(k):
    g = cocktail_party(k)
    assert g.n == 2 * k
    assert g.is_regular() and g.degree(0) == 2 * k - 2


# every J(n, k) with n <= 8 and at least two vertices
_JOHNSON_CASES = list(dict.fromkeys(
    [(4, 2), (5, 2), (6, 3), (7, 3)]
    + [(n, k) for n in range(2, 9) for k in range(1, n)]
))


@pytest.mark.parametrize("n,k", _JOHNSON_CASES)
def test_johnson_shape(n, k):
    g = johnson(n, k)
    assert g.n == comb(n, k)
    assert g.is_regular() and g.degree(0) == k * (n - k)


@pytest.mark.parametrize("n", range(3, 9))
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
    pairs = [
        (johnson(4, 2), octahedron),
        (halved_cube(4), cocktail_party(4)),
        (halved_cube(3), complete_graph(4)),
        (cocktail_party(2), cycle(4)),
        (cartesian_product(complete_graph(2), complete_graph(2)), cycle(4)),
    ]
    for a, b in pairs:
        assert are_isomorphic(a, b) is not None
        assert are_isomorphic(b, a) is not None


def test_generators_reject_bad_parameters():
    with pytest.raises(InvalidParameterError):
        cycle(2)
    with pytest.raises(InvalidParameterError):
        johnson(3, 0)
    with pytest.raises(InvalidParameterError):
        hamming(0, 2)


def test_product_distances_add():
    for g1, g2 in [
        (complete_graph(3), cycle(5)),
        (complete_graph(2), johnson(4, 2)),
        (cocktail_party(3), hypercube(2)),
    ]:
        prod = cartesian_product(g1, g2)
        d1, d2, dp = g1.dist_rows(), g2.dist_rows(), prod.dist_rows()
        n2 = g2.n
        for u1 in range(g1.n):
            for u2 in range(n2):
                for v1 in range(g1.n):
                    for v2 in range(n2):
                        assert (dp[u1 * n2 + u2][v1 * n2 + v2]
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


@pytest.mark.parametrize("text,build", [
    ("K 5", lambda: complete_graph(5)),
    ("cp 3", lambda: cocktail_party(3)),
    ("J 5 2", lambda: johnson(5, 2)),
    ("HQ 4", lambda: halved_cube(4)),
    ("q 3", lambda: hypercube(3)),
    ("H 2 3", lambda: hamming(2, 3)),
    ("C 6", lambda: cycle(6)),
    ("KB 3 3", lambda: complete_bipartite(3, 3)),
    ("SCHLAFLI", schlafli),
    ("gosset", gosset),
    ("( J 4 2 x CP 3 )", lambda: cartesian_product(johnson(4, 2), cocktail_party(3))),
    ("( ( K 2 x K 2 ) x K 2 )", lambda: hypercube(3)),
])
def test_parse_family_builds_the_named_graph(text, build):
    spec = parse_family(text)
    assert are_isomorphic(spec.build(), build()) is not None
    assert parse_family(spec.label()) == spec


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
    ("K", 1),
    ("CP x", 2),
    ("", None),
])
def test_parse_family_error_columns(bad, col):
    with pytest.raises(ParseError) as exc:
        parse_family(bad)
    assert exc.value.column == col


_SIZE_CASES = list(dict.fromkeys(
    [
        "K 5", "C 7", "KB 3 4", "CP 4", "J 7 3", "HQ 6", "Q 5", "H 3 4",
        "schlafli", "gosset", "petersen", "( Q 2 x ( CP 3 x K 2 ) )",
    ]
    + [f"C {n}" for n in range(3, 9)]
    + [f"K {n}" for n in range(2, 9)]
    + [f"KB {a} {b}" for a in range(1, 5) for b in range(1, 5)]
    + [f"Q {n}" for n in range(1, 9)]
    + [f"P {n}" for n in range(1, 9)]
    + [f"H {m} {q}" for (m, q) in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                   (3, 3), (2, 4), (2, 5)]]
))


@pytest.mark.parametrize("text", _SIZE_CASES)
def test_spec_size_matches_built_graph(text):
    spec = parse_family(text)
    g = spec.build()
    assert spec.size() == (g.n, g.m)


@pytest.mark.parametrize("text", [
    "Q 30", "K 100000", "H 1000000000 2", "J 1000000000 500000000",
    "HQ 99999999999999", "( Q 10 x Q 10 )", f"K {MAX_VERTICES + 1}",
    "( Q 1000000000 x K 0 )",
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


@pytest.mark.parametrize("text,col", [
    ("K 0", 1), ("CP -1", 1), ("( Q 3 x K 0 )", 5),
    ("( Q 12 x ( Q 12 x C -1 ) )", 9),
])
def test_parse_family_refuses_a_factor_without_vertices(text, col):
    # a factor of size 0 or less would zero or negate the product's size
    # and hide the other factor from the input budget
    with pytest.raises(ParseError, match="has no vertices") as exc:
        parse_family(text)
    assert exc.value.column == col


def test_parse_family_checks_every_factor_against_the_budget():
    # J 4 1000000000 counts a negative number of edges, which would hide
    # the edges of K 4096 from the product's total
    with pytest.raises(ParseError, match=f"{MAX_EDGES} edges"):
        parse_family(f"( K {MAX_VERTICES} x J 4 1000000000 )")


def test_path_graph_over_the_vertex_budget_is_refused():
    with pytest.raises(ParseError, match=f"{MAX_VERTICES} vertices"):
        path_graph(MAX_VERTICES + 1)


@pytest.mark.parametrize("build,args,unit", [
    (complete_graph, (700,), "edges"),  # 244,650 edges
    (path_graph, (10**6,), "vertices"),
    (cycle, (10**6,), "vertices"),
    (complete_bipartite, (448, 448), "edges"),  # 200,704 edges
    (cocktail_party, (317,), "edges"),  # 200,344 edges
    (johnson, (700, 1), "edges"),  # K 700 again
    (halved_cube, (14,), "vertices"),  # 8,192 vertices, the least over budget
])
def test_generators_refuse_an_over_budget_size_before_listing_edges(build, args, unit):
    # the size is checked on the family's arithmetic count, so the refusal
    # allocates nothing in proportion to the graph it refuses
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"budget of .* {unit}"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("build,args", [
    (complete_graph, (0,)),
    (path_graph, (0,)),
    (cycle, (2,)),
    (complete_bipartite, (0, 10**6)),
    (cocktail_party, (1,)),
    (johnson, (10**6, 0)),
    (johnson, (10**6, 10**6)),
    (halved_cube, (1,)),
])
def test_generators_refuse_a_bad_parameter_before_the_budget(build, args):
    with pytest.raises(InvalidParameterError):
        build(*args)


def test_cartesian_product_over_the_vertex_budget_is_refused_before_its_edges(monkeypatch):
    # 8192 vertices; the product's own size check runs before any edge is listed
    q7, q6 = hypercube(7), hypercube(6)
    monkeypatch.setattr(families, "build_graph",
                        lambda *a: pytest.fail("listed the edges of an over-budget product"))
    with pytest.raises(ParseError, match=f"{MAX_VERTICES} vertices"):
        cartesian_product(q7, q6)


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


# Small parameters keep every admitted build cheap; the huge one reaches the
# input budget, and the short text tokens cover anything else.
_PARAMS = st.one_of(st.integers(-1, 4).map(str), st.just("1000000000"))
_DSL_TOKENS = st.one_of(
    st.sampled_from(["K", "C", "P", "KB", "CP", "J", "HQ", "Q", "H", "schlafli",
                     "Gosset", "petersen", "cp", "x", "X", "(", ")"]),
    _PARAMS,
    st.text(max_size=3),
)
_EXPRESSIONS = st.recursive(
    st.one_of(
        st.tuples(st.sampled_from(["K", "C", "p", "CP", "HQ", "q"]), _PARAMS),
        st.tuples(st.sampled_from(["KB", "J", "H"]), _PARAMS, _PARAMS),
        st.tuples(st.sampled_from(["schlafli", "Gosset", "Petersen"])),
    ).map(" ".join),
    lambda inner: st.tuples(inner, inner).map("( {0[0]} x {0[1]} )".format),
    max_leaves=3,
)


@st.composite
def _family_texts(draw):
    """A well-formed expression, sometimes with one token dropped or added."""
    tokens = draw(_EXPRESSIONS).split()
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()):
            del tokens[pos:pos + 1]
        else:
            tokens.insert(pos, draw(_DSL_TOKENS))
    return " ".join(tokens)


@given(st.one_of(_family_texts(),
                 st.lists(_DSL_TOKENS, max_size=12).map(" ".join)))
@settings(max_examples=300, deadline=None)
def test_family_expressions_build_or_raise_gcurv_errors(text):
    try:
        g = parse_family(text).build()
    except GcurvError:
        return
    assert isinstance(g, Graph)


def test_parse_family_rejects_non_integer_parameter():
    with pytest.raises(ParseError):
        parse_family("K two")


@pytest.mark.parametrize("build", [
    lambda: cocktail_party(4), lambda: johnson(6, 3), lambda: halved_cube(6),
    lambda: hamming(2, 4), lambda: hypercube(6), schlafli, gosset, petersen,
])
def test_generators_check_the_diameter_without_the_distance_matrix(build):
    # the graphs are vertex-transitive, so one breadth-first search from
    # vertex 0 finds the diameter and the distance matrix stays unbuilt
    assert build()._dist is None


def test_petersen_shape():
    g = petersen()
    assert (g.n, g.m) == (10, 15) and g.is_regular() and g.degree(0) == 3
    assert are_isomorphic(parse_family("petersen").build(), g) is not None


def test_path_graph_shape():
    g = path_graph(4)
    assert g.m == 3 and not g.is_regular()
    for n in range(2, 9):
        assert path_graph(n).m == n - 1


def test_complete_bipartite_shape():
    g = complete_bipartite(3, 3)
    assert g.n == 6 and g.m == 9 and g.degree(0) == 3
