from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import connected_graphs
from gcurv.errors import SameVertexError, SupportTooLargeError
from gcurv.families import (
    complete_bipartite,
    complete_graph,
    cycle,
    hypercube,
    johnson,
    path_graph,
)
from gcurv.graphs import ball
from gcurv.ollivier import (
    brute_force_curvature_oracle,
    curvature_from_intersection_array,
    edge_curvature,
    long_range_curvature,
    min_edge_curvature,
    verify_optimality_certificate,
)
from gcurv.spectral import is_distance_regular


# Values below were frozen from the exhaustive Lipschitz-function oracle.
FROZEN_EDGE_CURVATURES = [
    (cycle(5), Fraction(1)),
    (cycle(6), Fraction(0)),
    (complete_bipartite(3, 3), Fraction(2)),
    (complete_graph(3), Fraction(3)),
    (complete_graph(5), Fraction(5)),
    (hypercube(3), Fraction(2)),
]


@pytest.mark.parametrize("g,expected", FROZEN_EDGE_CURVATURES)
def test_frozen_constant_curvatures(g, expected):
    mec = min_edge_curvature(g)
    assert mec.is_constant
    assert mec.value == expected


def test_path_end_edges_differ_from_middle():
    g = path_graph(4)
    assert edge_curvature(g, 0, 1).value == Fraction(1)
    assert edge_curvature(g, 1, 2).value == Fraction(0)
    mec = min_edge_curvature(g)
    assert not mec.is_constant
    assert mec.value == Fraction(0)
    assert mec.min_edge == (1, 2)
    assert mec.other_edge is not None


def test_orientation_symmetry(octahedron):
    a = edge_curvature(octahedron, 0, 2)
    b = edge_curvature(octahedron, 2, 0)
    assert a.value == b.value


def test_long_range_rejects_same_vertex():
    with pytest.raises(SameVertexError):
        long_range_curvature(cycle(5), 1, 1)


def test_long_range_values(q3):
    assert long_range_curvature(q3, 0, 7).value == Fraction(2)
    assert long_range_curvature(cycle(6), 0, 3).value == Fraction(4, 3)


def test_long_range_on_johnson_distance_two(j52):
    dist = j52.dist_rows()
    pairs = [
        (x, y)
        for x in range(j52.n)
        for y in range(x + 1, j52.n)
        if dist[x][y] == 2
    ]
    assert pairs
    for (x, y) in pairs:
        assert long_range_curvature(j52, x, y).value == Fraction(5)


def test_formula_matches_intersection_array(j52):
    ia = is_distance_regular(j52).array
    assert curvature_from_intersection_array(ia) == Fraction(5)
    assert min_edge_curvature(j52).value == Fraction(5)


def test_certificate_round_trip(octahedron):
    for (x, y) in octahedron.edges:
        cv = edge_curvature(octahedron, x, y)
        assert verify_optimality_certificate(octahedron, cv)


def test_certificate_rejects_tampered_value(octahedron):
    cv = edge_curvature(octahedron, 0, 2)
    tampered = type(cv)(
        x=cv.x, y=cv.y, gap=cv.gap, value=cv.value + 1,
        optimizer=cv.optimizer, certificate=cv.certificate,
    )
    assert not verify_optimality_certificate(octahedron, tampered)


def test_optimizer_is_lipschitz_with_unit_gap(j52):
    dist = j52.dist_rows()
    cv = edge_curvature(j52, 0, 1)
    f = cv.optimizer
    assert f[cv.y] - f[cv.x] == 1
    for u in f:
        for v in f:
            assert abs(f[u] - f[v]) <= dist[u][v]


def test_oracle_rejects_large_support():
    with pytest.raises(SupportTooLargeError):
        brute_force_curvature_oracle(johnson(5, 2), 0, 1, max_support=4)


def test_oracle_matches_lp_on_petersen_style_edges():
    g = complete_bipartite(3, 3)
    for (x, y) in g.edges:
        assert brute_force_curvature_oracle(g, x, y) \
            == edge_curvature(g, x, y).value


def test_oracle_matches_lp_at_supports_eight_and_nine(j52):
    q4 = hypercube(4)
    for g, support in ((q4, 8), (j52, 9)):
        for (x, y) in g.edges:
            assert len(set(ball(g, x, 1)) | set(ball(g, y, 1))) == support
            assert brute_force_curvature_oracle(g, x, y) \
                == edge_curvature(g, x, y).value


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=50, deadline=None)
def test_oracle_agreement_on_random_graphs(g):
    # n <= 10 keeps every support within the oracle's default guard
    for x in range(g.n):
        for y in range(x + 1, g.n):
            solve = edge_curvature if g.adjacent(x, y) else long_range_curvature
            assert brute_force_curvature_oracle(g, x, y) == solve(g, x, y).value


@given(connected_graphs(min_n=2, max_n=7))
@settings(max_examples=30, deadline=None)
def test_certificates_verify_on_random_graphs(g):
    for (x, y) in g.edges[:4]:
        assert verify_optimality_certificate(g, edge_curvature(g, x, y))


@given(connected_graphs(min_n=3, max_n=7))
@settings(max_examples=25, deadline=None)
def test_long_range_records_pair_distance(g):
    dist = g.dist_rows()
    far = [
        (x, y)
        for x in range(g.n)
        for y in range(x + 1, g.n)
        if dist[x][y] >= 2
    ]
    for (x, y) in far[:3]:
        cv = long_range_curvature(g, x, y)
        assert cv.gap == dist[x][y]
        assert verify_optimality_certificate(g, cv)
