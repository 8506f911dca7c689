import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from gcurv import ollivier
from gcurv.errors import (
    InternalCheckError,
    InvalidParameterError,
    SameVertexError,
)
from gcurv.families import (
    complete_bipartite,
    complete_graph,
    cycle,
    halved_cube,
    hypercube,
    johnson,
    parse_family,
    path_graph,
)
from gcurv.graphs import ball, build_graph
from gcurv.ollivier import (
    _is_lipschitz,
    brute_force_curvature_oracle,
    build_lipschitz_lp,
    curvature_from_intersection_array,
    edge_curvature,
    long_range_curvature,
    long_range_curvatures,
    min_assignment_cost,
    min_edge_curvature,
    verify_optimality_certificate,
)
from gcurv.reflective import is_reflective
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


def test_certificate_rejects_row_outside_support(octahedron):
    cv = edge_curvature(octahedron, 0, 2)
    _, v, rhs, lam = cv.certificate[0]
    for outside in (octahedron.n, 99):
        rows = ((outside, v, rhs, lam),) + cv.certificate[1:]
        assert not verify_optimality_certificate(octahedron, replace(cv, certificate=rows))


@pytest.mark.parametrize("bad", [0, 7])
def test_certificate_rejects_a_pair_that_is_not_one(bad):
    # an end equal to the other, or outside the graph, is a failed check
    g = cycle(5)
    assert not verify_optimality_certificate(g, replace(edge_curvature(g, 0, 1), y=bad))


def test_certificate_rejects_non_integer_optimizer(q3):
    cv = long_range_curvature(q3, 0, 7)
    for z in (0, 3):
        optimizer = dict(cv.optimizer)
        optimizer[z] += Fraction(1, 2)
        assert not verify_optimality_certificate(q3, replace(cv, optimizer=optimizer))


@pytest.mark.parametrize("bad", [-1, 8])
def test_vertex_out_of_range_rejected(q3, bad):
    for call in (edge_curvature, long_range_curvature, build_lipschitz_lp,
                 brute_force_curvature_oracle):
        with pytest.raises(InvalidParameterError):
            call(q3, bad, 3)
        with pytest.raises(InvalidParameterError):
            call(q3, 3, bad)


# Exact outputs of the simplex, pinned so that a change to its pivot rule
# (leaving: first active row with a negative multiplier; entering: the
# least slack, ties to the lowest row) shows up even when the value does not
# move.
def test_pinned_gosset_edge(gosset_graph):
    cv = edge_curvature(gosset_graph, 0, 1)
    assert cv.value == 18
    lower = (8, 9, 10, 11, 12, 41, 42, 43, 44, 45)
    support = ball(gosset_graph, 0, 1) + tuple(
        v for v in ball(gosset_graph, 1, 1) if v not in ball(gosset_graph, 0, 1))
    assert cv.optimizer == {v: -1 if v in lower else int(v == 1) for v in support}
    assert cv.certificate == (
        (13, 8, 1, 1), (14, 9, 1, 1), (15, 10, 1, 1), (16, 11, 1, 1),
        (17, 12, 1, 1), (36, 41, 1, 1), (37, 42, 1, 1), (38, 43, 1, 1),
        (39, 44, 1, 1), (40, 45, 1, 1),
    )


def test_pinned_johnson_distance_two_pair():
    g = johnson(7, 3)
    assert g.distance(0, 9) == 2
    cv = long_range_curvature(g, 0, 9)
    assert cv.value == 7
    assert cv.optimizer == {
        0: 0, 1: 1, 2: 1, 3: 0, 4: 0, 5: 1, 6: 1, 7: 0, 8: 0, 9: 2, 10: 1,
        11: 1, 12: 1, 13: 1, 15: 0, 16: 0, 17: -1, 18: -1, 19: 1, 25: 1,
        31: 1, 32: 1,
    }
    assert cv.certificate == (
        (12, 3, 1, 1), (13, 4, 1, 1), (10, 7, 1, 1), (11, 8, 1, 1),
        (25, 15, 1, 1), (19, 16, 1, 1), (31, 17, 2, 1), (32, 18, 2, 1),
    )


def test_pinned_halved_cube_distance_three_pair():
    g = halved_cube(6)
    assert g.distance(14, 17) == 3
    cv = long_range_curvature(g, 14, 17)
    assert cv.value == 10
    ones = (2, 4, 6, 7, 8, 10, 11, 12, 13, 15, 22, 26, 28, 30, 31)
    assert cv.optimizer == {v: 0 if v == 14 else 3 if v == 17 else 1 if v in ones else 2
                            for v in range(g.n)}
    assert cv.certificate == (
        (0, 2, 1, 1), (1, 7, 1, 1), (3, 2, 1, 1), (2, 14, 1, 4), (16, 2, 1, 1),
        (18, 2, 1, 1), (19, 2, 1, 1), (5, 4, 1, 1), (4, 14, 1, 2), (20, 4, 1, 1),
        (21, 4, 1, 1), (23, 6, 1, 1), (9, 8, 1, 1), (8, 14, 1, 2), (24, 8, 1, 1),
        (25, 8, 1, 1), (27, 10, 1, 1), (17, 11, 2, 1), (29, 12, 1, 1),
        (17, 13, 2, 1), (17, 15, 2, 1), (17, 22, 2, 1), (17, 26, 2, 1),
        (17, 28, 2, 1), (17, 30, 2, 1), (17, 31, 2, 1),
    )


# Three irregular graphs (degrees 1-6, 3-8 and 1-5; diameters 4, 2 and 4)
# whose 224 pairs take 795 pivots, 538 of them degenerate.  The digest covers
# (x, y, value, optimizer, certificate) of every pair in lexicographic
# order, so a change to the pivot rule or the row order shows up on pairs
# that the three pinned tests above do not reach.
PINNED_EDGE_LISTS = (
    (11, [(0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (1, 3), (1, 4), (1, 5), (1, 9),
          (2, 8), (3, 5), (3, 6), (4, 5), (4, 7), (5, 6), (5, 7), (5, 10), (7, 8),
          (7, 9)]),
    (13, [(0, 1), (0, 9), (0, 10), (0, 11), (0, 12), (1, 3), (1, 4), (1, 8), (1, 9),
          (1, 11), (1, 12), (2, 3), (2, 7), (2, 11), (2, 12), (3, 5), (3, 6), (3, 10),
          (4, 5), (4, 10), (4, 11), (5, 12), (6, 8), (6, 9), (6, 11), (7, 8), (7, 11),
          (7, 12), (8, 10), (8, 12), (9, 12), (11, 12)]),
    (14, [(0, 7), (0, 10), (1, 2), (1, 3), (1, 5), (1, 8), (3, 4), (3, 5), (3, 6),
          (4, 7), (4, 12), (4, 13), (5, 9), (5, 10), (6, 11), (6, 12), (7, 12), (8, 9),
          (8, 10), (8, 12), (8, 13), (11, 12)]),
)


def test_pinned_digest_of_every_pair_on_irregular_graphs():
    digest = hashlib.sha256()
    pairs = 0
    for n, edges in PINNED_EDGE_LISTS:
        g = build_graph(n, edges)
        for x in range(n):
            for y in range(x + 1, n):
                solve = edge_curvature if g.adjacent(x, y) else long_range_curvature
                cv = solve(g, x, y)
                optimizer = sorted((v, str(f)) for v, f in cv.optimizer.items())
                digest.update(repr((cv.x, cv.y, str(cv.value), optimizer,
                                    cv.certificate)).encode())
                pairs += 1
    assert pairs == 224
    assert digest.hexdigest() == (
        "220b699f838c0a7bc83e67f55684a53610f5471aec6a0b45a647fbdcac8afbaf")


def test_pivot_limit_is_an_internal_error(monkeypatch):
    g = hypercube(3)
    lp = build_lipschitz_lp(g, 0, 7)  # three pivots from the start basis
    monkeypatch.setattr(ollivier, "_MAX_PIVOTS", 1)
    with pytest.raises(InternalCheckError, match="pivot limit exceeded"):
        ollivier.solve_lipschitz_lp(g, lp)


def test_pivot_limit_admits_a_solve_that_needs_exactly_the_limit(monkeypatch):
    g = hypercube(3)
    lp = build_lipschitz_lp(g, 0, 7)  # three pivots from the start basis
    free = ollivier.solve_lipschitz_lp(g, lp)
    monkeypatch.setattr(ollivier, "_MAX_PIVOTS", 3)
    assert ollivier.solve_lipschitz_lp(g, lp) == free
    monkeypatch.setattr(ollivier, "_MAX_PIVOTS", 2)
    with pytest.raises(InternalCheckError, match="pivot limit exceeded"):
        ollivier.solve_lipschitz_lp(g, lp)


def test_optimizer_is_lipschitz_with_unit_gap(j52):
    dist = j52.dist_rows()
    cv = edge_curvature(j52, 0, 1)
    f = cv.optimizer
    assert f[cv.y] - f[cv.x] == 1
    for u in f:
        for v in f:
            assert abs(f[u] - f[v]) <= dist[u][v]


@pytest.mark.parametrize("cost,least", [
    ([], 0),
    ([[1, 0, 1], [0, 1, 1], [1, 1, 0]], 0),  # a perfect matching on the zeros
    ([[0, 1, 1], [0, 1, 1], [1, 0, 0]], 1),  # two rows share their only zero
    ([[4, 1, 3], [2, 0, 5], [3, 2, 2]], 5),
])
def test_min_assignment_cost(cost, least):
    assert min_assignment_cost(cost) == least


@pytest.mark.parametrize("g,x,y,kappa", [
    # D + 1 = 3: the end 0 of P 4 carries 2 units, 1 carries 1 and each
    # neighbor 1; once the shared mass cancels, one unit goes from 0 to 2,
    # so W = 2 and kappa = 3 - 2
    (path_graph(4), 0, 1, Fraction(1)),
    (path_graph(4), 1, 0, Fraction(1)),
    # D + 1 = 4: the leaf 1 of K 1,3 carries 3 units and the center 1; once
    # the shared mass cancels, two units go from 1 to the other leaves, 2
    # apart each, so W = 4 and kappa = 4 - 4
    (complete_bipartite(1, 3), 1, 0, Fraction(0)),
])
def test_oracle_by_hand_where_an_end_carries_several_units(g, x, y, kappa):
    assert brute_force_curvature_oracle(g, x, y) == kappa == edge_curvature(g, x, y).value


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
    for x in range(g.n):
        for y in range(x + 1, g.n):
            solve = edge_curvature if g.adjacent(x, y) else long_range_curvature
            cv = solve(g, x, y)
            assert brute_force_curvature_oracle(g, x, y) == cv.value
            assert verify_optimality_certificate(g, cv)


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


@given(connected_graphs(min_n=2, max_n=8), st.data())
@settings(max_examples=100, deadline=None)
def test_lipschitz_check_matches_every_pair(g, data):
    x, y = data.draw(st.sampled_from([(x, y) for x in range(g.n) for y in range(x + 1, g.n)]))
    support = build_lipschitz_lp(g, x, y).support
    f = {v: data.draw(st.integers(-2, 4)) for v in support}
    dist = g.dist_rows()
    expected = all(abs(f[u] - f[v]) <= dist[u][v] for u in support for v in support)
    assert _is_lipschitz(dist, support, f) == expected


def test_certificate_rejects_lipschitz_violation(q3):
    cv = long_range_curvature(q3, 0, 7)
    optimizer = dict(cv.optimizer)
    optimizer[1] = Fraction(2)  # f(1) - f(0) = 2 across an edge
    assert not verify_optimality_certificate(q3, replace(cv, optimizer=optimizer))


# --- one LP per reflection orbit, transported certificates replayed ---

ORBIT_GRAPHS = ("gosset", "schlafli", "HQ 6", "J 7 3", "Q 5", "( Q 2 x CP 3 )")


def _all_pairs(g):
    return [(x, y) for x in range(g.n) for y in range(x + 1, g.n)]


@pytest.mark.parametrize("expr", ORBIT_GRAPHS)
def test_orbit_values_match_per_pair_lp(expr):
    g, fresh = parse_family(expr).build(), parse_family(expr).build()
    assert is_reflective(g).reflective
    assert min_edge_curvature(g) == min_edge_curvature(fresh)
    far = long_range_curvatures(g)
    assert list(far) == [p for p in _all_pairs(g) if not g.adjacent(*p)]
    for (x, y) in _all_pairs(g):
        cv = g.cache["kappa", x, y]
        assert (cv.x, cv.y) == (x, y)
        assert cv.value == long_range_curvature(fresh, x, y).value
        assert verify_optimality_certificate(g, cv)


@given(connected_graphs(min_n=2, max_n=8))
@settings(max_examples=60, deadline=None)
def test_orbit_route_matches_per_pair_lp_on_random_graphs(g):
    fresh = build_graph(g.n, g.edges)
    is_reflective(g)
    if g.m:
        assert min_edge_curvature(g) == min_edge_curvature(fresh)
    for (x, y), cv in long_range_curvatures(g).items():
        assert cv.value == long_range_curvature(fresh, x, y).value
        assert verify_optimality_certificate(g, cv)


def _count_solves(monkeypatch):
    solves = {"edge": 0, "far": 0}
    solve = ollivier.solve_lipschitz_lp

    def counting(g, lp):
        solves["edge" if lp.gap == 1 else "far"] += 1
        return solve(g, lp)

    monkeypatch.setattr(ollivier, "solve_lipschitz_lp", counting)
    return solves


def test_gosset_needs_one_edge_lp_and_two_far_pair_lps(monkeypatch):
    solves = _count_solves(monkeypatch)
    g = parse_family("gosset").build()
    assert is_reflective(g).reflective
    assert min_edge_curvature(g).value == 18
    assert len(long_range_curvatures(g)) == 784
    assert solves == {"edge": 1, "far": 2}


@pytest.mark.parametrize("expr", ["C 5", "( C 5 x K 2 )", "P 4"])
def test_non_reflective_graphs_solve_every_pair(monkeypatch, expr):
    solves = _count_solves(monkeypatch)
    g = parse_family(expr).build()
    assert not is_reflective(g).reflective
    min_edge_curvature(g)
    far = long_range_curvatures(g)
    assert solves == {"edge": g.m, "far": len(far)}


def test_min_edge_curvature_computes_its_own_reflections(monkeypatch):
    solves = _count_solves(monkeypatch)
    g = parse_family("schlafli").build()
    assert "reflective" not in g.cache
    min_edge_curvature(g)
    assert solves["edge"] == 1
    assert g.cache["reflective"].reflective


@pytest.mark.parametrize("expr", ["schlafli", "Q 4", "C 5"])
def test_single_pair_requests_compute_no_reflections(monkeypatch, expr):
    solves = _count_solves(monkeypatch)
    g = parse_family(expr).build()
    far = next((0, v) for v in range(1, g.n) if not g.adjacent(0, v))
    edge_curvature(g, *g.edges[0])
    long_range_curvature(g, *far)
    assert solves == {"edge": 1, "far": 1}
    assert "reflective" not in g.cache
    assert not any(isinstance(k, tuple) and k[0].startswith("refl") for k in g.cache)


@pytest.mark.parametrize("corrupt", ["far pair", "one vertex"])
def test_corrupted_reflection_is_an_internal_error(corrupt):
    g = parse_family("Q 3").build()
    assert is_reflective(g).reflective
    far = next(v for v in range(g.n) if g.distance(0, v) == 2)
    mapping = list(range(g.n))
    if corrupt == "far pair":  # sends the edge (0, 1) to a non-adjacent pair
        mapping[1], mapping[far] = far, 1
        image = ("kappa", 0, far)
    else:  # sends both ends of (0, 1) to 0
        mapping[1] = 0
        image = ("kappa", 0, 0)
    g.cache["refl", 0, 1] = (tuple(mapping), None, None)
    with pytest.raises(InternalCheckError, match="does not replay"):
        min_edge_curvature(g)
    assert image not in g.cache
