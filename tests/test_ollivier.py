import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, load_workloads
from gcurv import ollivier
from gcurv.classify import classify
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
from gcurv.graphs import adjacency_bits, ball, build_graph, parse_edge_list
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
    solve_lipschitz_lp,
    verify_optimality_certificate,
)
from gcurv.reflective import is_reflective, reflection_generators
from gcurv.spectral import is_distance_regular
from gcurv.verify import standard_corpus


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


def test_non_integer_vertex_rejected():
    g = cycle(5)
    for call, x, y in ((edge_curvature, 0.0, 1), (edge_curvature, 0, 1.0),
                       (long_range_curvature, "0", 1), (brute_force_curvature_oracle, 0, 1.0)):
        with pytest.raises(InvalidParameterError, match="not an integer"):
            call(g, x, y)
    assert edge_curvature(g, np.int64(0), np.int64(1)).value == 1


def test_certificate_rejects_non_integer_end_and_short_row():
    g = cycle(5)
    cv = edge_curvature(g, 0, 1)
    assert not verify_optimality_certificate(g, replace(cv, x=0.0))
    assert not verify_optimality_certificate(g, replace(cv, certificate=cv.certificate + ((0, 1),)))
    (u, v, rhs, lam), = cv.certificate
    assert not verify_optimality_certificate(g, replace(cv, certificate=((float(u), v, rhs, lam),)))
    assert verify_optimality_certificate(g, replace(cv, certificate=((np.int64(u), v, rhs, lam),)))
    # an optimizer key equal to a support vertex but not an integer
    for key in (float, lambda k: k + 0j):
        optimizer = {key(k): f for k, f in cv.optimizer.items()}
        assert not verify_optimality_certificate(g, replace(cv, optimizer=optimizer))
    optimizer = {np.int64(k): f for k, f in cv.optimizer.items()}
    assert verify_optimality_certificate(g, replace(cv, optimizer=optimizer))


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


# Exact outputs of the production route, pinned so that a change to the
# greedy plan, the optimal plan or the point read off a plan shows up even
# when the value does not move.
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
        (10, 3, 1, 1), (11, 4, 1, 1), (12, 7, 1, 1), (13, 8, 1, 1),
        (19, 15, 1, 1), (25, 16, 1, 1), (31, 17, 2, 1), (32, 18, 2, 1),
    )


def test_pinned_halved_cube_distance_three_pair():
    g = halved_cube(6)
    assert g.distance(14, 17) == 3
    cv = long_range_curvature(g, 14, 17)
    assert cv.value == 10
    ones = (2, 4, 6, 7, 8, 10, 11, 12, 13, 15, 22, 26, 28, 30, 31)
    assert cv.optimizer == {v: 0 if v == 14 else 3 if v == 17 else 1 if v in ones else 2
                            for v in range(g.n)}
    # the plan pairs nothing: each source sits on its row to y, each sink
    # on its row to x
    assert cv.certificate == (
        (0, 14, 2, 1), (1, 14, 2, 1), (17, 2, 2, 1), (3, 14, 2, 1), (17, 4, 2, 1),
        (5, 14, 2, 1), (17, 6, 2, 1), (17, 7, 2, 1), (17, 8, 2, 1), (9, 14, 2, 1),
        (17, 10, 2, 1), (17, 11, 2, 1), (17, 12, 2, 1), (17, 13, 2, 1),
        (16, 14, 2, 1), (18, 14, 2, 1), (19, 14, 2, 1), (20, 14, 2, 1),
        (21, 14, 2, 1), (23, 14, 2, 1), (24, 14, 2, 1), (25, 14, 2, 1),
        (27, 14, 2, 1), (29, 14, 2, 1), (17, 15, 2, 1), (17, 22, 2, 1),
        (17, 26, 2, 1), (17, 28, 2, 1), (17, 30, 2, 1), (17, 31, 2, 1),
    )


# Three irregular graphs (degrees 1-6, 3-8 and 1-5; diameters 4, 2 and 4)
# with 224 pairs.  The digest covers (x, y, value, optimizer, certificate)
# of every pair in lexicographic order, so a change to a plan, its point or
# the row order shows up on pairs that the three pinned tests above do not
# reach.  The optimal plan is hashed on its own, forced on every pair, since
# the greedy plan answers most pairs before it; the production route is
# hashed on the 73 edges and the 151 far pairs apart, so that a change to
# one route cannot hide behind the other.
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


def _digest_of_every_pinned_pair(solve, adjacent=None):
    """SHA-256 over solve(g, x, y) of every pair of the pinned graphs, or of
    their edges or far pairs alone where adjacent is True or False, each
    certificate replayed on the way."""
    digest = hashlib.sha256()
    pairs = 0
    for n, edges in PINNED_EDGE_LISTS:
        g = build_graph(n, edges)
        for x in range(n):
            for y in range(x + 1, n):
                if adjacent is not None and g.adjacent(x, y) != adjacent:
                    continue
                cv = solve(g, x, y)
                assert verify_optimality_certificate(g, cv)
                optimizer = sorted((v, str(f)) for v, f in cv.optimizer.items())
                digest.update(repr((cv.x, cv.y, str(cv.value), optimizer,
                                    cv.certificate)).encode())
                pairs += 1
    assert pairs == {None: 224, True: 73, False: 151}[adjacent]
    return digest.hexdigest()


def _optimal_plan_route(g, x, y):
    """The pair answered by the point of its optimal plan: the fallback,
    forced whether or not the greedy plan's point certifies."""
    lp = build_lipschitz_lp(g, x, y)
    found = ollivier._plan_point(g, lp, ollivier._optimal_plan(g, x, y))
    return ollivier._curvature_value(lp, *found)


def test_pinned_digest_of_every_pair_on_irregular_graphs():
    digest = _digest_of_every_pinned_pair(_optimal_plan_route)
    assert digest == "4582f2fa743ce880342215fa924e3acde9cec01074218ce6a59d886a8aa73ea8"


def test_pinned_digest_of_every_edge_through_the_production_route():
    # the greedy plan answers most edges, the optimal plan the rest
    digest = _digest_of_every_pinned_pair(edge_curvature, adjacent=True)
    assert digest == "da6c6fd190dd66882e4edd38002401d4dfe01c59496e42ceb9c5ce767ecf8da0"


def test_pinned_digest_of_every_far_pair_through_the_production_route():
    # the greedy plan answers most far pairs, the optimal plan the rest
    digest = _digest_of_every_pinned_pair(long_range_curvature, adjacent=False)
    assert digest == "9a06878689dc01d984a7d9c56cce05a326738a32d3feb93e11e5dcf2470a7aea"


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


# --- one LP per reflection orbit, certificates carried on request ---

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
        cv = (edge_curvature if g.adjacent(x, y) else long_range_curvature)(g, x, y)
        assert (cv.x, cv.y) == (x, y)
        assert cv.value == long_range_curvature(fresh, x, y).value
        assert verify_optimality_certificate(g, cv)


# SHA-256 over (x, y, value, optimizer, certificate) of every pair in
# lexicographic order, after min_edge_curvature and then
# long_range_curvatures on a fresh graph: pins the carried optimizers and
# certificates of the orbit route, not just its values, and each hashed
# certificate is replayed.
CARRIED_DIGESTS = {
    "gosset": "9d1fcc0396397cca109f6e1ed19a14807792cd40ca4d1331e29adc529cac85cf",
    "HQ 6": "64a26c9012e8409db1a1c92f76b73c4a44f3c828c5c576e07683069bd55e49c5",
    "( Q 2 x CP 3 )": "05374b9805196ec9bb4e464596bcbe7820d2c2d68307368d3884d1c916778803",
}


@pytest.mark.parametrize("expr", sorted(CARRIED_DIGESTS))
def test_pinned_digest_of_every_carried_pair(expr):
    g = parse_family(expr).build()
    min_edge_curvature(g)
    long_range_curvatures(g)
    digest = hashlib.sha256()
    for (x, y) in _all_pairs(g):
        solve = edge_curvature if g.adjacent(x, y) else long_range_curvature
        cv = solve(g, x, y)
        assert verify_optimality_certificate(g, cv)
        optimizer = sorted((v, str(f)) for v, f in cv.optimizer.items())
        digest.update(repr((cv.x, cv.y, str(cv.value), optimizer, cv.certificate)).encode())
    assert digest.hexdigest() == CARRIED_DIGESTS[expr]


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

    def counting(g, lp, *plan):
        solves["edge" if lp.gap == 1 else "far"] += 1
        return solve(g, lp, *plan)

    monkeypatch.setattr(ollivier, "solve_lipschitz_lp", counting)
    return solves


def test_gosset_needs_one_edge_lp_and_two_far_pair_lps(monkeypatch):
    solves = _count_solves(monkeypatch)
    g = parse_family("gosset").build()
    assert is_reflective(g).reflective
    assert min_edge_curvature(g).value == 18
    assert len(long_range_curvatures(g)) == 784
    assert solves == {"edge": 1, "far": 2}


@pytest.mark.parametrize("expr, orbits", [("Q 3", {"edge": 3, "far": 4}),
                                          ("gosset", {"edge": 1, "far": 2})])
def test_pairs_solved_alone_lead_their_orbits(monkeypatch, expr, orbits):
    # a pair solved before the orbit records exist is searched from like any
    # orbit's first pair, so neither it nor its images need another LP
    g = parse_family(expr).build()
    far = next((0, v) for v in range(1, g.n) if not g.adjacent(0, v))
    solves = _count_solves(monkeypatch)
    edge_curvature(g, *g.edges[0])
    long_range_curvature(g, *far)
    min_edge_curvature(g)
    long_range_curvatures(g)
    assert solves == orbits


def test_a_pair_solved_alone_roots_its_orbit_wherever_it_lies(monkeypatch):
    # Gosset's last edge and its last pair at distance 2, solved before any
    # orbit record exists, open their orbits ahead of the first pairs, so
    # the minimum and the far pairs reuse their LPs
    solves = _count_solves(monkeypatch)
    g = parse_family("gosset").build()
    edge_curvature(g, *g.edges[-1])
    assert min_edge_curvature(g) == (18, True, (0, 1), None)
    assert solves == {"edge": 1, "far": 0}
    g = parse_family("gosset").build()
    far = [(x, y) for x in range(g.n) for y in range(x + 1, g.n) if g.distance(x, y) == 2][-1]
    long_range_curvature(g, *far)
    values = long_range_curvatures(g)
    assert solves == {"edge": 1, "far": 2}
    fresh = parse_family("gosset").build()
    assert {d: {cv.value for p, cv in values.items() if g.distance(*p) == d} for d in (2, 3)} \
        == {d: {long_range_curvature(fresh, 0, v).value} for d, v in ((2, 13), (3, 28))}
    assert all(verify_optimality_certificate(g, values[p]) for p in (far, (0, 13), (0, 28)))
    # the minimum makes the records, and the far pair solved before it
    # still roots its orbit
    solves.update(edge=0, far=0)
    g = parse_family("gosset").build()
    long_range_curvature(g, *far)
    min_edge_curvature(g)
    long_range_curvatures(g)
    assert solves == {"edge": 1, "far": 2}


def test_single_pairs_after_the_minimum_solve_one_lp_per_orbit(monkeypatch):
    # Gosset's far pairs form two orbits, 756 pairs at distance 2 and 28 at 3
    g = parse_family("gosset").build()
    min_edge_curvature(g)
    rng = random.Random(22)
    far = [[(x, y) for x in range(g.n) for y in range(x + 1, g.n) if g.distance(x, y) == d]
           for d in (2, 3)]
    asked = rng.sample(far[0], 12) + rng.sample(far[1], 12)
    rng.shuffle(asked)
    fresh = parse_family("gosset").build()
    per_pair = {p: solve_lipschitz_lp(fresh, build_lipschitz_lp(fresh, *p)).value for p in asked}
    solves = _count_solves(monkeypatch)
    for (x, y) in asked:
        cv = long_range_curvature(g, x, y)
        assert (cv.x, cv.y, cv.value) == (x, y, per_pair[x, y])
        assert verify_optimality_certificate(g, cv)
    assert solves == {"edge": 0, "far": 2}


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(ollivier, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ollivier, name, counting)
    return calls


def test_gosset_minimum_builds_and_replays_no_carried_pair(monkeypatch):
    g = parse_family("gosset").build()
    calls = _count_calls(monkeypatch, "solve_lipschitz_lp",
                         "verify_optimality_certificate", "_carry")
    assert min_edge_curvature(g) == (18, True, (0, 1), None)
    assert calls == {"solve_lipschitz_lp": 1, "verify_optimality_certificate": 0, "_carry": 0}
    # an edge asked for is built along its parent chain, each link cached
    edge_curvature(g, *g.edges[-1])
    built = sum(1 for k in g.cache if isinstance(k, tuple) and k[0] == "kappa")
    assert calls["_carry"] == built - 1 > 0
    assert [edge_curvature(g, *e).value for e in g.edges] == [18] * 756
    assert calls["_carry"] == 755 and calls["solve_lipschitz_lp"] == 1


def test_bound_first_minimum_builds_each_edge_program_once(monkeypatch):
    n, edges = PINNED_EDGE_LISTS[1]
    g = build_graph(n, edges)
    calls = _count_calls(monkeypatch, "build_lipschitz_lp", "solve_lipschitz_lp")
    min_edge_curvature(g)
    # neither tier of bounds builds a program: only the solved edge gets one
    assert calls == {"build_lipschitz_lp": 1, "solve_lipschitz_lp": 1}


def test_cold_classify_builds_a_program_only_for_a_solved_pair(monkeypatch):
    # the 24 seed-1 inputs of the analyze-random benchmark, given as edge-list text
    graphs = [parse_edge_list(text) for _, text, _ in load_workloads().random_inputs(1, 24)]
    calls = _count_calls(monkeypatch, "build_lipschitz_lp", "solve_lipschitz_lp")
    for g in graphs:
        classify(g)
    assert calls == {"build_lipschitz_lp": 66, "solve_lipschitz_lp": 66}


def test_cold_classify_builds_each_greedy_plan_once(monkeypatch):
    # an edge solved for the minimum reuses the plan of its bound, and a
    # root whose matching bound lies above the minimum gets no plan
    graphs = [parse_edge_list(text) for _, text, _ in load_workloads().random_inputs(1, 24)]
    calls = _count_calls(monkeypatch, "_greedy_plan", "_edge_bound")
    for g in graphs:
        classify(g)
    assert calls == {"_greedy_plan": 94, "_edge_bound": 94}


# edges solved for the minimum: the edge bounds leave unsolved every edge
# whose bound exceeds it, and the witness scan every tied edge past the
# witnesses
BOUND_FIRST_EDGE_SOLVES = {"C 5": 5, "( C 5 x K 2 )": 1, "P 4": 1}


@pytest.mark.parametrize("expr", ["C 5", "( C 5 x K 2 )", "P 4"])
def test_non_reflective_graphs_solve_every_pair(monkeypatch, expr):
    edge_solves = BOUND_FIRST_EDGE_SOLVES[expr]
    solves = _count_solves(monkeypatch)
    g = parse_family(expr).build()
    assert not is_reflective(g).reflective
    min_edge_curvature(g)
    far = long_range_curvatures(g)
    assert solves == {"edge": edge_solves, "far": len(far)}
    assert min_edge_curvature(g) is min_edge_curvature(g)
    assert solves == {"edge": edge_solves, "far": len(far)}


def test_constant_curvature_without_reflections_solves_every_edge(monkeypatch):
    # Shrikhande: the Cayley graph of Z4 x Z4 on +-(1, 0), +-(0, 1), +-(1, 1);
    # every bound equals the common value, so no edge can be skipped
    steps = ((1, 0), (0, 1), (1, 1))
    g = build_graph(16, sorted({
        tuple(sorted((4 * a + b, 4 * ((a + s * da) % 4) + (b + s * db) % 4)))
        for a in range(4) for b in range(4) for (da, db) in steps for s in (1, -1)}))
    assert g.m == 48 and not is_reflective(g).reflective
    solves = _count_solves(monkeypatch)
    assert min_edge_curvature(g) == (2, True, (0, 1), None)
    assert solves == {"edge": 48, "far": 0}


# --- bound-first minimum on graphs that are not reflective ---

def _scan_min_edge(g):
    """The minimum by a lexicographic scan over every edge's exact value."""
    values = [edge_curvature(g, x, y).value for (x, y) in g.edges]
    best = min(values)
    other = next((e for e, v in zip(g.edges, values) if v != best), None)
    return (best, other is None, g.edges[values.index(best)], other)


BOUND_GRAPHS = ("C 5", "C 6", "P 4", "( C 5 x K 2 )", "KB 2 3", "KB 3 3", "petersen")


@pytest.mark.parametrize("expr", BOUND_GRAPHS)
def test_bound_first_minimum_on_named_graphs(expr):
    g = parse_family(expr).build()
    assert tuple(min_edge_curvature(g)) == _scan_min_edge(build_graph(g.n, g.edges))
    # the greedy plan is an optimal one on every edge of these graphs
    assert all(ollivier._edge_bound(g, x, y) == edge_curvature(g, x, y).value
               for (x, y) in g.edges)


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=60, deadline=None)
def test_bound_first_minimum_on_random_graphs(g):
    assert tuple(min_edge_curvature(g)) == _scan_min_edge(build_graph(g.n, g.edges))
    for (x, y) in g.edges:
        assert ollivier._edge_bound(g, x, y) <= edge_curvature(g, x, y).value


@given(connected_graphs(min_n=2, max_n=12))
@settings(max_examples=60, deadline=None)
def test_matching_bound_is_at_most_the_greedy_bound(g):
    # tier 0 <= tier 1 <= curvature on every edge
    for (x, y) in g.edges:
        tier0, tier1 = ollivier._matching_bound(g, x, y), ollivier._edge_bound(g, x, y)
        assert tier0 <= tier1 <= edge_curvature(g, x, y).value


def test_tied_edges_wait_for_the_witness_scan(monkeypatch):
    # ( P 5 x C 6 ) is not reflective and 42 of its 54 edges tie at the
    # minimum 0, each with a greedy bound of 0, so a heap that solved every
    # root up to a bound above the minimum would solve 42; the witnesses
    # are the first edge and the third, and only the first two are solved
    g = parse_family("( P 5 x C 6 )").build()
    fresh = build_graph(g.n, g.edges)
    assert not is_reflective(g).reflective
    values = [edge_curvature(fresh, *e).value for e in fresh.edges]
    bounds = [ollivier._edge_bound(fresh, *e) for e in fresh.edges]
    assert (g.m, values.count(0), min(values)) == (54, 42, 0)
    assert all(b == 0 for b, v in zip(bounds, values) if v == 0)
    solves = _count_solves(monkeypatch)
    assert tuple(min_edge_curvature(g)) == _scan_min_edge(fresh) \
        == (0, False, g.edges[0], g.edges[2])
    assert solves == {"edge": 2, "far": 0}


def _triangle_bound_checks(g):
    """The triangle bound 4 - d_x - d_y + 3|N(x) & N(y)| is _dual_bound of
    the lone rows (every source to y, every sink to x), at most _edge_bound."""
    dist = g.dist_rows()
    for (x, y) in g.edges:
        lp = build_lipschitz_lp(g, x, y)
        free = [v for v in lp.support if v != x and v != y]
        rows = [(y, v, dist[y][v], 1) for v in free if lp.coeffs[v] == 1]
        rows += [(v, x, dist[v][x], 1) for v in free if lp.coeffs[v] == -1]
        common = len(set(g.neighbors[x]) & set(g.neighbors[y]))
        triangle = 4 - g.degree(x) - g.degree(y) + 3 * common
        assert ollivier._dual_bound(dist, lp, rows) == triangle
        assert triangle <= ollivier._edge_bound(g, x, y)


@pytest.mark.parametrize("expr", BOUND_GRAPHS)
def test_triangle_bound_is_the_lone_rows_plan_on_named_graphs(expr):
    _triangle_bound_checks(parse_family(expr).build())


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=60, deadline=None)
def test_triangle_bound_is_the_lone_rows_plan_on_random_graphs(g):
    _triangle_bound_checks(g)


def _edge_orbit_roots(g):
    """The root of each edge: the first edge of its orbit under the
    reflections, in edge order; every edge on a graph that is not
    reflective."""
    gens = reflection_generators(g) or []
    root = {}
    for e in g.edges:
        if e in root:
            continue
        root[e] = e
        frontier = [e]
        while frontier:
            images = {tuple(sorted((mp[u], mp[v]))) for (u, v) in frontier for mp in gens}
            frontier = [i for i in images if i not in root]
            root.update(dict.fromkeys(frontier, e))
    return [root[e] for e in g.edges]


def _roots_the_minimum_solves(g):
    """The edge orbit roots that the bound-first minimum solves, by its rule
    restated on the greedy bounds alone: the roots in (bound, root) order
    while the bound lies below the running minimum, then, in edge order,
    the root of each edge whose bound equals the minimum, until the first
    edge at the minimum and the first edge at another value are known."""
    root = _edge_orbit_roots(g)
    bound = {r: ollivier._edge_bound(g, *r) for r in root}
    value, best = {}, None
    for b, r in sorted((b, r) for r, b in bound.items()):
        if best is not None and b >= best:
            break
        value[r] = edge_curvature(g, *r).value
        best = value[r] if best is None else min(best, value[r])
    min_edge = other = None
    for e, r in zip(g.edges, root):
        if min_edge is not None and other is not None:
            break
        if r not in value and bound[r] == best:
            value[r] = edge_curvature(g, *r).value
        if value.get(r) == best:
            min_edge = min_edge or e
        else:
            other = other or e
    return list(value)


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=60, deadline=None)
@example(parse_family("( Q 2 x CP 3 )").build())
@example(parse_family("( K 2 x J 4 2 )").build())
@example(parse_family("( K 2 x C 6 )").build())
@example(parse_family("( P 5 x C 6 )").build())
@example(parse_family("Q 3").build())
def test_two_tiers_solve_the_edges_that_one_tier_solves(g):
    # the matching tier only delays the greedy bounds: the roots solved
    # are those that the greedy bounds alone name
    expected = _roots_the_minimum_solves(build_graph(g.n, g.edges))
    g = build_graph(g.n, g.edges)
    with pytest.MonkeyPatch.context() as patch:
        solves = _count_solves(patch)
        min_edge_curvature(g)
    assert solves == {"edge": len(expected), "far": 0}
    assert sorted(k[1:] for k in g.cache if isinstance(k, tuple) and k[0] == "kappa") \
        == sorted(expected)


@pytest.mark.parametrize("expr, solves", [("( Q 2 x CP 3 )", 1), ("( K 2 x J 4 2 )", 1)])
def test_bounds_pick_the_edge_orbits_that_are_solved(monkeypatch, expr, solves):
    # the factors' edges lie in orbits of different curvature, and a root
    # whose bound exceeds the minimum is never solved, nor one tied with it
    # once both witnesses are known
    counts = _count_solves(monkeypatch)
    g = parse_family(expr).build()
    assert is_reflective(g).reflective
    min_edge_curvature(g)
    assert counts == {"edge": solves, "far": 0}


def _greedy_bound_on_distance_rows(g, x, y):
    """_edge_bound's plan read from the distance rows instead of the bitmasks."""
    lp = build_lipschitz_lp(g, x, y)
    dist = g.dist_rows()
    free = [v for v in lp.support if v != x and v != y]
    sources = [v for v in free if lp.coeffs[v] == 1]
    sinks = [v for v in free if lp.coeffs[v] == -1]
    owner = {}

    def augment(s, seen):
        for t in sinks:
            if t not in seen and dist[s][t] == 1:
                seen.add(t)
                if t not in owner or augment(owner[t], seen):
                    owner[t] = s
                    return True
        return False

    rows = []
    for s in [s for s in sources if not augment(s, set())]:
        t = next((t for t in sinks if t not in owner and dist[s][t] == 2), None)
        if t is None:
            rows.append((y, s, dist[y][s], 1))
        else:
            owner[t] = s
    rows += [(t, s, dist[t][s], 1) for t, s in owner.items()]
    rows += [(t, x, dist[t][x], 1) for t in sinks if t not in owner]
    return ollivier._dual_bound(dist, lp, rows)


@given(connected_graphs(min_n=2, max_n=12))
@settings(max_examples=60, deadline=None)
def test_edge_bound_matches_the_greedy_plan_on_distance_rows(g):
    for (x, y) in g.edges:
        assert ollivier._edge_bound(g, x, y) == _greedy_bound_on_distance_rows(g, x, y)


def test_edge_bound_matches_the_greedy_plan_on_the_corpus_and_random_inputs():
    graphs = [parse_edge_list(text) for _, text, _ in load_workloads().random_inputs(1, 24)]
    members = [m for m in standard_corpus() if not is_reflective(m.graph).reflective]
    assert [m.spec.label() for m in members] == [
        "C 5", "C 6", "KB 3 3", "petersen", "P 4", "( C 5 x K 2 )", "( P 4 x K 2 )"]
    graphs += [m.graph for m in members]
    for g in graphs:
        for (x, y) in g.edges:
            assert ollivier._edge_bound(g, x, y) == _greedy_bound_on_distance_rows(g, x, y)


def test_edge_bound_follows_an_augmenting_path_through_every_source():
    # x = 0 ~ y = 1; sources a_j = j + 1 and b = L + 2 at x, sinks
    # t_j = L + 2 + j at y, a_j ~ t_j, a_j ~ t_(j+1) and b ~ t_1: b's
    # augmenting path passes through all L sources, deeper than the
    # interpreter's recursion limit
    L = 1100
    b = L + 2
    edges = [(0, 1), (0, b), (b, b + 1)]
    for j in range(1, L + 1):
        edges += [(0, j + 1), (j + 1, b + j), (j + 1, b + j + 1), (1, b + j)]
    edges.append((1, b + L + 1))
    g = build_graph(2 * L + 4, edges)
    assert (g.n, g.m) == (2204, 4404)
    # a perfect matching: each of the L + 1 pairs adds 2 to the triangle bound
    assert ollivier._edge_bound(g, 0, 1) == 2


def test_dual_bound_refuses_malformed_rows():
    g = cycle(5)
    lp = build_lipschitz_lp(g, 0, 1)
    dist = g.dist_rows()
    rows = list(edge_curvature(g, 0, 1).certificate)
    assert ollivier._dual_bound(dist, lp, rows) == 1
    u, v, rhs, _ = rows[0]
    # a pair of opposite rows leaves stationarity as it was
    assert ollivier._dual_bound(dist, lp, rows + [(u, v, rhs, -1), (u, v, rhs, 1)]) is None
    assert ollivier._dual_bound(dist, lp, rows + [(u, v, rhs + 1, 0)]) is None
    assert ollivier._dual_bound(dist, lp, rows[1:]) is None


def test_refused_edge_bound_is_an_internal_error():
    # a false bit 2 in the adjacency mask of vertex 5 of C 6: the plan of the
    # edge (0, 1), popped first, pairs source 5 with sink 2 at distance 3
    g = cycle(6)
    adjacency_bits(g)[5] |= 1 << 2
    assert g.cache["adj_bits"][5] >> 2 & 1 and g.distance(2, 5) == 3
    with pytest.raises(InternalCheckError, match="edge bound"):
        min_edge_curvature(g)


def test_refused_matching_bound_is_an_internal_error(monkeypatch):
    # a false bit 2 in the adjacency mask of vertex 4 of C 5: the matching
    # tier of the edge (0, 1) pairs source 4 with sink 2, at distance 2,
    # as adjacent; the refusal comes before any greedy plan is built
    g = cycle(5)
    adjacency_bits(g)[4] |= 1 << 2
    assert g.distance(2, 4) == 2
    with pytest.raises(InternalCheckError, match="edge bound"):
        ollivier._matching_bound(g, 0, 1)

    def no_plan(*args):
        raise AssertionError("a greedy plan was built")

    monkeypatch.setattr(ollivier, "_greedy_plan", no_plan)
    with pytest.raises(InternalCheckError, match="edge bound"):
        min_edge_curvature(g)
    assert "min_edge" not in g.cache


# --- the plan route: a pair answered by the point of a transport plan ---

def test_plan_route_answers_every_edge_of_the_standard_corpus(monkeypatch):
    def no_fallback(*args):
        raise AssertionError("the optimal plan was built")

    monkeypatch.setattr(ollivier, "_optimal_plan", no_fallback)
    edges = 0
    for member in standard_corpus():
        g = member.graph
        for (x, y) in g.edges:
            cv = solve_lipschitz_lp(g, build_lipschitz_lp(g, x, y))
            assert cv.value == brute_force_curvature_oracle(g, x, y)
            assert verify_optimality_certificate(g, cv)
            edges += 1
    assert edges == 2261


# (n, edges, edge, greedy bound, curvature, optimal plans built): the greedy
# bound falls short of the curvature on the first, so its plan is not
# optimal; on the second it is sharp, and the least point of the greedy
# plan certifies, although placing every pair at its source's lone value,
# or every pair at its sink's, gives no 1-Lipschitz point
PLAN_FALLBACKS = [
    (7, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 6), (2, 5), (3, 6), (4, 5), (4, 6)],
     (0, 4), 0, 1, 1),
    (6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4), (3, 5), (4, 5)],
     (0, 3), 0, 0, 0),
]


@pytest.mark.parametrize("n, edges, edge, bound, kappa, fallbacks", PLAN_FALLBACKS)
def test_plan_route_falls_back_to_the_optimal_plan(monkeypatch, n, edges, edge, bound, kappa,
                                                   fallbacks):
    g = build_graph(n, edges)
    assert ollivier._edge_bound(g, *edge) == bound
    assert (ollivier._plan_point(g, build_lipschitz_lp(g, *edge)) is None) == bool(fallbacks)
    calls = _count_calls(monkeypatch, "_optimal_plan")
    cv = edge_curvature(g, *edge)
    assert calls == {"_optimal_plan": fallbacks}
    assert cv.value == kappa == brute_force_curvature_oracle(g, *edge)
    assert verify_optimality_certificate(g, cv)


def test_plan_point_stops_on_a_plan_that_is_not_optimal():
    # the greedy plan of the first fallback edge proves only 0 < 1, so no
    # feasible point is tight on its rows: raising along them pushes f(y)
    # past the gap, and the loop ends there
    n, edges, edge, bound, kappa, _ = PLAN_FALLBACKS[0]
    g = build_graph(n, edges)
    plan = ollivier._greedy_plan(g, *edge)
    assert ollivier._edge_bound(g, *edge, plan) == bound < kappa
    assert ollivier._plan_point(g, build_lipschitz_lp(g, *edge), plan) is None


def test_refused_optimal_plan_is_an_internal_error(monkeypatch):
    # a planted fallback that returns the greedy plan, which is not optimal
    n, edges, edge, *_ = PLAN_FALLBACKS[0]
    g = build_graph(n, edges)
    monkeypatch.setattr(ollivier, "_optimal_plan", ollivier._greedy_plan)
    with pytest.raises(InternalCheckError, match="optimality check"):
        edge_curvature(g, *edge)
    assert ("kappa",) + edge not in g.cache


def test_greedy_plan_answers_most_pairs_of_the_seed_one_inputs(monkeypatch):
    # the 24 seed-1 inputs of the analyze-random benchmark, each pair solved
    # alone: [pairs the greedy plan answers, pairs] for edges and far pairs
    graphs = [parse_edge_list(text) for _, text, _ in load_workloads().random_inputs(1, 24)]
    calls = _count_calls(monkeypatch, "_optimal_plan")
    answered = {"edge": [0, 0], "far": [0, 0]}
    for g in graphs:
        for x in range(g.n):
            for y in range(x + 1, g.n):
                before = calls["_optimal_plan"]
                solve_lipschitz_lp(g, build_lipschitz_lp(g, x, y))
                tally = answered["edge" if g.adjacent(x, y) else "far"]
                tally[0] += calls["_optimal_plan"] == before
                tally[1] += 1
    assert answered == {"edge": [1858, 1887], "far": [3622, 3975]}


def _exhaustive_value(g, x, y):
    """The curvature of (x, y) as the lone-row sum plus the greatest total
    gain over every injective map of the sources into the sinks and one
    lone slot per source; shares no code with the Hungarian method."""
    lp = build_lipschitz_lp(g, x, y)
    dist = g.dist_rows()
    d = lp.gap
    free = [v for v in lp.support if v != x and v != y]
    sources = [v for v in free if lp.coeffs[v] == 1]
    sinks = [v for v in free if lp.coeffs[v] == -1]
    # weak duality on the rows (y, s) and (t, x): each source row adds 1 to
    # the multiplier sum at y
    lone = ((lp.coeffs[y] + len(sources)) * d - sum(dist[y][s] for s in sources)
            - sum(dist[t][x] for t in sinks))
    gain = [[dist[y][s] - d + dist[t][x] - dist[t][s] for t in sinks] + [0] * len(sources)
            for s in sources]
    best = max(sum(row[j] for row, j in zip(gain, cols))
               for cols in permutations(range(len(sinks) + len(sources)), len(sources)))
    return Fraction(lone + best, d)


def _check_every_route(g, x, y):
    """The greedy route, the optimal plan forced, the transport oracle and
    the exhaustive reference agree, and both certificates replay."""
    greedy = solve_lipschitz_lp(g, build_lipschitz_lp(g, x, y))
    forced = _optimal_plan_route(g, x, y)
    assert greedy.value == forced.value == brute_force_curvature_oracle(g, x, y) \
        == _exhaustive_value(g, x, y)
    assert verify_optimality_certificate(g, greedy)
    assert verify_optimality_certificate(g, forced)


@given(connected_graphs(min_n=2, max_n=8))
@example(build_graph(*PLAN_FALLBACKS[0][:2]))
@settings(max_examples=80, deadline=None)
def test_plan_routes_match_the_exhaustive_reference_on_random_graphs(g):
    for (x, y) in g.edges:
        _check_every_route(g, x, y)


# --- the plan route on far pairs ---

def test_plan_route_answers_most_far_pairs_of_the_standard_corpus(monkeypatch):
    calls = _count_calls(monkeypatch, "_optimal_plan")
    pairs = 0
    for member in standard_corpus():
        g = member.graph
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if g.adjacent(x, y):
                    continue
                cv = solve_lipschitz_lp(g, build_lipschitz_lp(g, x, y))
                assert cv.value == brute_force_curvature_oracle(g, x, y)
                assert verify_optimality_certificate(g, cv)
                pairs += 1
    assert pairs == 3148
    assert pairs - calls["_optimal_plan"] == 2812


# its pair (1, 4), at distance 2, has a greedy plan that is not optimal
FAR_FALLBACK_EDGES = [(0, 1), (0, 5), (0, 6), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5),
                      (4, 5), (4, 6)]


def test_far_plan_route_falls_back_to_the_optimal_plan(monkeypatch):
    g = build_graph(7, FAR_FALLBACK_EDGES)
    assert g.distance(1, 4) == 2
    assert ollivier._plan_point(g, build_lipschitz_lp(g, 1, 4)) is None
    calls = _count_calls(monkeypatch, "_optimal_plan")
    cv = long_range_curvature(g, 1, 4)
    assert calls == {"_optimal_plan": 1}
    assert cv.value == 2 == brute_force_curvature_oracle(g, 1, 4)
    assert verify_optimality_certificate(g, cv)


@given(connected_graphs(min_n=3, max_n=8))
@example(build_graph(7, FAR_FALLBACK_EDGES))
@settings(max_examples=80, deadline=None)
def test_far_plan_routes_match_the_exhaustive_reference_on_random_graphs(g):
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if not g.adjacent(x, y):
                _check_every_route(g, x, y)


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
    with pytest.raises(InternalCheckError, match="not an involutive automorphism"):
        min_edge_curvature(g)
    assert image not in g.cache
