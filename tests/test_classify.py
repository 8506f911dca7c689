import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import load_workloads
from gcurv import ollivier
from gcurv.bakry_emery import bakry_emery_curvature, be_effective_bound_report
from gcurv.classify import _candidates, classify, family_name, identify_family, report_to_json
from gcurv.errors import TrivialGraphError
from gcurv.families import (
    FamilySpec,
    complete_graph,
    cycle,
    gosset,
    halved_cube,
    hypercube,
    johnson,
    parse_family,
    petersen,
)
from gcurv.graphs import build_graph, parse_edge_list
from gcurv.spectral import (
    is_distance_regular,
    is_lichnerowicz_sharp,
    smallest_positive_laplacian_eigenvalue,
)


@pytest.mark.parametrize("build", [
    gosset,
    lambda: parse_family("( Q 2 x CP 3 )").build(),
    lambda: parse_edge_list(load_workloads().random_inputs(1, 1)[0][1]),
], ids=["gosset", "Q2xCP3", "random-seed-1"])
def test_classify_and_curvature_paths_build_no_distance_shells(build):
    # the shells serve the subset predicates of the verify checks alone;
    # classify, the curvature calls and the certificate replay read distance rows
    def shells_built(g):
        return any(key == "shells" or isinstance(key, tuple) and key[0] == "shells"
                   for key in g.cache)

    g = build()
    classify(g)
    assert not shells_built(g)
    g = build()
    mec = ollivier.min_edge_curvature(g)
    far = ollivier.long_range_curvatures(g)
    x, y = mec.min_edge
    cvs = [ollivier.edge_curvature(g, x, y), *list(far.values())[:8]]
    assert all(ollivier.verify_optimality_certificate(g, cv) for cv in cvs)
    assert not shells_built(g)


def test_gosset_report(gosset_graph):
    rep = classify(gosset_graph)
    assert rep.kappa_min == 18 and rep.kappa_constant
    assert rep.diam_eff == Fraction(3, 2)
    assert rep.eff_bm_sharp and rep.reflective
    assert abs(rep.lambda_ - 18) < 1e-6
    assert rep.lichnerowicz_sharp
    assert rep.distance_regular.b == (27, 10, 1)
    assert rep.distance_regular.c == (1, 10, 27)
    assert [name for _, name in rep.prime_factors] == ["Gosset"]
    assert all(v.passed for v in rep.theorem_verdicts.values())
    assert all(v.witness is None for v in rep.theorem_verdicts.values())


def test_product_report_not_sharp():
    rep = classify(parse_family("( K 2 x J 4 2 )").build())
    assert rep.n == 12 and rep.m == 30
    assert rep.kappa_min == 2 and not rep.kappa_constant
    assert rep.diam_eff == Fraction(3, 2)
    assert not rep.eff_bm_sharp
    assert rep.reflective
    # factors pick up their canonical names, octahedron included
    assert sorted(name for _, name in rep.prime_factors) == ["CP(3)", "K2"]
    assert all(v.passed for v in rep.theorem_verdicts.values())


def test_cycle_report_skips_local_check():
    rep = classify(cycle(5))
    assert not rep.reflective and not rep.locally_connected
    assert not rep.eff_bm_sharp
    verdict = rep.theorem_verdicts["E2_locally_connected_equivalences"]
    assert verdict.passed and verdict.witness.startswith("skipped")
    assert [name for _, name in rep.prime_factors] == ["unrecognized"]


def test_trivial_graph_rejected():
    with pytest.raises(TrivialGraphError):
        classify(build_graph(1, []))


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("inf"), float("nan")])
@pytest.mark.parametrize("call", [
    lambda g, tol: classify(g, tol=tol),
    lambda g, tol: smallest_positive_laplacian_eigenvalue(g, tol=tol),
    lambda g, tol: is_lichnerowicz_sharp(g, tol=tol),
    lambda g, tol: be_effective_bound_report(g, tol=tol),
    lambda g, tol: bakry_emery_curvature(g, 0, tol=tol),
], ids=["classify", "spectral_gap", "lichnerowicz", "be_bound", "be_curvature"])
def test_library_rejects_bad_tolerance(call, tol):
    # the verdicts are exact, so no function takes a tolerance any more
    with pytest.raises(TypeError, match="tol"):
        call(hypercube(3), tol)


def test_spectral_gap_is_never_the_zero_eigenvalue():
    # a negative tolerance once returned the zero eigenvalue as the gap of Q 3
    g = hypercube(3)
    assert abs(smallest_positive_laplacian_eigenvalue(g) - 2) < 1e-9
    assert is_lichnerowicz_sharp(g).sharp
    assert abs(classify(g).lambda_ - 2) < 1e-9


def test_curvature_two_is_never_called_nonpositive():
    # an infinite tolerance once called the vertex curvature 2 of Q 3 nonpositive
    rep = be_effective_bound_report(hypercube(3))
    assert rep.equality and rep.bound_holds
    assert rep.k_snapped == 2


def cube():
    # named, so its test id differs from the C 5 case's
    return hypercube(3)


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: complete_graph(4), FamilySpec("HQ", (3,))),
        (lambda: cycle(4), FamilySpec("CP", (2,))),
        (lambda: halved_cube(4), FamilySpec("CP", (4,))),
        (lambda: complete_graph(2), FamilySpec("K", (2,))),
        (lambda: johnson(4, 2), FamilySpec("CP", (3,))),
        # a product is on no prime list
        (cube, None),
        (petersen, None),
        (lambda: cycle(5), None),
    ],
    ids=lambda v: None if callable(v) else family_name(v),
)
def test_identify_family_precedence(build, expected):
    assert identify_family(build()) == expected


def _specs_of_order(n, johnson_orders):
    """Every spec on the paper's list with n vertices, in precedence order, by scan."""
    specs = [FamilySpec("CP", (n // 2,))] if n >= 4 and n % 2 == 0 else []
    specs += [FamilySpec("J", ab) for ab in johnson_orders.get(n, [])]
    specs += [FamilySpec("HQ", (k,)) for k in range(3, n.bit_length() + 1) if 2 ** (k - 1) == n]
    specs += [FamilySpec(kind) for kind, order in (("schlafli", 27), ("gosset", 56)) if order == n]
    return specs + [FamilySpec("K", (n,))]


def test_candidate_scan_stops_each_johnson_row_past_n():
    top = 600
    johnson_orders = {}  # every canonical (a, b) with a <= top + 1, by order
    for a in range(4, top + 2):
        for b in range(2, a // 2 + 1):
            johnson_orders.setdefault(comb(a, b), []).append((a, b))
    for n in range(2, top + 1):
        yielded = list(_candidates(n))
        assert [s for s in yielded if s.size()[0] == n] == _specs_of_order(n, johnson_orders)
        assert all(comb(*s.params) <= n for s in yielded if s.kind == "J")


def test_cospectral_mate_is_not_named():
    # a Chang graph: J(8,2) Seidel-switched on the 4 vertices of a perfect
    # matching of K8.  It shares J(8,2)'s intersection array, hence its
    # spectrum, so only the isomorphism test can refuse it.
    pairs = list(combinations(range(8), 2))
    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    edges = [
        (i, j)
        for (i, s), (j, t) in combinations(enumerate(pairs), 2)
        if (len(set(s) & set(t)) == 1) != ((s in matching) != (t in matching))
    ]
    chang = build_graph(28, edges)
    assert is_distance_regular(chang).array == is_distance_regular(johnson(8, 2)).array
    assert identify_family(chang) is None


def test_json_round_trip_and_determinism(octahedron):
    first = report_to_json(classify(octahedron))
    second = report_to_json(classify(parse_family("CP 3").build()))
    assert first == second
    data = json.loads(first)
    assert data["kappa_min"] == {"num": 4, "den": 1}
    assert data["diam_eff"] == {"num": 1, "den": 1}
    assert data["eff_bm_sharp"] is True
    assert data["prime_factors"][0]["family"] == "CP(3)"
    assert set(data["theorem_verdicts"]) == {
        "E1_sharp_iff_reflective_constant",
        "E2_locally_connected_equivalences",
        "E3_reflective_iff_factors_named",
    }


def test_factor_curvatures_use_the_reflection_orbits(monkeypatch):
    calls = []
    real = ollivier.solve_lipschitz_lp
    monkeypatch.setattr(ollivier, "solve_lipschitz_lp",
                        lambda g, lp, *plan: calls.append(lp) or real(g, lp, *plan))
    rep = classify(parse_family("( K 2 x J 4 2 )").build())
    assert rep.theorem_verdicts["E1_sharp_iff_reflective_constant"].passed
    # one edge orbit in each factor, and of the product's two edge orbits
    # only the lower one, since the bound of the other exceeds its value;
    # without the factors' reflections, J(4,2) alone solves all twelve of
    # its edges
    assert len(calls) == 3
