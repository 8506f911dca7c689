from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from gcurv import bakry_emery
from gcurv.bakry_emery import (
    _pencil_psd_nullity,
    LocalForm,
    bakry_emery_curvature,
    be_effective_bound_report,
    be_rigidity_check,
    curvature_from_forms,
    gamma2_form,
    gamma2_matches_symbolic,
    gamma_form,
    symbolic_gamma2,
)
from gcurv.errors import InternalCheckError, NonpositiveCurvatureError
from gcurv.families import (
    cocktail_party,
    complete_bipartite,
    complete_graph,
    cycle,
    hypercube,
    johnson,
    parse_family,
    path_graph,
    schlafli,
)
from gcurv.reflective import ReflectiveVerdict
from gcurv.verify import STANDARD_CORPUS


def test_single_edge_curvature():
    assert abs(bakry_emery_curvature(complete_graph(2), 0) - 2) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hypercube_curvature_two(n):
    g = hypercube(n)
    for x in range(g.n):
        assert abs(bakry_emery_curvature(g, x) - 2) < 1e-6
        # exactly: the pencil Gamma_2 - 2 Gamma is psd and singular
        psd, nullity = _pencil_psd_nullity(g, x, Fraction(2))
        assert psd and nullity > 0


def test_triangle_curvature():
    # complete graphs have curvature (n + 2) / 2
    assert abs(bakry_emery_curvature(complete_graph(3), 0) - 2.5) < 1e-8


def test_cycle_six_flat():
    for x in range(6):
        assert abs(bakry_emery_curvature(cycle(6), x)) < 1e-8


def test_path_interior_versus_ends():
    g = path_graph(4)
    assert abs(bakry_emery_curvature(g, 0) - 1.5) < 1e-8
    assert abs(bakry_emery_curvature(g, 1) - 0.219223594) < 1e-6


def test_bipartite_curvature():
    assert abs(bakry_emery_curvature(complete_bipartite(3, 3), 0) - 2) < 1e-8


def test_gamma_form_psd_and_symmetric(octahedron):
    form = gamma_form(octahedron, 0)
    k = len(form.support)
    for i in range(k):
        for j in range(k):
            assert form.numerators[i][j] == form.numerators[j][i]
    mat = np.array(form.numerators, dtype=float) / form.denominator
    assert np.linalg.eigvalsh(mat)[0] > -1e-10


def test_gamma_form_value_single_edge():
    form = gamma_form(complete_graph(2), 0)
    # Gamma f(x) = (1/2) f(y)^2 in the f(x)=0 gauge
    assert form.value({1: Fraction(2)}) == Fraction(2)


def test_form_rejects_asymmetric_matrix():
    from gcurv.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        LocalForm(0, (1, 2), ((0, 1), (2, 0)), 4)


@pytest.mark.parametrize("denominator", [0, -2, Fraction(1, 2)])
def test_form_rejects_bad_denominator(denominator):
    from gcurv.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        LocalForm(0, (1,), ((1,),), denominator)


@pytest.mark.parametrize("x", [-1, 8])
def test_vertex_out_of_range_rejected(x):
    from gcurv.errors import InvalidParameterError

    g = hypercube(3)
    for call in (bakry_emery_curvature, gamma_form, gamma2_form):
        with pytest.raises(InvalidParameterError):
            call(g, x)


def test_cached_vertex_curvature_still_refuses_a_float_vertex():
    from gcurv.errors import InvalidParameterError

    g = hypercube(3)
    bakry_emery_curvature(g, 1)
    with pytest.raises(InvalidParameterError, match="not an integer"):
        bakry_emery_curvature(g, 1.0)


def test_gamma2_matches_symbolic_small():
    for g in [complete_graph(2), path_graph(3), cycle(4), cocktail_party(3)]:
        for x in range(g.n):
            assert gamma2_matches_symbolic(g, x)


def test_scale_invariance(octahedron):
    base = bakry_emery_curvature(octahedron, 0)
    gamma = gamma_form(octahedron, 0)
    gamma2 = gamma2_form(octahedron, 0)
    scale = lambda form: LocalForm(
        form.base, form.support,
        tuple(tuple(4 * v for v in row) for row in form.numerators),
        form.denominator,
    )
    scaled = curvature_from_forms(octahedron, 0, scale(gamma), scale(gamma2))
    assert abs(base - scaled) < 1e-9


@pytest.mark.parametrize("diagonal", [(1, 1, 1, 2), (0, 0, 0, 0), (-1, -1, -1, -1)])
def test_gradient_form_must_be_a_positive_multiple_of_the_identity(octahedron, diagonal):
    from gcurv.errors import InvalidParameterError

    gamma = gamma_form(octahedron, 0)
    bent = LocalForm(gamma.base, gamma.support,
                     tuple(tuple(d * (i == j) for j in range(4)) for i, d in enumerate(diagonal)),
                     gamma.denominator)
    with pytest.raises(InvalidParameterError, match="positive multiple of the identity"):
        curvature_from_forms(octahedron, 0, bent, gamma2_form(octahedron, 0))


def test_effective_bound_hypercube():
    rep = be_effective_bound_report(hypercube(4))
    assert rep.k_snapped == 2
    assert rep.diam_eff == Fraction(2)
    assert rep.bound_holds and rep.equality


def test_effective_bound_octahedron(octahedron):
    rep = be_effective_bound_report(octahedron)
    assert rep.bound_holds
    assert not rep.equality
    assert rep.k_snapped is None


def test_effective_bound_rejects_flat_graph():
    # K_min of C6 is exactly 0, which the positive definiteness test sees
    with pytest.raises(NonpositiveCurvatureError):
        be_effective_bound_report(cycle(6))


def test_rigidity_on_mixed_corpus(octahedron, j52):
    corpus = [
        ("Q2", hypercube(2)),
        ("Q3", hypercube(3)),
        ("CP(3)", octahedron),
        ("J(5,2)", j52),
        ("K3", complete_graph(3)),
    ]
    report = be_rigidity_check(corpus)
    assert report.ok
    by_name = {e.name: e for e in report.entries}
    assert by_name["Q2"].equality and by_name["Q2"].is_hypercube
    assert by_name["Q3"].equality and by_name["Q3"].is_hypercube
    assert not by_name["CP(3)"].equality
    assert not by_name["K3"].equality


def test_rigidity_empty_corpus():
    assert be_rigidity_check([]).ok


@given(connected_graphs(min_n=2, max_n=6), st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_curvature_is_a_lower_bound_for_sampled_quotients(g, salt):
    x = salt % g.n
    k = bakry_emery_curvature(g, x)
    gamma = gamma_form(g, x)
    gamma2 = gamma2_form(g, x)
    # any test function gives an upper bound on the infimum
    f = {v: Fraction((v * 7 + salt * 3) % 5 - 2) for v in gamma2.support}
    denom = gamma.value(f)
    if denom <= 0:
        return
    quotient = float(gamma2.value(f)) / float(denom)
    assert k <= quotient + 1e-7


def _vanishes_on_constants(quad):
    """Whether every row of the monomial dict's symmetric matrix sums to 0.

    That is Gamma_2 (f + c) = Gamma_2 f, so it also checks the monomials at
    the base vertex, which the gauge hides from gamma2_matches_symbolic.
    """
    rows = {}
    for (u, v), c in quad.items():
        rows[u] = rows.get(u, 0) + c
        rows[v] = rows.get(v, 0) + c
    return not any(rows.values())


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=25, deadline=None)
def test_gamma2_symbolic_agreement_random(g):
    # every vertex of an irregular graph: degrees differ across the ball
    for x in range(g.n):
        assert gamma2_matches_symbolic(g, x)
        assert _vanishes_on_constants(symbolic_gamma2(g, x))


@given(connected_graphs(min_n=2, max_n=8), st.data())
@settings(max_examples=40, deadline=None)
def test_gamma_form_value_is_half_squared_gradient(g, data):
    x = data.draw(st.integers(0, g.n - 1))
    f = data.draw(st.lists(st.integers(-9, 9), min_size=g.n, max_size=g.n))
    # the form gauges f(x) out, so it is evaluated on f - f(x)
    shifted = {v: f[v] - f[x] for v in range(g.n)}
    expected = Fraction(sum((f[y] - f[x]) ** 2 for y in g.neighbors[x]), 2)
    assert gamma_form(g, x).value(shifted) == expected


def test_gamma2_form_on_four_cycle_by_hand():
    # C4 at 0 with f = (0, a, b, c): expanding Gamma_2 by hand gives
    # 4 * Gamma_2 = 6a^2 + 2b^2 + 6c^2 - 4ab - 4bc + 4ac
    form = gamma2_form(cycle(4), 0)
    assert form.support == (1, 2, 3) and form.denominator == 4
    assert form.numerators == ((6, -2, 2), (-2, 2, -2), (2, -2, 6))
    # the recursion gives the same expansion as integer monomials
    quad = symbolic_gamma2(cycle(4), 0)
    assert {k: c for k, c in quad.items() if 0 not in k} == {
        (1, 1): 6, (2, 2): 2, (3, 3): 6, (1, 2): -4, (2, 3): -4, (1, 3): 4,
    }


@pytest.mark.parametrize("expr", ["gosset", "HQ 6", "J 7 3"])
def test_symbolic_route_agrees_at_every_vertex_of_large_named_graphs(expr):
    g = parse_family(expr).build()
    for x in range(g.n):
        quad = symbolic_gamma2(g, x)
        assert all(type(c) is int for c in quad.values())
        assert _vanishes_on_constants(quad)
        assert gamma2_matches_symbolic(g, x)


def _perturbed(form, i, j):
    """The form with entries (i, j) and (j, i) raised by one numerator unit."""
    rows = [list(row) for row in form.numerators]
    rows[i][j] += 1
    if i != j:
        rows[j][i] += 1
    return LocalForm(form.base, form.support, tuple(map(tuple, rows)), form.denominator)


@pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (3, 4), (4, 4)])
def test_symbolic_route_flags_a_perturbed_form(monkeypatch, octahedron, i, j):
    # CP(3) at 0: four neighbors and the antipode, so both blocks are hit
    real = bakry_emery.gamma2_form
    monkeypatch.setattr(bakry_emery, "gamma2_form", lambda g, x: _perturbed(real(g, x), i, j))
    assert gamma2_matches_symbolic(octahedron, 0) is False


@pytest.mark.parametrize("expr", ["CP 3", "C 5"])
def test_symbolic_route_flags_every_single_entry_perturbation(monkeypatch, expr):
    # CP 3 at 0: four neighbors and the antipode; C 5 at 0: two neighbors
    # and two vertices at distance 2, adjacent to each other
    g = parse_family(expr).build()
    real = bakry_emery.gamma2_form
    k = len(real(g, 0).support)
    for i in range(k):
        for j in range(i, k):
            monkeypatch.setattr(bakry_emery, "gamma2_form",
                                lambda g, x: _perturbed(real(g, x), i, j))
            assert gamma2_matches_symbolic(g, 0) is False, (i, j)
    monkeypatch.undo()
    assert gamma2_matches_symbolic(g, 0)


def test_symbolic_monomial_outside_the_support_raises(monkeypatch, octahedron):
    real = bakry_emery.gamma2_form

    def shrunk(g, x):
        form = real(g, x)
        return LocalForm(form.base, form.support[:-1],
                         tuple(row[:-1] for row in form.numerators[:-1]), form.denominator)

    monkeypatch.setattr(bakry_emery, "gamma2_form", shrunk)
    with pytest.raises(InternalCheckError, match="outside support"):
        gamma2_matches_symbolic(octahedron, 0)


def test_report_on_a_reflective_graph_reads_vertex_zero_alone(monkeypatch):
    # a reflective graph is vertex-transitive; Schlaefli has 27 vertices
    g = schlafli()
    report = be_effective_bound_report(g)
    assert [k for k in g.cache if isinstance(k, tuple) and k[0] == "be"] == [("be", 0)]
    monkeypatch.setattr(bakry_emery, "is_reflective", lambda g: ReflectiveVerdict(False, None))
    every = schlafli()
    scan = be_effective_bound_report(every)
    # the exact fields agree; the float K of each vertex rounds differently
    assert report._replace(k_min=0.0, bound=0.0) == scan._replace(k_min=0.0, bound=0.0)
    assert report.k_min == pytest.approx(scan.k_min, abs=1e-12)
    assert sum(isinstance(k, tuple) and k[0] == "be" for k in every.cache) == 27


def test_bound_report_is_cached_but_a_nonpositive_graph_is_not(monkeypatch):
    g = hypercube(3)
    first = be_effective_bound_report(g)

    def no_pencil(*args):
        raise AssertionError("pencil eliminated again")

    monkeypatch.setattr(bakry_emery, "_pencil_psd_nullity", no_pencil)
    assert be_effective_bound_report(g) is first
    assert be_rigidity_check([("Q3", g)]).ok
    monkeypatch.undo()
    flat = cycle(6)
    for _ in range(2):
        with pytest.raises(NonpositiveCurvatureError):
            be_effective_bound_report(flat)
    assert "be_bound" not in flat.cache


def _dict_recursion(g, x):
    """The recursion of symbolic_gamma2 on monomial dicts, the reference for its matrix.

    Linear forms are {vertex: coefficient} dicts and each product of two
    forms is expanded into {(u, v): coefficient} with u <= v, term by term.
    """
    nbrs = g.neighbors

    def add_product(quad, lin1, lin2, scale):
        for u, a in lin1.items():
            for v, b in lin2.items():
                key = (u, v) if u <= v else (v, u)
                quad[key] = quad.get(key, 0) + scale * a * b

    def laplacian(form_at, v):
        out = {}
        for w in nbrs[v]:
            for u, c in form_at(w).items():
                out[u] = out.get(u, 0) + c
        for u, c in form_at(v).items():
            out[u] = out.get(u, 0) - len(nbrs[v]) * c
        return out

    def unit(v):
        return {v: 1}

    lap = {v: laplacian(unit, v) for v in (x, *nbrs[x])}
    lap2 = laplacian(lap.__getitem__, x)

    def add_h1(quad, a, b, da, db, v, scale):
        for w in nbrs[v]:
            add_product(quad, a(w), b(w), scale)
        add_product(quad, a(v), b(v), -len(nbrs[v]) * scale)
        add_product(quad, a(v), db(v), -scale)
        add_product(quad, b(v), da(v), -scale)

    quad = {}
    for w in nbrs[x]:
        add_h1(quad, unit, unit, lap.__getitem__, lap.__getitem__, w, 1)
    add_h1(quad, unit, unit, lap.__getitem__, lap.__getitem__, x, -len(nbrs[x]))
    add_h1(quad, unit, lap.__getitem__, lap.__getitem__, lambda v: lap2, x, -2)
    return {k: c for k, c in quad.items() if c}


@given(connected_graphs(min_n=1, max_n=10))
@settings(max_examples=60, deadline=None)
def test_recursion_matrix_matches_the_dict_recursion_on_random_graphs(g):
    for x in range(g.n):
        assert symbolic_gamma2(g, x) == _dict_recursion(g, x)


@pytest.mark.parametrize("expr", STANDARD_CORPUS)
def test_recursion_matrix_matches_the_dict_recursion_on_the_standard_corpus(expr):
    g = parse_family(expr).build()
    for x in range(g.n):
        quad = symbolic_gamma2(g, x)
        assert all(type(c) is int for c in quad.values())
        assert quad == _dict_recursion(g, x)
