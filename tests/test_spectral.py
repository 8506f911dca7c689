from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from gcurv import bakry_emery, spectral
from gcurv.families import (
    cocktail_party,
    complete_graph,
    cycle,
    gosset,
    halved_cube,
    hypercube,
    johnson,
    parse_family,
    path_graph,
    schlafli,
)
from gcurv.errors import InternalCheckError
from gcurv.graphs import build_graph
from gcurv.ollivier import min_edge_curvature
from gcurv.spectral import (
    DistanceRegularity,
    IntersectionArray,
    _gap_test,
    _psd_nullity,
    _quotient_gap_test,
    adjacency_matrix,
    adjacency_spectrum,
    is_distance_regular,
    is_lichnerowicz_sharp,
    laplacian_matrix,
    laplacian_spectrum,
    smallest_positive_laplacian_eigenvalue,
)
from gcurv.verify import STANDARD_CORPUS, CorpusMember, _check_lichnerowicz_sharpness


def test_laplacian_spectrum_triangle():
    vals = laplacian_spectrum(complete_graph(3)).values
    assert len(vals) == 3
    assert abs(vals[0]) < 1e-9
    assert abs(vals[1] - 3) < 1e-9 and abs(vals[2] - 3) < 1e-9


def test_laplacian_spectrum_square():
    vals = laplacian_spectrum(hypercube(2)).values
    expected = (0, 2, 2, 4)
    assert all(abs(a - b) < 1e-8 for a, b in zip(vals, expected))


def test_adjacency_spectrum_cycle():
    # adjacency eigenvalues come back sorted descending
    vals = adjacency_spectrum(cycle(4)).values
    expected = (2, 0, 0, -2)
    assert all(abs(a - b) < 1e-8 for a, b in zip(vals, expected))


def test_spectral_gap_johnson(j52):
    lam = smallest_positive_laplacian_eigenvalue(j52)
    assert abs(lam - 5) < 1e-8


@pytest.mark.parametrize("g,b,c", [
    (cycle(5), (2, 1), (1, 1)),
    (johnson(5, 2), (6, 2), (1, 4)),
    (halved_cube(4), (6, 1), (1, 6)),
    (hypercube(3), (3, 2, 1), (1, 2, 3)),
])
def test_intersection_arrays(g, b, c):
    ia = is_distance_regular(g).array
    assert ia is not None
    assert (ia.b, ia.c) == (b, c)


def test_not_distance_regular_has_witness():
    verdict = is_distance_regular(path_graph(4))
    assert verdict.array is None
    assert verdict.witness is not None


def test_intersection_array_diameter(j52):
    assert is_distance_regular(j52).array.diameter == 2


def test_lichnerowicz_sharp_on_johnson(j52):
    res = is_lichnerowicz_sharp(j52)
    assert res.sharp
    assert res.kappa_min == 5 and res.holds


def test_lichnerowicz_sharp_on_gosset(gosset_graph):
    res = is_lichnerowicz_sharp(gosset_graph)
    assert res.sharp and res.holds
    assert res.kappa_min == 18


def test_lichnerowicz_violation_is_reported_with_its_witness(monkeypatch):
    # kappa = 3 lies above the gap 2 of Q3, so the gap matrix is indefinite
    import gcurv.ollivier

    real = gcurv.ollivier.min_edge_curvature
    monkeypatch.setattr(gcurv.ollivier, "min_edge_curvature",
                        lambda g: real(g)._replace(value=Fraction(3)))
    res = is_lichnerowicz_sharp(hypercube(3))
    assert (res.sharp, res.holds) == (False, False)
    witness = _check_lichnerowicz_sharpness((CorpusMember(parse_family("Q 3"), hypercube(3)),))
    assert witness.startswith("Q 3: Lichnerowicz violation, lam ")
    assert witness.endswith("< kappa 3")


def test_criterion_04_reports_an_array_verdict_the_gap_matrix_refutes(monkeypatch):
    # the array route calls J 5 2 not sharp; the full gap matrix says sharp
    import gcurv.spectral

    monkeypatch.setattr(gcurv.spectral, "_quotient_gap_test", lambda g, ia, r: (True, 0))
    witness = _check_lichnerowicz_sharpness((CorpusMember(parse_family("J 5 2"), johnson(5, 2)),))
    assert witness == ("J 5 2: intersection array gives holds True, sharp False; "
                       "the gap matrix gives True, True")


@pytest.mark.parametrize("b,c", [((6, 3), (1, 4)), ((6,), (1,))],
                         ids=["sizes_disagree", "diameter_too_small"])
def test_inconsistent_intersection_array_is_an_internal_error(b, c):
    g = johnson(5, 2)
    g.cache["dist_reg"] = DistanceRegularity(IntersectionArray(b, c), None)
    with pytest.raises(InternalCheckError, match="disagrees with the sphere sizes"):
        is_lichnerowicz_sharp(g)


def test_distance_regular_graph_skips_the_gap_matrix(monkeypatch):
    import gcurv.spectral

    def refuse(g, r):
        raise AssertionError("the gap matrix ran on a distance-regular graph")

    monkeypatch.setattr(gcurv.spectral, "_gap_test", refuse)
    res = is_lichnerowicz_sharp(parse_family("HQ 8").build())
    assert (res.sharp, res.holds, res.kappa_min) == (True, True, 14)


def test_graph_off_the_array_route_runs_the_gap_matrix_once(monkeypatch):
    import gcurv.spectral

    calls = []
    monkeypatch.setattr(gcurv.spectral, "_gap_test",
                        lambda g, r: calls.append(r) or _gap_test(g, r))
    g = parse_family("( Q 2 x CP 3 )").build()
    assert is_distance_regular(g).array is None
    assert is_lichnerowicz_sharp(g).sharp
    assert calls == [2]


def test_lichnerowicz_not_sharp_on_even_cycle():
    res = is_lichnerowicz_sharp(cycle(6))
    assert not res.sharp
    assert res.kappa_min == 0


def test_matrices_are_consistent(q3):
    lap = np.asarray(laplacian_matrix(q3), dtype=float)
    adj = np.asarray(adjacency_matrix(q3), dtype=float)
    deg = np.diag([q3.degree(v) for v in range(q3.n)])
    assert np.array_equal(lap, deg - adj)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_eigenvalue_sums_match_invariants(g):
    lap = np.asarray(laplacian_matrix(g), dtype=float)
    vals = laplacian_spectrum(g).values
    assert abs(sum(vals) - np.trace(lap)) < 1e-8
    assert abs(sum(v * v for v in vals) - (lap ** 2).sum()) < 1e-6


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_laplacian_psd_and_connected_kernel(g):
    vals = laplacian_spectrum(g).values
    assert vals[0] > -1e-8
    # one zero eigenvalue exactly, since every generated graph is connected
    assert sum(1 for v in vals if abs(v) < 1e-6) == 1


def _intersection_matrix(ia):
    """Tridiagonal (d+1) x (d+1) matrix with rows (c_i, a_i, b_i)."""
    k, d = ia.b[0], ia.diameter
    b, c = ia.b + (0,), (0,) + ia.c
    mat = np.zeros((d + 1, d + 1))
    for i in range(d + 1):
        mat[i, i] = k - b[i] - c[i]
        if i > 0:
            mat[i, i - 1] = c[i]
        if i < d:
            mat[i, i + 1] = b[i]
    return mat


def _multiplicity(ia, theta, n):
    """Biggs' formula n / sum_i k_i u_i^2 over the standard sequence u of theta."""
    k = ia.b[0]
    b, c = ia.b + (0,), (0,) + ia.c
    u, sizes = [1.0, theta / k], [1, k]
    for i in range(1, ia.diameter):
        u.append(((theta - (k - b[i] - c[i])) * u[i] - c[i] * u[i - 1]) / b[i])
        sizes.append(sizes[i] * b[i] // c[i + 1])
    return n / sum(s * v * v for s, v in zip(sizes, u))


@pytest.mark.parametrize("g", [
    cocktail_party(4), johnson(6, 3), halved_cube(5), hypercube(4),
    cycle(7), complete_graph(5), schlafli(), gosset(),
], ids=["CP4", "J63", "HQ5", "Q4", "C7", "K5", "Schlafli", "Gosset"])
def test_spectrum_matches_intersection_matrix(g):
    # Brouwer-Cohen-Neumaier 1989, 4.1: the distinct adjacency eigenvalues
    # of a distance-regular graph are those of its intersection matrix, with
    # multiplicities from the standard sequences; the array is counted from
    # distances, so this shares no matrix with the dense eigensolver.
    ia = is_distance_regular(g).array
    roots = np.linalg.eigvals(_intersection_matrix(ia))
    assert np.all(np.abs(roots.imag) < 1e-9)
    expected = []
    for theta in sorted(roots.real, reverse=True):
        m = _multiplicity(ia, theta, g.n)
        assert abs(m - round(m)) < 1e-6
        expected += [theta] * round(m)
    adj = adjacency_spectrum(g).values
    assert len(adj) == len(expected) == g.n
    assert all(abs(a - e) < 1e-8 for a, e in zip(adj, expected))
    lap = laplacian_spectrum(g).values
    assert all(abs(v - (ia.b[0] - e)) < 1e-8 for v, e in zip(lap, expected))


@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_lichnerowicz_inequality_random(g):
    mec = min_edge_curvature(g)
    if mec.value <= 0:
        return
    lam = smallest_positive_laplacian_eigenvalue(g)
    assert lam >= float(mec.value) - 1e-8
    res = is_lichnerowicz_sharp(g)
    assert res.holds
    assert res.sharp == (abs(lam - float(mec.value)) < 1e-6)


def _full_gap_test(g, r):
    """_psd_nullity of n q (L - r I) + p J for r = p/q, the full-size matrix.

    It has 1 in its kernel on top of the eigenvalues n q (lambda_i - r)
    that _gap_test's reduced matrix keeps.
    """
    n, p, q = g.n, r.numerator, r.denominator
    rows = [[p] * n for _ in range(n)]
    for v, row in enumerate(rows):
        for w in g.neighbors[v]:
            row[w] -= n * q
        row[v] += n * (q * g.degree(v) - p)
    return _psd_nullity(rows)


def _assert_gap_test_matches_full_matrix(g, r):
    psd, nullity = _gap_test(g, r)
    assert _full_gap_test(g, r) == (psd, None if nullity is None else nullity + 1)


@pytest.mark.parametrize("expr", STANDARD_CORPUS)
def test_gap_test_matches_the_full_matrix_on_the_standard_corpus(expr):
    g = parse_family(expr).build()
    ia = is_distance_regular(g).array
    near = Fraction(round(smallest_positive_laplacian_eigenvalue(g)))
    for r in {near, near + Fraction(1, 2), Fraction(1, 3)} - {0}:
        _assert_gap_test_matches_full_matrix(g, r)
        if ia is not None:
            # the array route decides the same psd and singularity
            psd, nullity = _gap_test(g, r)
            q_psd, q_nullity = _quotient_gap_test(g, ia, r)
            assert (q_psd, q_psd and q_nullity >= 1) == (psd, psd and nullity >= 1)


@given(connected_graphs(min_n=2, max_n=9),
       st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_gap_test_matches_the_full_matrix_on_random_graphs(g, r):
    _assert_gap_test_matches_full_matrix(g, r)
    near = Fraction(round(smallest_positive_laplacian_eigenvalue(g)))
    if near:
        _assert_gap_test_matches_full_matrix(g, near)


@st.composite
def symmetric_int_matrices(draw):
    """Small symmetric integer matrices: free entries, Gram matrices B^T B
    of rank at most k, and B^T B - cI."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["free", "gram", "shifted"]))
    if kind == "free":
        upper = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i, n)}
        return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    b = [[draw(st.integers(-2, 2)) for _ in range(n)]
         for _ in range(draw(st.integers(0, n)))]
    c = draw(st.integers(1, 3)) if kind == "shifted" else 0
    return [[sum(r[i] * r[j] for r in b) - c * (i == j) for j in range(n)]
            for i in range(n)]


def _echelon(rows):
    """Row echelon form over the rationals; returns (rank, product of pivots)."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank, det = 0, Fraction(1)
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        m[rank], m[piv] = m[piv], m[rank]
        if piv != rank:
            det = -det
        det *= m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank, det


@given(symmetric_int_matrices())
@settings(max_examples=300, deadline=None)
def test_psd_nullity_matches_principal_minors(mat):
    n = len(mat)
    psd = all(
        _echelon([[mat[i][j] for j in sub] for i in sub])[1] >= 0
        for k in range(1, n + 1) for sub in combinations(range(n), k)
    )
    got_psd, nullity = _psd_nullity(mat)
    assert got_psd == psd
    if psd:
        assert nullity == n - _echelon(mat)[0]
    else:
        assert nullity is None


# --- distance regularity: vertex 0's row on a reflective graph ---

def _every_row_distance_regular(g):
    """is_distance_regular by the scan of every row, uncached."""
    if not g.is_regular():
        degs = [g.degree(v) for v in range(g.n)]
        return DistanceRegularity(None, (degs.index(max(degs)), degs.index(min(degs))))
    dist = g.dist_rows()
    expected = {}
    for x in range(g.n):
        for y in range(g.n):
            i = dist[x][y]
            if i == 0:
                continue
            counts = (sum(1 for w in g.neighbors[y] if dist[x][w] == i + 1),
                      sum(1 for w in g.neighbors[y] if dist[x][w] == i - 1))
            if expected.setdefault(i, counts) != counts:
                return DistanceRegularity(None, (x, y))
    diam = max(max(row) for row in dist)
    if len(expected) != diam:
        return DistanceRegularity(None, None)
    b = (g.degree(0),) + tuple(expected[i][0] for i in range(1, diam))
    c = tuple(expected[i][1] for i in range(1, diam + 1))
    return DistanceRegularity(IntersectionArray(b, c), None)


@pytest.mark.parametrize("expr", STANDARD_CORPUS)
def test_distance_regularity_matches_every_row_on_the_standard_corpus(expr):
    g = parse_family(expr).build()
    assert is_distance_regular(g) == _every_row_distance_regular(g)


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=80, deadline=None)
def test_distance_regularity_matches_every_row_on_random_graphs(g):
    assert is_distance_regular(g) == _every_row_distance_regular(build_graph(g.n, g.edges))


def test_regular_graph_without_reflections_reads_every_row():
    # 4-regular on 10 vertices: vertex 0's row alone has the counts of a
    # distance-regular graph, and the pair (1, 0) breaks them
    g = build_graph(10, [(0, 3), (0, 4), (0, 6), (0, 8), (1, 2), (1, 3), (1, 7), (1, 8),
                         (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 7), (4, 9), (5, 6),
                         (5, 9), (6, 8), (6, 9), (7, 8)])
    assert is_distance_regular(g) == DistanceRegularity(None, (1, 0))
    assert _every_row_distance_regular(g) == DistanceRegularity(None, (1, 0))


def _full_psd_nullity(rows):
    """Bareiss elimination on the whole matrix, the reference for _psd_nullity."""
    nullity, prev = 0, 1
    while rows:
        d, tail = rows[0][0], rows[0][1:]
        if d < 0 or (d == 0 and any(tail)):
            return False, None
        if d == 0:
            nullity += 1
            rows = [r[1:] for r in rows[1:]]
        else:
            rows = [[(d * a - r[0] * b) // prev for a, b in zip(r[1:], tail)]
                    for r in rows[1:]]
            prev = d
    return True, nullity


@st.composite
def symmetric_matrices_with_zero_pivots(draw):
    """symmetric_int_matrices with larger entries, zero rows and columns
    inserted (zero pivots that pass), a repeated row and column (a zero
    pivot that appears mid-elimination), or a zeroed diagonal entry under a
    nonzero row (a zero pivot that fails)."""
    mat = draw(symmetric_int_matrices())
    scale = draw(st.sampled_from([1, 7, 1000]))
    mat = [[scale * v for v in row] for row in mat]
    n = len(mat)
    kind = draw(st.sampled_from(["plain", "zero", "repeat", "hole"]))
    if kind == "zero":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(mat)))
            mat = [row[:i] + [0] + row[i:] for row in mat]
            mat.insert(i, [0] * (len(mat) + 1))
    elif kind == "repeat" and n:
        i = draw(st.integers(0, n - 1))
        mat = [row + [row[i]] for row in mat]
        mat.append(mat[i][:])
    elif kind == "hole" and n:
        i = draw(st.integers(0, n - 1))
        mat[i][i] = 0
    return mat


@given(symmetric_matrices_with_zero_pivots())
@settings(max_examples=400, deadline=None)
def test_psd_nullity_matches_the_full_matrix_elimination(mat):
    assert all(row[j] == mat[j][i] for i, row in enumerate(mat) for j in range(len(mat)))
    assert _psd_nullity(mat) == _full_psd_nullity(mat)


@pytest.mark.parametrize("expr", STANDARD_CORPUS)
def test_every_psd_nullity_caller_passes_a_symmetric_matrix(monkeypatch, expr):
    seen = []

    def symmetric_only(rows):
        assert all(list(r) == list(c) for r, c in zip(rows, zip(*rows)))
        seen.append(len(rows))
        return _psd_nullity(rows)

    monkeypatch.setattr(spectral, "_psd_nullity", symmetric_only)
    monkeypatch.setattr(bakry_emery, "_psd_nullity", symmetric_only)
    g = parse_family(expr).build()
    for x in range(g.n):
        bakry_emery._pencil_psd_nullity(g, x, Fraction(1, 3))
    r = Fraction(round(smallest_positive_laplacian_eigenvalue(g)) or 1)
    _gap_test(g, r)
    ia = is_distance_regular(g).array
    if ia is not None:
        _quotient_gap_test(g, ia, r)
    assert len(seen) == g.n + 1 + (ia is not None)
