from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from gcurv.errors import NotDistanceRegularError
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
from gcurv.ollivier import min_edge_curvature
from gcurv.spectral import (
    _psd_nullity,
    adjacency_matrix,
    adjacency_spectrum,
    is_distance_regular,
    is_lichnerowicz_sharp,
    laplacian_matrix,
    laplacian_spectrum,
    smallest_positive_laplacian_eigenvalue,
    theta_condition,
)
from gcurv.verify import CorpusMember, _check_lichnerowicz_sharpness


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


def test_lichnerowicz_not_sharp_on_even_cycle():
    res = is_lichnerowicz_sharp(cycle(6))
    assert not res.sharp
    assert res.kappa_min == 0


def test_theta_condition_johnson(j52):
    ia = is_distance_regular(j52).array
    th = theta_condition(j52, ia)
    assert abs(th.theta - 1) < 1e-6
    assert th.matches_b1_minus_1


def test_theta_condition_requires_array():
    with pytest.raises(NotDistanceRegularError):
        theta_condition(path_graph(4), None)


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
