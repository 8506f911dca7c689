"""Eigenvalue computations, distance regularity and exact spectral verdicts.

Spectra come from LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``)
on the dense matrix and are reported as floats.  Yes/no questions about
them never compare floats: an eigenvalue bound such as lambda_1 >= kappa is
restated as positive semidefiniteness of a symmetric integer matrix and
decided by fraction-free elimination (``_psd_nullity``), which reads and
eliminates its upper triangle only.

The Lichnerowicz verdict has two routes to that matrix.  A distance-regular
graph of diameter d uses the d x d congruence of its intersection matrix
(``_quotient_gap_test``): its distinct eigenvalues are those of the
(d+1) x (d+1) intersection matrix (Brouwer-Cohen-Neumaier, *Distance-Regular
Graphs*, 1989, 4.1).  Every other graph uses the (n-1) x (n-1) gap matrix of
its Laplacian (``_gap_test``).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InternalCheckError, InvalidParameterError, NoConvergenceError
from .graphs import Graph, memo
from .reflective import is_reflective


def _jacobi_eigenvalues(mat):
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK.

    The name outlives the Jacobi sweep it once ran and must stay:
    ``perfbench/tracing.py`` wraps this module's binding by name to count
    spectrum cache misses as ``spectral.eigen_calls``.
    """
    try:
        return np.linalg.eigvalsh(np.asarray(mat, dtype=float)).tolist()
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one graph matrix."""

    values: tuple


def laplacian_matrix(g: Graph):
    a = np.zeros((g.n, g.n))
    for (u, v) in g.edges:
        a[u, v] = -1.0
        a[v, u] = -1.0
    for v in range(g.n):
        a[v, v] = g.degree(v)
    return a


def adjacency_matrix(g: Graph):
    a = np.zeros((g.n, g.n))
    for (u, v) in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


@memo("lap_spec")
def laplacian_spectrum(g: Graph) -> Spectrum:
    """Laplacian eigenvalues sorted ascending."""
    return Spectrum(tuple(_jacobi_eigenvalues(laplacian_matrix(g))))


@memo("adj_spec")
def adjacency_spectrum(g: Graph) -> Spectrum:
    """Adjacency eigenvalues sorted descending."""
    return Spectrum(tuple(reversed(_jacobi_eigenvalues(adjacency_matrix(g)))))


def smallest_positive_laplacian_eigenvalue(g: Graph) -> float:
    """Spectral gap lambda_1: every Graph is connected, so it is the second value."""
    if g.n < 2:
        raise InvalidParameterError("a single vertex has no spectral gap")
    return laplacian_spectrum(g).values[1]


def _psd_nullity(rows):
    """(psd, nullity) of a symmetric integer matrix; nullity None unless psd.

    Fraction-free (Bareiss) elimination on diagonal pivots, so every entry
    stays an integer minor.  A negative pivot, or a zero pivot whose row is
    not zero, means the matrix is indefinite; a zero row adds to the nullity.
    Only the upper triangle is read and eliminated: a step keeps the
    remaining block symmetric, so row i carries its entries from column i on
    and the pivot row stands in for the pivot column.
    """
    rows = [r[i:] for i, r in enumerate(rows)]
    nullity, prev = 0, 1
    while rows:
        d, tail = rows[0][0], rows[0][1:]
        if d < 0 or (d == 0 and any(tail)):
            return False, None
        if d == 0:
            nullity += 1
            rows = rows[1:]
        else:
            rows = [[(d * a - c * b) // prev for a, b in zip(r, tail[i:])]
                    for i, (r, c) in enumerate(zip(rows[1:], tail))]
            prev = d
    return True, nullity


# --- distance regularity ---

@dataclass(frozen=True)
class IntersectionArray:
    """Counts (b_0, .., b_{L-1}; c_1, .., c_L) of a distance regular graph.

    b_i counts neighbors one sphere further out, c_i one sphere closer,
    uniformly over all vertex pairs at distance i.
    """

    b: tuple
    c: tuple

    def __post_init__(self):
        if len(self.b) != len(self.c) or not self.b:
            raise InvalidParameterError("intersection array needs matching b and c lists")
        if self.c[0] != 1:
            raise InvalidParameterError("c_1 must be 1")
        if any(v <= 0 for v in self.b) or any(v <= 0 for v in self.c):
            raise InvalidParameterError("intersection array entries must be positive")
        b0 = self.b[0]
        for i in range(1, len(self.b)):
            if self.b[i] + self.c[i - 1] > b0:
                raise InvalidParameterError("a_i < 0 is impossible in an intersection array")
        if self.c[-1] > b0:
            raise InvalidParameterError("c_L exceeds the degree")

    @property
    def diameter(self) -> int:
        return len(self.b)


class DistanceRegularity(NamedTuple):
    array: IntersectionArray | None
    witness: tuple | None  # (x, y) for which counts deviate


@memo("dist_reg")
def is_distance_regular(g: Graph) -> DistanceRegularity:
    """Check constant sphere-to-sphere neighbor counts, rows in vertex order.

    Row x holds the counts b and c at every y, read against x's spheres;
    the witness is the first pair (x, y) whose counts differ from those first
    seen at y's distance.  A reflective graph is vertex-transitive (reflective
    module docstring), so every row repeats vertex 0's and that row alone is
    read: the verdict, the array and the witness are those of all rows.
    """
    dist = g.dist_rows()
    if not g.is_regular():
        degs = [g.degree(v) for v in range(g.n)]
        return DistanceRegularity(None, (degs.index(max(degs)), degs.index(min(degs))))
    expected = {}
    witness = None
    diam = max(max(row) for row in dist)
    for x in [0] if is_reflective(g).reflective else range(g.n):
        row = dist[x]
        for y in range(g.n):
            i = row[y]
            if i == 0:
                continue
            b = sum(1 for w in g.neighbors[y] if row[w] == i + 1)
            c = sum(1 for w in g.neighbors[y] if row[w] == i - 1)
            if i not in expected:
                expected[i] = (b, c)
            elif expected[i] != (b, c):
                witness = (x, y)
                break
        if witness:
            break
    if witness is not None or len(expected) != diam:
        return DistanceRegularity(None, witness)
    barr = [g.degree(0)] + [expected[i][0] for i in range(1, diam)]
    carr = [expected[i][1] for i in range(1, diam + 1)]
    return DistanceRegularity(IntersectionArray(tuple(barr), tuple(carr)), None)


# --- sharpness conditions ---

def _gap_test(g: Graph, r: Fraction):
    """_psd_nullity of M = P^T (q L - p I) P, for r = p/q and P = [e_i - e_last].

    The columns of P are a basis of the complement of 1, which L keeps, and
    q L - p I has the eigenvalues q (lambda_i - r) there.  By Sylvester's law
    of inertia M has the same signs: lambda_1 >= r exactly when M is
    positive semidefinite, and lambda_1 == r exactly when its nullity is
    also at least 1.  Its entries stay small, which keeps the elimination
    cheap.
    """
    n, p, q = g.n, r.numerator, r.denominator
    a = [[0] * n for _ in range(n)]  # q L - p I
    for v, row in enumerate(a):
        for w in g.neighbors[v]:
            row[w] = -q
        row[v] = q * g.degree(v) - p
    c = a[-1]
    rows = [[ai[j] - c[i] - c[j] + c[-1] for j in range(n - 1)]
            for i, ai in enumerate(a[:-1])]
    return _psd_nullity(rows)


def _quotient_gap_test(g: Graph, ia: IntersectionArray, r: Fraction):
    """_gap_test's verdict for a distance-regular g, from a d x d matrix.

    With B the intersection matrix (rows c_i, a_i, b_i) and K = diag(k_i)
    the sphere sizes of vertex 0, the spheres' indicator vectors span a
    subspace that L keeps, on which q L - p I has the Gram matrix
    S = K (q (k I - B) - p I), symmetric because k_i b_i = k_{i+1} c_{i+1}.
    The columns k_d e_i - k_i e_d (i < d) span the part orthogonal to 1,
    and L has there each nonzero eigenvalue once (BCN 4.1).  By Sylvester's
    law of inertia P^T S P is positive semidefinite exactly when
    lambda_1 >= r, and singular exactly when r is an eigenvalue, so its
    nullity is at most 1 where _gap_test's is the multiplicity.

    The sizes are counted on vertex 0's distance row, not derived from the
    array, so an array that disagrees with the graph is an InternalCheckError.
    """
    p, q, d = r.numerator, r.denominator, ia.diameter
    row = g.dist_rows()[0]
    k = [row.count(i) for i in range(d + 1)]
    b, c = ia.b + (0,), (0,) + ia.c
    if sum(k) != g.n or any(k[i] * b[i] != k[i + 1] * c[i + 1] for i in range(d)):
        raise InternalCheckError(
            f"intersection array {ia.b}; {ia.c} disagrees with the sphere sizes {k}")
    s = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        s[i][i] = k[i] * (q * (b[i] + c[i]) - p)
        if i < d:
            s[i][i + 1] = s[i + 1][i] = -q * k[i] * b[i]
    kd, sd = k[d], s[d]
    rows = [[kd * kd * si[j] - kd * k[j] * si[d] - kd * k[i] * sd[j] + k[i] * k[j] * sd[d]
             for j in range(d)] for i, si in enumerate(s[:d])]
    return _psd_nullity(rows)


class LichnerowiczResult(NamedTuple):
    sharp: bool  # lambda_1 == kappa_min > 0
    lam: float
    kappa_min: Fraction
    holds: bool  # lambda_1 >= kappa_min


@memo("lichnerowicz")
def is_lichnerowicz_sharp(g: Graph) -> LichnerowiczResult:
    """The spectral gap against the minimum edge curvature, decided exactly.

    A curvature minimum of at most 0 lies below the positive gap of a
    connected graph and needs no elimination.  Otherwise a distance-regular
    graph is decided on its intersection array (_quotient_gap_test, d x d
    for diameter d, BCN 4.1) and every other graph on its Laplacian
    (_gap_test, (n-1) x (n-1)).  Each restates lambda_1 >= kappa as its
    matrix being positive semidefinite and lambda_1 == kappa as its also
    being singular; only nullity >= 1 is read, so the routes agree although
    their nullities differ.
    """
    from .ollivier import min_edge_curvature

    kappa = min_edge_curvature(g).value
    if kappa <= 0:
        holds, nullity = True, 0
    else:
        ia = is_distance_regular(g).array
        holds, nullity = (_gap_test(g, kappa) if ia is None
                          else _quotient_gap_test(g, ia, kappa))
    return LichnerowiczResult(
        holds and nullity >= 1, smallest_positive_laplacian_eigenvalue(g), kappa, holds)
