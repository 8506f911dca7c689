"""Eigenvalue computations and distance regularity.

Spectra come from LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``)
on the dense matrix.  Comparisons against exact targets use a separate
comparison tolerance; when a float sits within 1e-6 of an integer, the
snapped comparison is reported alongside but never silently substituted.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NotDistanceRegularError,
)
from .graphs import Graph

_SNAP_WINDOW = 1e-6


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


def laplacian_spectrum(g: Graph) -> Spectrum:
    """Laplacian eigenvalues sorted ascending."""
    key = "lap_spec"
    if key not in g.cache:
        g.cache[key] = Spectrum(tuple(_jacobi_eigenvalues(laplacian_matrix(g))))
    return g.cache[key]


def adjacency_spectrum(g: Graph) -> Spectrum:
    """Adjacency eigenvalues sorted descending."""
    key = "adj_spec"
    if key not in g.cache:
        vals = _jacobi_eigenvalues(adjacency_matrix(g))
        g.cache[key] = Spectrum(tuple(reversed(vals)))
    return g.cache[key]


def smallest_positive_laplacian_eigenvalue(g: Graph, tol: float = 1e-8) -> float:
    """Spectral gap: the smallest Laplacian eigenvalue exceeding tol."""
    for v in laplacian_spectrum(g).values:
        if v > tol:
            return v
    raise InvalidParameterError("no eigenvalue above the positivity threshold")


def _snap(value: float):
    """Nearest integer when within the snap window, else None."""
    r = round(value)
    if abs(value - r) <= _SNAP_WINDOW:
        return int(r)
    return None


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


def is_distance_regular(g: Graph) -> DistanceRegularity:
    """Check constant sphere-to-sphere neighbor counts over all pairs."""
    key = "dist_reg"
    hit = g.cache.get(key)
    if hit is not None:
        return hit
    dist = g.dist_rows()
    if not g.is_regular():
        degs = [g.degree(v) for v in range(g.n)]
        u = degs.index(max(degs))
        w = degs.index(min(degs))
        res = DistanceRegularity(None, (u, w))
        g.cache[key] = res
        return res
    expected = {}
    witness = None
    diam = max(max(row) for row in dist)
    for x in range(g.n):
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
        res = DistanceRegularity(None, witness)
        g.cache[key] = res
        return res
    b0 = g.degree(0)
    barr = [b0] + [expected[i][0] for i in range(1, diam)]
    carr = [expected[i][1] for i in range(1, diam + 1)]
    res = DistanceRegularity(IntersectionArray(tuple(barr), tuple(carr)), None)
    g.cache[key] = res
    return res


# --- sharpness conditions ---

class LichnerowiczResult(NamedTuple):
    sharp: bool
    lam: float
    kappa_min: Fraction
    lam_snapped: int | None
    snap_agrees: bool | None


def is_lichnerowicz_sharp(g: Graph, tol: float = 1e-8) -> LichnerowiczResult:
    """Whether the spectral gap matches the minimum edge curvature.

    The verdict uses |lam - kappa| <= tol on floats.  When lam sits within
    the snap window of an integer the exact comparison of the snapped value
    against kappa is reported as well, without affecting the verdict.
    """
    from .ollivier import min_edge_curvature

    kappa = min_edge_curvature(g).value
    lam = smallest_positive_laplacian_eigenvalue(g, tol)
    sharp = kappa > 0 and abs(lam - float(kappa)) <= tol
    snapped = _snap(lam)
    agrees = (Fraction(snapped) == kappa) if snapped is not None else None
    return LichnerowiczResult(sharp, lam, kappa, snapped, agrees)


class ThetaResult(NamedTuple):
    theta: float
    matches_b1_minus_1: bool
    matches_b0_minus_lam: bool
    theta_snapped: int | None
    snap_agrees: bool | None


def theta_condition(g: Graph, ia: IntersectionArray, tol: float = 1e-8) -> ThetaResult:
    """Second largest adjacency eigenvalue against b_1 - 1 and b_0 - lam."""
    if ia is None:
        raise NotDistanceRegularError(None)
    spec = adjacency_spectrum(g)
    if len(spec.values) < 2:
        raise InvalidParameterError("need at least two eigenvalues")
    theta = spec.values[1]
    b1 = ia.b[1] if len(ia.b) > 1 else 0
    lam = smallest_positive_laplacian_eigenvalue(g, tol)
    m1 = abs(theta - (b1 - 1)) <= tol
    m2 = abs(theta - (ia.b[0] - lam)) <= tol
    snapped = _snap(theta)
    agrees = (snapped == b1 - 1) if snapped is not None else None
    return ThetaResult(theta, m1, m2, snapped, agrees)
