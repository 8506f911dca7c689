"""Carre du champ forms and per-vertex curvature-dimension bounds.

The iterated gradient forms at a vertex are assembled as exact rational
quadratic forms in the function values on the two-step ball, with the
gauge value at the base vertex eliminated.  The curvature at a vertex is
the minimum of the second form against the first over all nonzero test
functions.  Variables outside the one-step ball enter the second form
only through a positive diagonal block, so they are minimized out
exactly by a Schur complement before the generalized eigenvalue step.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateFormError,
    InternalCheckError,
    InvalidParameterError,
    NoConvergenceError,
    NonpositiveCurvatureError,
)
from .graphs import Graph, effective_diameter
from .spectral import _jacobi_eigenvalues

_KERNEL_TOL = 1e-10
_SNAP_WINDOW = 1e-6


@dataclass(frozen=True)
class LocalForm:
    """Quadratic form in function values on `support` (base vertex gauged out)."""

    base: int
    support: tuple
    matrix: tuple  # tuple of tuple of Fraction, symmetric

    def __post_init__(self):
        k = len(self.support)
        if len(self.matrix) != k or any(len(row) != k for row in self.matrix):
            raise InvalidParameterError("form matrix does not match support")
        for i in range(k):
            for j in range(i):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise InvalidParameterError("form matrix must be symmetric")

    def value(self, f) -> Fraction:
        """Evaluate on f given as {vertex: value}; missing vertices are 0."""
        vals = [Fraction(f.get(v, 0)) for v in self.support]
        total = Fraction(0)
        for i, vi in enumerate(vals):
            if not vi:
                continue
            row = self.matrix[i]
            for j, vj in enumerate(vals):
                if vj:
                    total += vi * row[j] * vj
        return total


def _accumulate(quad, lin1, lin2, scale: Fraction):
    """Add scale * lin1 * lin2 into the monomial dict quad."""
    for u, a in lin1.items():
        for v, b in lin2.items():
            c = scale * a * b
            if c:
                key = (u, v) if u <= v else (v, u)
                quad[key] = quad.get(key, Fraction(0)) + c


def _delta_row(g: Graph, v: int):
    """The Laplacian at v as a linear form in f."""
    row = {w: Fraction(1) for w in g.neighbors[v]}
    row[v] = Fraction(-g.degree(v))
    return row


def _to_local_form(g: Graph, x: int, quad, support) -> LocalForm:
    index = {v: i for i, v in enumerate(support)}
    k = len(support)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for (u, v), c in quad.items():
        if not c:
            continue
        if u == x or v == x:
            continue  # gauge f(x) = 0
        if u not in index or v not in index:
            raise InternalCheckError(f"form at {x} touched {u, v} outside support")
        i, j = index[u], index[v]
        if i == j:
            mat[i][i] += c
        else:
            half = c / 2
            mat[i][j] += half
            mat[j][i] += half
    return LocalForm(x, tuple(support), tuple(tuple(row) for row in mat))


def gamma_form(g: Graph, x: int) -> LocalForm:
    """Half the squared gradient at x as a form on the neighbors of x."""
    quad = {}
    for y in g.neighbors[x]:
        lin = {y: Fraction(1), x: Fraction(-1)}
        _accumulate(quad, lin, lin, Fraction(1, 2))
    return _to_local_form(g, x, quad, tuple(g.neighbors[x]))


def gamma2_form(g: Graph, x: int) -> LocalForm:
    """Iterated form at x on the punctured two-step ball.

    Half the Laplacian of the squared gradient, minus the pairing of the
    gradient of f with the gradient of its Laplacian.
    """
    quad = {}
    for y in g.neighbors[x]:
        for v, sign in ((y, 1), (x, -1)):
            for w in g.neighbors[v]:
                lin = {w: Fraction(1), v: Fraction(-1)}
                _accumulate(quad, lin, lin, Fraction(sign, 4))
    dx = _delta_row(g, x)
    for y in g.neighbors[x]:
        lin1 = {y: Fraction(1), x: Fraction(-1)}
        lin2 = dict(_delta_row(g, y))
        for v, c in dx.items():
            lin2[v] = lin2.get(v, Fraction(0)) - c
        _accumulate(quad, lin1, lin2, Fraction(-1, 2))
    row = g.dist_rows()[x]
    support = tuple(v for v in range(g.n) if 0 < row[v] <= 2)
    return _to_local_form(g, x, quad, support)


# --- independent symbolic route, used as the test oracle ---

def _quad_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) - v
    return out


def _quad_add_scaled(acc, q, scale):
    for k, v in q.items():
        c = scale * v
        if c:
            acc[k] = acc.get(k, Fraction(0)) + c


def symbolic_gamma2(g: Graph, x: int):
    """Gamma_2 at x through the generic bilinear recursion, as a monomial dict.

    Works with vertex-indexed families of linear forms and the recursion
    2*G_{i+1}(f,h) = Delta G_i(f,h) - G_i(f, Delta h) - G_i(h, Delta f),
    never using the expanded closed formula.  Exponentially slower than
    gamma2_form but structurally independent of it.
    """
    f_forms = [{v: Fraction(1)} for v in range(g.n)]
    df_forms = [_delta_row(g, v) for v in range(g.n)]

    def g0(fa, fb, v):
        quad = {}
        _accumulate(quad, fa[v], fb[v], Fraction(1))
        return quad

    def g1(fa, fb, dfa, dfb, v):
        acc = {}
        for w in g.neighbors[v]:
            _quad_add_scaled(acc, _quad_sub(g0(fa, fb, w), g0(fa, fb, v)), Fraction(1, 2))
        _quad_add_scaled(acc, g0(fa, dfb, v), Fraction(-1, 2))
        _quad_add_scaled(acc, g0(fb, dfa, v), Fraction(-1, 2))
        return acc

    ddf_forms = []
    for v in range(g.n):
        acc = {}
        for w in g.neighbors[v]:
            for u, c in df_forms[w].items():
                acc[u] = acc.get(u, Fraction(0)) + c
            for u, c in df_forms[v].items():
                acc[u] = acc.get(u, Fraction(0)) - c
        ddf_forms.append(acc)

    acc = {}
    for w in g.neighbors[x]:
        _quad_add_scaled(
            acc,
            _quad_sub(
                g1(f_forms, f_forms, df_forms, df_forms, w),
                g1(f_forms, f_forms, df_forms, df_forms, x),
            ),
            Fraction(1, 2),
        )
    _quad_add_scaled(acc, g1(f_forms, df_forms, df_forms, ddf_forms, x), Fraction(-1))
    return {k: v for k, v in acc.items() if v}


def gamma2_matches_symbolic(g: Graph, x: int) -> bool:
    """Cross-check the assembled form against the recursion route."""
    direct = gamma2_form(g, x)
    sym = symbolic_gamma2(g, x)
    alt = _to_local_form(g, x, sym, direct.support)
    return alt.matrix == direct.matrix


# --- curvature ---

def _schur_to_inner(g: Graph, x: int, form: LocalForm):
    """Eliminate the two-step variables; exact, using their diagonal block.

    Returns the reduced rational matrix on the neighbors of x ordered as
    in gamma_form.
    """
    inner = tuple(g.neighbors[x])
    inner_ix = {v: i for i, v in enumerate(inner)}
    outer = [v for v in form.support if v not in inner_ix]
    sup_ix = {v: i for i, v in enumerate(form.support)}
    mat = form.matrix
    k = len(inner)
    reduced = [
        [mat[sup_ix[inner[i]]][sup_ix[inner[j]]] for j in range(k)]
        for i in range(k)
    ]
    for z in outer:
        zi = sup_ix[z]
        dz = mat[zi][zi]
        if dz <= 0:
            raise InternalCheckError(f"outer diagonal at {z} not positive")
        for u in outer:
            if u != z and mat[zi][sup_ix[u]] != 0:
                raise InternalCheckError("outer block of the iterated form not diagonal")
        col = [mat[sup_ix[inner[i]]][zi] for i in range(k)]
        for i in range(k):
            if not col[i]:
                continue
            for j in range(k):
                if col[j]:
                    reduced[i][j] -= col[i] * col[j] / dz
    return reduced


def _rayleigh_minimum(b_matrix, a_matrix, tol: float) -> float:
    """Smallest generalized eigenvalue of a against b, b positive definite.

    Whitens with the eigensystem of b (eigenvalues below tol rejected)
    and takes the smallest eigenvalue of the transformed a.
    """
    bf = np.array([[float(v) for v in row] for row in b_matrix])
    af = np.array([[float(v) for v in row] for row in a_matrix])
    try:
        vals, vecs = np.linalg.eigh(bf)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"gradient form eigensolver failed: {exc}") from exc
    if np.any(vals <= tol):
        raise DegenerateFormError(f"gradient form has eigenvalue <= {tol}")
    white = vecs / np.sqrt(vals)
    return _jacobi_eigenvalues(white.T @ af @ white)[0]


def curvature_from_forms(g: Graph, x: int, gamma: LocalForm, gamma2: LocalForm,
                         tol: float = _KERNEL_TOL) -> float:
    """Curvature at x from explicitly supplied forms.

    Exposed so callers can probe the eigenvalue pipeline with transformed
    forms (for instance both forms scaled by the same factor, which must
    leave the quotient unchanged).
    """
    a_inner = _schur_to_inner(g, x, gamma2)
    return _rayleigh_minimum(gamma.matrix, a_inner, tol)


def bakry_emery_curvature(g: Graph, x: int, tol: float = _KERNEL_TOL) -> float:
    """Minimum of the iterated form against the gradient form at x."""
    if g.degree(x) < 1:
        raise InvalidParameterError(f"vertex {x} has no neighbors")
    key = ("be", x, tol)
    hit = g.cache.get(key)
    if hit is not None:
        return hit
    value = curvature_from_forms(g, x, gamma_form(g, x), gamma2_form(g, x), tol)
    g.cache[key] = value
    return value


class BEBoundReport(NamedTuple):
    k_min: float
    diam_eff: Fraction
    bound: float
    equality: bool
    k_snapped: Fraction | None
    bound_holds: bool


def be_effective_bound_report(g: Graph, tol: float = 1e-8) -> BEBoundReport:
    """Effective diameter against max degree over the vertex curvature minimum.

    Equality is decided exactly when the curvature minimum snaps to a
    small rational (denominator up to 64 within 1e-6), otherwise within
    tol on floats; the snapped value is reported either way.
    """
    k_min = min(bakry_emery_curvature(g, x) for x in range(g.n))
    if k_min <= tol:
        raise NonpositiveCurvatureError(k_min)
    diam_eff = effective_diameter(g)
    max_deg = g.max_degree()
    bound = max_deg / k_min
    snap = Fraction(k_min).limit_denominator(64)
    if abs(k_min - float(snap)) <= _SNAP_WINDOW:
        equality = diam_eff == Fraction(max_deg) / snap
        holds = diam_eff <= Fraction(max_deg) / snap
    else:
        snap = None
        equality = abs(float(diam_eff) - bound) <= tol
        holds = float(diam_eff) <= bound + tol
    return BEBoundReport(k_min, diam_eff, bound, equality, snap, holds)


class RigidityEntry(NamedTuple):
    name: str
    equality: bool
    is_hypercube: bool
    consistent: bool


class RigidityReport(NamedTuple):
    entries: tuple
    ok: bool


def be_rigidity_check(corpus) -> RigidityReport:
    """Bound equality must hold exactly for the hypercubes of the corpus."""
    from .factorization import factorize

    entries = []
    for name, g in corpus:
        report = be_effective_bound_report(g)
        is_cube = all(f.n == 2 for f in factorize(g))
        entries.append(
            RigidityEntry(name, report.equality, is_cube, report.equality == is_cube)
        )
    return RigidityReport(tuple(entries), all(e.consistent for e in entries))
