"""Carre du champ forms and per-vertex curvature-dimension bounds.

The iterated gradient forms at a vertex are quadratic forms in the
function values on the two-step ball, with the gauge value at the base
vertex eliminated.  Both are assembled exactly as integer matrices over a
fixed denominator: 2 * Gamma and 4 * Gamma_2 have integer entries.  The
curvature at a vertex is the minimum of the second form against the
first over all nonzero test functions.  Variables outside the one-step
ball enter the second form only through a positive diagonal block, so
they are minimized out exactly, in integers scaled by the least common
multiple of that block.  The gradient form is I/2 on the neighbors, so the
reported float K(x) is twice the least eigenvalue of the reduced iterated
form; the diameter-bound verdicts instead test the integer pencil
Gamma_2 - r Gamma for positive semidefiniteness.
The bilinear recursion through 2 * Gamma recomputes 4 * Gamma_2 without the
closed formula, as an int64 matrix over the two-step ball whose rows are
linear forms in f; it is the independent check of the assembled form.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalCheckError,
    InvalidParameterError,
    NonpositiveCurvatureError,
    check_vertex,
)
from .factorization import factorize
from .graphs import Graph, effective_diameter, memo
from .reflective import is_reflective
from .spectral import _jacobi_eigenvalues, _psd_nullity


@dataclass(frozen=True)
class LocalForm:
    """Quadratic form in function values on `support` (base vertex gauged out).

    The form's matrix is `numerators / denominator`: a symmetric square
    matrix of integers over one positive integer.
    """

    base: int
    support: tuple
    numerators: tuple  # tuple of tuple of int, symmetric
    denominator: int

    def __post_init__(self):
        k = len(self.support)
        num = self.numerators
        if len(num) != k or any(len(row) != k for row in num):
            raise InvalidParameterError("form matrix does not match support")
        if any(tuple(row) != col for row, col in zip(num, zip(*num))):
            raise InvalidParameterError("form matrix must be symmetric")
        if not isinstance(self.denominator, int) or self.denominator <= 0:
            raise InvalidParameterError("form denominator must be a positive integer")

    def value(self, f) -> Fraction:
        """Evaluate on f given as {vertex: value}; missing vertices are 0."""
        vals = [Fraction(f.get(v, 0)) for v in self.support]
        total = Fraction(0)
        for vi, row in zip(vals, self.numerators):
            if vi:
                total += vi * sum(m * vj for m, vj in zip(row, vals) if vj)
        return total / self.denominator


def gamma_form(g: Graph, x: int) -> LocalForm:
    """Half the squared gradient at x as a form on the neighbors of x.

    With f(x) = 0 it is half the sum of f(y)^2, so 2 * Gamma is the identity.
    """
    check_vertex(g.n, x)
    support = tuple(g.neighbors[x])
    k = len(support)
    eye = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return LocalForm(x, support, eye, 2)


def gamma2_form(g: Graph, x: int) -> LocalForm:
    """Iterated form at x on the punctured two-step ball, as 4 * Gamma_2.

    Half the Laplacian of the squared gradient, minus the pairing of the
    gradient of f with the gradient of its Laplacian:

        4 Gamma_2 f(x) = sum_{y~x} sum_{w~y} (f(w) - f(y))^2
                         - d_x sum_{w~x} (f(w) - f(x))^2
                         - 2 sum_{y~x} (f(y) - f(x)) (Delta f(y) - Delta f(x)).

    Entries are written into a dense integer matrix whose slot 0 holds x;
    the gauge f(x) = 0 drops that row and column at the end.
    """
    check_vertex(g.n, x)
    row = g.dist_rows()[x]
    support = tuple(v for v in range(g.n) if 0 < row[v] <= 2)
    pos = {x: 0}
    for i, v in enumerate(support, 1):
        pos[v] = i
    size = len(support) + 1
    mat = [[0] * size for _ in range(size)]
    near = [pos[w] for w in g.neighbors[x]]
    for y in g.neighbors[x]:
        i = pos[y]
        ri = mat[i]
        around = [pos[w] for w in g.neighbors[y]]
        # each (f(w) - f(y))^2 adds 1 to both diagonals and -1 off them; the
        # pairing, with f(x) = 0, is -2 f(y) (sum_{w~y} f(w) - d_y f(y)
        # - sum_{w~x} f(w)), split evenly between entries (y, w) and (w, y)
        for j in around:
            mat[j][j] += 1
            ri[j] -= 2
            mat[j][i] -= 2
        ri[i] += 3 * len(around)
        for j in near:
            ri[j] += 1
            mat[j][i] += 1
    d = len(near)
    for j in near:
        mat[j][j] -= d
    return LocalForm(x, support, tuple(tuple(r[1:]) for r in mat[1:]), 4)


# --- independent recursion route, used as the test oracle ---

def _recursion_matrix(g: Graph, x: int, support) -> np.ndarray:
    """4 * Gamma_2 at x through the generic bilinear recursion, as an int64 matrix.

    Functions are vertex-indexed families of linear forms in f, each form an
    int64 row over the coordinates (x, *support), and with H_1 = 2 * Gamma
    the recursion

        H_1(a, b)(v) = sum_{w~v} (a b(w) - a b(v)) - a(v) Delta b(v) - b(v) Delta a(v),
        4 Gamma_2 f(x) = sum_{w~x} (H_1(f, f)(w) - H_1(f, f)(x)) - 2 H_1(f, Delta f)(x)

    adds each product a(v) b(v) into m as the outer product of its two rows,
    one line per H_1 term (the sums over w ~ x as one line each), so
    f^T m f = 4 Gamma_2 f(x); m itself need not be symmetric.  Delta f is
    built only on the one-step ball and Delta Delta f only at x, the values
    the recursion reads.  A vertex read without a coordinate raises
    InternalCheckError.  It never uses the closed formula of gamma2_form.

    With D the largest degree on the one-step ball, Delta f has entries of
    at most D, Delta Delta f of at most D^2 + 2D, and m of at most 10 D^2:
    below 2 * 10^8 for D < MAX_VERTICES = 4096, the input budget, so int64
    holds m, m + m^T and 4 (m + m^T) exactly.
    """
    pos = {v: i for i, v in enumerate((x, *support))}
    one = (x, *g.neighbors[x])
    adj = np.zeros((len(one), len(pos)), dtype=np.int64)  # row i: neighbors of one[i]
    try:
        for row, v in zip(adj, one):
            row[[pos[w] for w in g.neighbors[v]]] = 1
    except KeyError as exc:
        raise InternalCheckError(
            f"form at {x} touched {exc.args[0]} outside support") from None
    near = [pos[w] for w in g.neighbors[x]]
    d, deg = len(near), adj.sum(axis=1)
    lap = adj.copy()
    lap[range(len(one)), [0, *near]] -= deg  # lap[i] = Delta f(one[i])
    lap2 = lap[1:].sum(axis=0) - d * lap[0]  # Delta Delta f(x)
    m = np.zeros((len(pos), len(pos)), dtype=np.int64)
    # sum_{w~x} H_1(f, f)(w)
    m.flat[:: len(pos) + 1] += adj[1:].sum(axis=0)  # sum_{w~x} sum_{u~w} f(u) f(u)
    m[near, near] -= deg[1:]  # - sum_{w~x} d_w f(w) f(w)
    m[near] -= 2 * lap[1:]  # - sum_{w~x} 2 f(w) Delta f(w)
    # - d_x H_1(f, f)(x)
    m[near, near] -= d  # - d_x sum_{u~x} f(u) f(u)
    m[0, 0] += d * d  # + d_x d_x f(x) f(x)
    m[0] += 2 * d * lap[0]  # + 2 d_x f(x) Delta f(x)
    # - 2 H_1(f, Delta f)(x)
    m[near] -= 2 * lap[1:]  # - 2 sum_{w~x} f(w) Delta f(w)
    m[0] += 2 * d * lap[0]  # + 2 d_x f(x) Delta f(x)
    m[0] += 2 * lap2  # + 2 f(x) Delta Delta f(x)
    m += 2 * np.outer(lap[0], lap[0])  # + 2 Delta f(x) Delta f(x)
    return m


def symbolic_gamma2(g: Graph, x: int):
    """4 * Gamma_2 at x through the recursion, as a monomial dict.

    Keys are vertex pairs (u, v) with u <= v, values the integer
    coefficients of f(u) f(v), read off _recursion_matrix on the two-step
    ball: m[u][v] + m[v][u] for u != v and m[u][u] for a square.
    """
    check_vertex(g.n, x)
    row = g.dist_rows()[x]
    ball = (x, *(v for v in range(g.n) if 0 < row[v] <= 2))
    m = _recursion_matrix(g, x, ball[1:])
    s = m + m.T
    rows, cols = np.nonzero(np.triu(s))
    return {(min(ball[i], ball[j]), max(ball[i], ball[j])): int(s[i, j]) // (1 + (i == j))
            for i, j in zip(rows.tolist(), cols.tolist())}


def gamma2_matches_symbolic(g: Graph, x: int) -> bool:
    """Cross-check the assembled form against the recursion route.

    criterion_09 runs it at every vertex of every corpus member.  The
    recursion takes only the form's support, as its coordinates, and never
    reads gamma2_form's closed formula.  m + m^T holds a product f(u) f(v)
    once in each of its two entries and a square twice on the diagonal, so
    over the form's denominator it must equal 8 times the numerators.  The
    row and column of x are dropped by the gauge f(x) = 0.
    """
    direct = gamma2_form(g, x)
    m = _recursion_matrix(g, x, direct.support)
    s = (m + m.T)[1:, 1:]
    num = np.array(direct.numerators, dtype=np.int64).reshape(s.shape)
    return bool(np.array_equal(s * direct.denominator, 8 * num))


# --- curvature ---

def _schur_to_inner(g: Graph, x: int, form: LocalForm):
    """Eliminate the two-step variables; exact, using their diagonal block.

    Returns (numerators, denominator) of the reduced matrix on the
    neighbors of x ordered as in gamma_form.  With the outer block
    diagonal, scaling the inner block by the lcm L of the outer diagonal
    keeps the Schur complement integral: L * A - sum_z (L / d_z) c_z c_z^T,
    over L times the form's denominator.
    """
    sup_ix = {v: i for i, v in enumerate(form.support)}
    inner_ix = [sup_ix[v] for v in g.neighbors[x]]
    inner = set(inner_ix)
    outer_ix = [i for i in range(len(form.support)) if i not in inner]
    mat = form.numerators
    for zi in outer_ix:
        row = mat[zi]
        if row[zi] <= 0:
            raise InternalCheckError(f"outer diagonal at {form.support[zi]} not positive")
        if any(row[ui] for ui in outer_ix if ui != zi):
            raise InternalCheckError("outer block of the iterated form not diagonal")
    scale = math.lcm(*(mat[zi][zi] for zi in outer_ix))
    reduced = [[scale * mat[i][j] for j in inner_ix] for i in inner_ix]
    for zi in outer_ix:
        row = mat[zi]  # equal to the column by symmetry
        q = scale // row[zi]
        col = [(a, row[i]) for a, i in enumerate(inner_ix) if row[i]]
        for a, ca in col:
            red_a = reduced[a]
            qa = q * ca
            for b, cb in col:
                red_a[b] -= qa * cb
    return reduced, scale * form.denominator


@memo("be_inner")
def _inner_gamma2(g: Graph, x: int):
    """The Schur-reduced iterated form at x as (numerators, denominator), cached."""
    return _schur_to_inner(g, x, gamma2_form(g, x))


def _least_quotient(gamma: LocalForm, a_num, a_den: int) -> float:
    """Least eigenvalue of a_num / a_den over the scale c of gamma = c * I.

    The int / int divisions round each entry correctly.  gamma_form is I/2,
    so the quotient is twice the least eigenvalue; any other gradient form
    must be a positive multiple of the identity.
    """
    num, den = gamma.numerators, gamma.denominator
    s = num[0][0] if num else 0
    if s <= 0 or any(v != s * (i == j) for i, row in enumerate(num) for j, v in enumerate(row)):
        raise InvalidParameterError("gradient form is not a positive multiple of the identity")
    low = _jacobi_eigenvalues([[v / a_den for v in row] for row in a_num])[0]
    return low * den / s


def curvature_from_forms(g: Graph, x: int, gamma: LocalForm, gamma2: LocalForm) -> float:
    """Curvature at x from explicitly supplied forms.

    Exposed so callers can probe the eigenvalue step with transformed
    forms (for instance both forms scaled by the same factor, which must
    leave the quotient unchanged).
    """
    return _least_quotient(gamma, *_schur_to_inner(g, x, gamma2))


def bakry_emery_curvature(g: Graph, x: int) -> float:
    """Minimum of the iterated form against the gradient form at x, cached."""
    check_vertex(g.n, x)  # ahead of the memo, which would hand 1.0 the value of 1
    if g.degree(x) < 1:
        raise InvalidParameterError(f"vertex {x} has no neighbors")
    return _vertex_curvature(g, x)


@memo("be")
def _vertex_curvature(g: Graph, x: int) -> float:
    return _least_quotient(gamma_form(g, x), *_inner_gamma2(g, x))


def _pencil_psd_nullity(g: Graph, x: int, r: Fraction):
    """_psd_nullity of the pencil Gamma_2 - r Gamma at x, for r = p/q.

    K(x) >= r exactly when it is positive semidefinite, and K(x) == r when
    it is also singular.  2 Gamma is the identity, so the pencil times
    2 q a_den is 2 q A - p a_den I, with A/a_den the reduced iterated form.
    """
    a_num, a_den = _inner_gamma2(g, x)
    scale, shift = 2 * r.denominator, r.numerator * a_den
    return _psd_nullity([[scale * v - shift * (i == j) for j, v in enumerate(row)]
                         for i, row in enumerate(a_num)])


class BEBoundReport(NamedTuple):
    k_min: float
    diam_eff: Fraction
    bound: float
    equality: bool
    k_snapped: Fraction | None  # max_degree / diam_eff when equality holds
    bound_holds: bool


@memo("be_bound")
def be_effective_bound_report(g: Graph) -> BEBoundReport:
    """Effective diameter against max degree over the vertex curvature minimum.

    Decided exactly: with r = max_degree / diam_eff the bound says K_min <= r.
    At the first vertex, in index order, whose pencil Gamma_2 - r Gamma is
    not positive semidefinite, K_min < r and the bound holds strictly, once
    the reduced iterated form is positive definite everywhere (K_min > 0).
    Otherwise K_min >= r, and equality (k_snapped = r) holds exactly when
    some pencil is singular.  k_min and bound are floats, only reported.
    A reflective graph is vertex-transitive (reflective module docstring),
    so vertex 0 alone is read there.  A report is cached on the graph; the
    nonpositive case raises each time.
    """
    vertices = [0] if is_reflective(g).reflective else range(g.n)
    k_min = min(bakry_emery_curvature(g, x) for x in vertices)
    diam_eff = effective_diameter(g)
    r = g.max_degree() / diam_eff
    strict = singular = False
    for x in vertices:
        psd, nullity = _pencil_psd_nullity(g, x, r)
        if not psd:
            strict = True
            break
        singular = singular or nullity > 0
    if strict and any(_psd_nullity(_inner_gamma2(g, x)[0]) != (True, 0) for x in vertices):
        raise NonpositiveCurvatureError(k_min)
    equality = singular and not strict
    return BEBoundReport(
        k_min, diam_eff, g.max_degree() / k_min, equality, r if equality else None,
        strict or equality)


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
    entries = []
    for name, g in corpus:
        report = be_effective_bound_report(g)
        is_cube = all(f.n == 2 for f in factorize(g))
        entries.append(
            RigidityEntry(name, report.equality, is_cube, report.equality == is_cube)
        )
    return RigidityReport(tuple(entries), all(e.consistent for e in entries))
