"""Exact Ollivier curvature for the unit-weight graph Laplacian.

The curvature of a vertex pair is the minimum of Delta f(x) - Delta f(y),
scaled by 1/d(x,y), over functions with f(y) - f(x) = d(x,y) that are
1-Lipschitz for the shortest-path metric.  The minimum is taken over the
restriction to B1(x) union B1(y); a 1-Lipschitz function on that support
extends to the whole graph by z -> min_w f(w) + d(z, w) without changing
the objective, so nothing is lost.

The solver is an exact simplex on the constraint polytope.  The pairwise
difference system is totally unimodular, so every vertex of the polytope is
integral and the whole pivot loop runs in plain integer arithmetic.  Each
solve finishes by checking its own optimality certificate.

The same integrality gives the brute-force oracle below: the LP optimum is
the minimum over the polytope's integer points, and with f(x) and f(y)
fixed each other support vertex takes at most three integer values.  The
oracle enumerates those points and evaluates the objective from the
definition of the Laplacian, sharing only the distance matrix with the
simplex path.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import (
    InternalCheckError,
    NotAdjacentError,
    SameVertexError,
    SupportTooLargeError,
    TrivialGraphError,
)
from .graphs import Graph, ball

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LipschitzLP:
    """The linear program behind a curvature value.

    support lists B1(x) union B1(y) in sorted order.  coeffs maps support
    vertices to objective coefficients so that the objective is
    sum coeffs[v] * f(v).  Feasible points satisfy f(x) = 0, f(y) = gap and
    |f(u) - f(v)| <= d(u, v) for every support pair.
    """

    x: int
    y: int
    gap: int
    support: tuple
    coeffs: dict
    pairs: tuple  # (u, v, d(u, v)) for unordered support pairs except {x, y}


@dataclass(frozen=True)
class CurvatureValue:
    """Exact curvature with a feasible optimizer and a dual certificate.

    certificate rows (u, v, rhs, lam) are tight constraints
    f(u) - f(v) = rhs with multiplier lam >= 0; together they prove that no
    feasible point beats the optimizer.
    """

    x: int
    y: int
    gap: int
    value: Fraction
    optimizer: dict
    certificate: tuple


class MinEdgeCurvature(NamedTuple):
    value: Fraction
    is_constant: bool
    min_edge: tuple
    other_edge: tuple | None


def build_lipschitz_lp(g: Graph, x: int, y: int) -> LipschitzLP:
    if x == y:
        raise SameVertexError(x)
    dist = g.dist_rows()
    gap = dist[x][y]
    support = tuple(sorted(set(ball(g, x, 1)) | set(ball(g, y, 1))))
    s1x = g._nbr_sets[x]
    s1y = g._nbr_sets[y]
    coeffs = {}
    for v in support:
        c = (1 if v in s1x else 0) - (1 if v in s1y else 0)
        if v == x:
            c -= g.degree(x)
        if v == y:
            c += g.degree(y)
        coeffs[v] = c
    pairs = tuple(
        (u, v, dist[u][v])
        for u, v in combinations(support, 2)
        if {u, v} != {x, y}
    )
    return LipschitzLP(x, y, gap, support, coeffs, pairs)


def _active_tree_multipliers(k, active, constraints, cvec_node):
    """Solve for multipliers on the active spanning tree, leaves first.

    Nodes 0..k-1 are free variables, node k is the merged fixed ground.
    Stationarity at a free node reads c + sum(sigma * lam) = 0 over its
    incident active rows, so multipliers resolve bottom up with divisions
    only by +-1.  Raises if the active set is not a spanning tree, which
    would be a solver invariant violation.
    """
    ground = k
    adj = [[] for _ in range(k + 1)]
    for cidx in active:
        _, _, _, nu, nv = constraints[cidx]
        adj[nu].append((cidx, nv, 1))
        adj[nv].append((cidx, nu, -1))
    parent_edge = [None] * (k + 1)
    order = []
    seen = [False] * (k + 1)
    seen[ground] = True
    stack = [ground]
    while stack:
        node = stack.pop()
        order.append(node)
        for cidx, other, _ in adj[node]:
            if not seen[other]:
                seen[other] = True
                parent_edge[other] = cidx
                stack.append(other)
    if len(order) != k + 1:
        raise InternalCheckError("active set does not span the variables")
    lam = {}
    for node in reversed(order):
        if node == ground:
            continue
        acc = cvec_node[node]
        psigma = 0
        pidx = parent_edge[node]
        for cidx, other, sigma in adj[node]:
            if cidx == pidx:
                psigma = sigma
            else:
                acc += sigma * lam[cidx]
        lam[pidx] = -acc * psigma  # psigma in {-1, +1}
    return lam, adj


def _solve_core(k, fval, gval, cvec, constraints, start_active):
    """Exact minimization of sum cvec[i] * f_i over the difference polytope.

    constraints rows are (u, v, rhs, nu, nv) meaning f(u) - f(v) <= rhs with
    node ids nu, nv (node k is the fixed ground; gval maps the original
    fixed vertices to their values).  fval holds the integer value of each
    free node and is updated in place.  Returns (obj, active, multipliers).
    """
    ground = k
    slack = []
    for (u, v, rhs, nu, nv) in constraints:
        fu = fval[nu] if nu != ground else gval[u]
        fv = fval[nv] if nv != ground else gval[v]
        s = rhs - (fu - fv)
        if s < 0:
            raise InternalCheckError("start point infeasible")
        slack.append(s)
    active = sorted(start_active)
    for _ in range(_MAX_PIVOTS):
        lam, adj = _active_tree_multipliers(k, active, constraints, cvec)
        leaving = None
        for cidx in active:
            if lam[cidx] < 0:
                leaving = cidx
                break
        if leaving is None:
            obj = sum(cvec[i] * fval[i] for i in range(k))
            return obj, active, lam
        # component cut off from ground once `leaving` is removed
        seen = [False] * (k + 1)
        seen[ground] = True
        stack = [ground]
        while stack:
            node = stack.pop()
            for cidx, other, _ in adj[node]:
                if cidx != leaving and not seen[other]:
                    seen[other] = True
                    stack.append(other)
        in_m = [not seen[node] for node in range(k + 1)]
        _, _, _, nu, nv = constraints[leaving]
        a_dot = (1 if in_m[nu] else 0) - (1 if in_m[nv] else 0)
        step_sign = -a_dot  # opens the leaving constraint
        best_t = None
        entering = None
        for cidx, (u, v, rhs, cnu, cnv) in enumerate(constraints):
            rate = ((1 if in_m[cnu] else 0) - (1 if in_m[cnv] else 0)) * step_sign
            if rate > 0:
                t = slack[cidx]
                if best_t is None or t < best_t:
                    best_t = t
                    entering = cidx
        if best_t is None:
            raise InternalCheckError("curvature polytope appears unbounded")
        for node in range(k):
            if in_m[node]:
                fval[node] += best_t * step_sign
        if best_t != 0:
            for cidx, (u, v, rhs, cnu, cnv) in enumerate(constraints):
                rate = ((1 if in_m[cnu] else 0) - (1 if in_m[cnv] else 0)) * step_sign
                if rate:
                    slack[cidx] -= best_t * rate
        active.remove(leaving)
        active.append(entering)
        active.sort()
    raise InternalCheckError("pivot limit exceeded")


def solve_lipschitz_lp(g: Graph, lp: LipschitzLP) -> CurvatureValue:
    """Exact optimum of the curvature program, verified before returning."""
    dist = g.dist_rows()
    x, y, gap = lp.x, lp.y, lp.gap
    fixed = {x: 0, y: gap}
    core = sorted(v for v in lp.support if v not in fixed and lp.coeffs[v] != 0)
    k = len(core)
    node = {v: i for i, v in enumerate(core)}
    ground = k

    constraints = []
    where = {}
    members = core + [x, y]
    for u, v in combinations(sorted(members), 2):
        if {u, v} == {x, y}:
            continue
        rhs = dist[u][v]
        nu = node.get(u, ground)
        nv = node.get(v, ground)
        where[(u, v)] = len(constraints)
        constraints.append((u, v, rhs, nu, nv))
        where[(v, u)] = len(constraints)
        constraints.append((v, u, rhs, nv, nu))

    cvec = [lp.coeffs[v] for v in core]
    fval = [gap - dist[v][y] for v in core]
    start_active = [where[(y, v)] for v in core]
    if k == 0:
        core_obj = 0
        lam = {}
        active = []
    else:
        core_obj, active, lam = _solve_core(k, fval, fixed, cvec, constraints, start_active)

    const = lp.coeffs.get(x, 0) * 0 + lp.coeffs.get(y, 0) * gap
    objective = core_obj + const

    f_full = dict(fixed)
    for i, v in enumerate(core):
        f_full[v] = fval[i]
    anchors = list(f_full.items())
    for z in lp.support:
        if z not in f_full:
            f_full[z] = min(fw + dist[z][w] for w, fw in anchors)

    # exact self checks: feasibility on the full support, objective match,
    # and the dual certificate.
    for u, v, d_uv in lp.pairs:
        if abs(f_full[u] - f_full[v]) > d_uv:
            raise InternalCheckError("optimizer violates a Lipschitz constraint")
    if f_full[y] - f_full[x] != gap:
        raise InternalCheckError("optimizer violates the endpoint constraint")
    full_obj = sum(lp.coeffs[v] * f_full[v] for v in lp.support)
    if full_obj != objective:
        raise InternalCheckError("support reduction changed the objective")
    certificate = []
    for cidx in active:
        l = lam[cidx]
        if l < 0:
            raise InternalCheckError("negative multiplier at optimum")
        u, v, rhs, _, _ = constraints[cidx]
        if f_full[u] - f_full[v] != rhs:
            raise InternalCheckError("certificate row is not tight")
        if l > 0:
            certificate.append((u, v, rhs, l))
    gradient = {v: lp.coeffs[v] for v in lp.support if v not in fixed}
    for (u, v, _, l) in certificate:
        if u not in fixed:
            gradient[u] = gradient.get(u, 0) + l
        if v not in fixed:
            gradient[v] = gradient.get(v, 0) - l
    if any(gval != 0 for gval in gradient.values()):
        raise InternalCheckError("certificate does not balance the objective")

    return CurvatureValue(
        x=x,
        y=y,
        gap=gap,
        value=Fraction(objective, gap),
        optimizer={v: Fraction(f_full[v]) for v in lp.support},
        certificate=tuple(certificate),
    )


def _flip_orientation(cv: CurvatureValue) -> CurvatureValue:
    """Re-express a solved pair with the roles of x and y exchanged."""
    gap = cv.gap
    return CurvatureValue(
        x=cv.y,
        y=cv.x,
        gap=gap,
        value=cv.value,
        optimizer={v: gap - f for v, f in cv.optimizer.items()},
        certificate=tuple((v, u, rhs, l) for (u, v, rhs, l) in cv.certificate),
    )


def _pair_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    a, b = (x, y) if x < y else (y, x)
    key = ("kappa", a, b)
    cv = g.cache.get(key)
    if cv is None:
        cv = solve_lipschitz_lp(g, build_lipschitz_lp(g, a, b))
        g.cache[key] = cv
    return cv if (x, y) == (a, b) else _flip_orientation(cv)


def edge_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    """Exact curvature of the edge (x, y)."""
    if x == y:
        raise SameVertexError(x)
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    return _pair_curvature(g, x, y)


def long_range_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    """Exact curvature of an arbitrary vertex pair, scaled by 1/d(x, y)."""
    if x == y:
        raise SameVertexError(x)
    return _pair_curvature(g, x, y)


def min_edge_curvature(g: Graph) -> MinEdgeCurvature:
    """Minimum edge curvature with constancy information.

    Edges are scanned in lexicographic order; witnesses are the first edge
    attaining the minimum and, when values differ, the first edge attaining
    any other value.  Raises TrivialGraphError on a graph without edges.
    """
    if not g.edges:
        raise TrivialGraphError("edge curvature needs at least one edge")
    best = None
    best_edge = None
    other = None
    values = []
    for (u, v) in g.edges:
        val = edge_curvature(g, u, v).value
        values.append(((u, v), val))
        if best is None or val < best:
            best = val
            best_edge = (u, v)
    for edge, val in values:
        if val != best:
            other = edge
            break
    return MinEdgeCurvature(best, other is None, best_edge, other)


def curvature_from_intersection_array(ia) -> Fraction:
    """Curvature prediction 1 + b0 - b1 from an intersection array."""
    b0 = ia.b[0]
    b1 = ia.b[1] if len(ia.b) > 1 else 0
    return Fraction(1 + b0 - b1)


def verify_optimality_certificate(g: Graph, cv: CurvatureValue) -> bool:
    """Arithmetic-only recheck that cv is optimal for its pair.

    Verifies primal feasibility of the optimizer, the objective value, and
    the dual certificate (tight rows, nonnegative multipliers, stationarity).
    Together these prove optimality without re-solving.
    """
    lp = build_lipschitz_lp(g, cv.x, cv.y)
    f = cv.optimizer
    if set(f) != set(lp.support):
        return False
    if f[cv.y] - f[cv.x] != lp.gap:
        return False
    for u, v, d_uv in lp.pairs:
        if abs(f[u] - f[v]) > d_uv:
            return False
    obj = sum(lp.coeffs[v] * f[v] for v in lp.support)
    if Fraction(obj, lp.gap) != cv.value:
        return False
    grad = {v: Fraction(lp.coeffs[v]) for v in lp.support}
    dist = g.dist_rows()
    for (u, v, rhs, l) in cv.certificate:
        if l < 0 or rhs != dist[u][v] or f[u] - f[v] != rhs:
            return False
        grad[u] += l
        grad[v] -= l
    return all(grad[v] == 0 for v in lp.support if v not in (cv.x, cv.y))


# --- independent oracle: enumerate the integer points of the polytope ---

def brute_force_curvature_oracle(g: Graph, x: int, y: int, max_support: int = 10) -> Fraction:
    """Exact curvature by enumerating integer 1-Lipschitz functions.

    Works on the full B1(x) union B1(y) support with no reduction.  With
    f(x) = 0 and f(y) = d(x, y) fixed, the constraints against x and y
    confine each free vertex v to the integers in [d(x,y) - d(v,y), d(x,v)].
    A depth-first search assigns the free vertices in turn, drops a partial
    assignment as soon as it breaks a constraint between assigned vertices
    or cannot beat the best point found, and evaluates Delta f(x) - Delta f(y)
    term by term from the neighbor lists.  Guarded by max_support because
    the search grows exponentially with it.
    """
    if x == y:
        raise SameVertexError(x)
    dist = g.dist_rows()
    gap = dist[x][y]
    support = {x, y}.union(g.neighbors[x], g.neighbors[y])
    if len(support) > max_support:
        raise SupportTooLargeError(len(support), max_support)
    free = sorted(support - {x, y})
    f = {x: 0, y: gap}
    nx, ny = set(g.neighbors[x]), set(g.neighbors[y])

    def term(w, val):
        # the summands f(w) - f(x) of Delta f(x) and f(w) - f(y) of Delta f(y)
        return (val - f[x] if w in nx else 0) - (val - f[y] if w in ny else 0)

    # values[i] runs in increasing order of its term, and floor[i] bounds the
    # terms of free[i:] from below, ignoring the constraints among them
    values = [
        sorted(range(gap - dist[v][y], dist[x][v] + 1), key=lambda a, v=v: term(v, a))
        for v in free
    ]
    floor = [0] * (len(free) + 1)
    for i in reversed(range(len(free))):
        floor[i] = floor[i + 1] + term(free[i], values[i][0])
    best = None

    def search(i, partial):
        nonlocal best
        if best is not None and partial + floor[i] >= best:
            return
        if i == len(free):
            best = partial
            return
        v = free[i]
        for val in values[i]:
            if all(abs(val - f[u]) <= dist[u][v] for u in free[:i]):
                f[v] = val
                search(i + 1, partial + term(v, val))

    search(0, term(x, 0) + term(y, gap))
    if best is None:
        raise InternalCheckError("oracle found no feasible integer point")
    return Fraction(best, gap)
