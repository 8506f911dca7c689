"""Exact Ollivier curvature for the unit-weight graph Laplacian.

The curvature of a vertex pair is the minimum of Delta f(x) - Delta f(y),
scaled by 1/d(x,y), over functions with f(y) - f(x) = d(x,y) that are
1-Lipschitz for the shortest-path metric.  The minimum is taken over the
restriction to B1(x) union B1(y); a 1-Lipschitz function on that support
extends to the whole graph by z -> min_w f(w) + d(z, w) without changing
the objective, so nothing is lost.

The solver is an exact simplex on the constraint polytope.  The pairwise
difference system is totally unimodular, so every vertex of the polytope is
integral and the whole pivot loop runs in plain integer arithmetic.  No
constraint list is built: the tight rows form a spanning tree, kept in
arrays indexed by the child node of each row (its parent, the row, the
row's multiplier, sign and rank, and the node's children).  Each pivot
drops the tight row of least rank (_order) with a negative multiplier,
which cuts one subtree off, and scans only the rows across that cut,
reading each slack d(u, v) - (f(u) - f(v)) from the distance rows and the
current values; the row of least slack enters, ties going to the least
(lower end, upper end).  The multipliers are subtree sums updated along
the paths the pivot changes, and a degenerate pivot (slack 0) moves no
value.  The final rows are sorted by rank once, so every certificate lists
its rows in one fixed order.  Each solve finishes by checking its
optimizer and certificate with _certified, the integer core that
verify_optimality_certificate also runs after its type and shape checks.

Reflective graphs are solved once per orbit.  min_edge_curvature (for the
edges) and long_range_curvatures (for the non-adjacent pairs) compute the
is_reflective verdict first.  On a reflective graph they take the pairs in
lexicographic order and solve the first unsolved one by the LP.  A
breadth-first search then maps each solved pair through the reflection of
every edge at either of its ends; an automorphism preserves the program,
so each new image gets the optimizer and certificate carried along
(v -> sigma(v), turned to x < y).  Each carried certificate is replayed
with verify_optimality_certificate before it is cached, and a failed
replay is an InternalCheckError, so every value is proven for its own pair
whatever the mapping.  The curvature value is the optimum of the program
and so is unique; the optimizer and certificate are not, and for a pair
that is not an orbit representative they are the carried ones.  On a graph
that is not reflective every pair gets its own LP.  Single-pair requests
(edge_curvature, long_range_curvature) compute no reflections: they take
the orbit route only when an all-pairs call has already filled the cache.

The same integrality gives the brute-force oracle below: the LP optimum is
the minimum over the polytope's integer points, and with f(x) and f(y)
fixed each other support vertex takes at most three integer values.  The
oracle enumerates those points and evaluates the objective from the
definition of the Laplacian, sharing only the distance matrix with the
simplex path.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    InternalCheckError,
    NotAdjacentError,
    SameVertexError,
    SupportTooLargeError,
    TrivialGraphError,
    check_vertex,
)
from .graphs import Graph
from .reflective import reflection_maps

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


def _objective(g: Graph, x: int, y: int):
    """Sorted support B1(x) union B1(y) and the objective coefficients on it."""
    check_vertex(g.n, x)
    check_vertex(g.n, y)
    if x == y:
        raise SameVertexError(x)
    s1x = g._nbr_sets[x]
    s1y = g._nbr_sets[y]
    support = tuple(sorted(s1x | s1y | {x, y}))
    coeffs = {v: (v in s1x) - (v in s1y) for v in support}
    coeffs[x] -= g.degree(x)
    coeffs[y] += g.degree(y)
    return support, coeffs


def build_lipschitz_lp(g: Graph, x: int, y: int) -> LipschitzLP:
    support, coeffs = _objective(g, x, y)
    return LipschitzLP(x, y, g.dist_rows()[x][y], support, coeffs)


def _is_lipschitz(dist, support, f) -> bool:
    """|f(u) - f(v)| <= d(u, v) on every support pair, f an integer dict.

    Distinct vertices are at distance at least 1, so only pairs whose
    values differ by two or more can break the bound; the support is
    grouped by value and just those level pairs read the distance rows.
    """
    levels = {}
    for v in support:
        levels.setdefault(f[v], []).append(v)
    for a, lows in levels.items():
        for b, highs in levels.items():
            if b - a > 1 and any(dist[u][v] < b - a for u in lows for v in highs):
                return False
    return True


def _order(a, b, n):
    """Rank of the row f(a) - f(b) <= d(a, b) among n members.

    Rows rank by their pair {a, b}, lower end first, then a < b before
    a > b; the rank is one integer so that a list of them compares fast.
    """
    return (a * n + b) * 2 if a < b else (b * n + a) * 2 + 1


def _entering_row(dist, fs, side, other):
    """The row that goes tight first as the cut moves: least slack, then _order.

    side and other are the two sides of the cut in increasing order, side
    the smaller.  With su = +1 or -1 the rate at which f(u) - f(v) grows
    for u in side and v in other, fs holds su * f.  Only rows across the
    cut have a rate, each in one direction, and the slack of the pair
    {u, v} reads d(u, v) + fs(v) - fs(u).  Each u of side, in increasing
    order, takes its first best partner v (the lowest of its ties in
    _order) and the least (slack, lower end, upper end) wins; once the best
    slack is zero, a later u can only win with a partner below the best
    pair's lower end.  Returns (slack, u, v).
    """
    best = None
    for u in side:
        du = dist[u]
        ts = [du[v] + fs[v] for v in other]
        if not ts:
            break
        low = min(ts)
        v = other[ts.index(low)]
        low -= fs[u]
        cand = (low, u, v, u, v) if u < v else (low, v, u, u, v)
        if best is None or cand < best:
            best = cand
            if low == 0:
                other = other[:bisect_left(other, cand[1])]
    return best[0], best[3], best[4]


def _solve_core(dist, f, ix, iy, cvec):
    """Exact minimization of sum cvec[i] * f_i over the difference polytope.

    Members are numbered in support order; dist is their distance matrix
    and f their integer values (updated in place, nf mirrors -f), starting
    on the rows f(y) - f(v) <= d(y, v), one per free member v, all tight.
    The tight rows always form a spanning tree of the free members and the
    ground (x and y merged, numbered ix).  Each free node keeps, indexed by
    itself, its parent par, the row up to it, that row's multiplier lam,
    its sign sg (+1 where the node is the row's first end), the row's rank
    key (_order) and the list of its children.
    Stationarity at a free node n reads c(n) + sum(sigma * lam) = 0 over
    its rows; summed over the subtree below a row it leaves that row alone,
    so lam = -sg * S with S the sum of c over that subtree.  Each pivot
    drops the row of least _order with a negative multiplier, moves the
    subtree M below it until a row crossing the cut goes tight (the least
    slack, ties to the least (lower end, upper end)), and hangs M from that
    row: only the sums S on the two paths to the ground and on the path in
    M that turns over change.  A degenerate pivot (slack 0) moves nothing.
    Returns the final rows [(row, multiplier)] sorted by _order.
    """
    n = len(f)
    free = [i for i in range(n) if i != ix and i != iy]

    par = [ix] * n
    up = [(iy, i) for i in range(n)]
    sg = [-1] * n
    lam = list(cvec)
    key = [_order(iy, i, n) for i in range(n)]
    kids = [[] for _ in range(n)]
    kids[ix] = list(free)
    lam[ix] = lam[iy] = 0  # not rows: never negative, never read
    key[ix] = key[iy] = -1
    nf = [-v for v in f]
    for pivots in range(_MAX_PIVOTS + 1):
        neg = [k for k, l in zip(key, lam) if l < 0]
        if not neg:
            break
        if pivots == _MAX_PIVOTS:
            raise InternalCheckError("pivot limit exceeded")
        root = key.index(min(neg))
        top = par[root]
        sub = [root]
        for nd in sub:
            sub.extend(kids[nd])
        stride = -sg[root]  # opens the leaving row
        ins = sorted(sub)
        outs = list(range(n))
        for nd in reversed(ins):
            del outs[nd]
        if len(ins) <= len(outs):
            step, m, w = _entering_row(dist, f if stride > 0 else nf, ins, outs)
        else:
            step, w, m = _entering_row(dist, nf if stride > 0 else f, outs, ins)
        entering = (m, w) if stride > 0 else (w, m)
        if step:
            ds = step * stride
            for nd in sub:
                f[nd] += ds
                nf[nd] -= ds
        s_m = -sg[root] * lam[root]
        if w == iy:  # y is part of the ground
            w = ix
        nd = top
        while nd != ix:
            lam[nd] += sg[nd] * s_m
            nd = par[nd]
        nd = w
        while nd != ix:
            lam[nd] -= sg[nd] * s_m
            nd = par[nd]
        kids[top].remove(root)
        kids[w].append(m)
        # re-root M at m: each row on the path from m up to root turns over
        # and moves to the node that was its parent
        row, k, s, l = entering, _order(*entering, n), stride, -stride * s_m
        below, nd = w, m
        while True:
            up[nd], row = row, up[nd]
            key[nd], k = k, key[nd]
            sg[nd], s = s, sg[nd]
            lam[nd], l = l, lam[nd]
            par[nd], below, nd = below, nd, par[nd]
            if below == root:
                break
            kids[nd].remove(below)
            kids[below].append(nd)
            l += s * s_m
            s = -s
    return [(up[nd], lam[nd]) for nd in sorted(free, key=key.__getitem__)]


def solve_lipschitz_lp(g: Graph, lp: LipschitzLP) -> CurvatureValue:
    """Exact optimum of the curvature program, verified before returning."""
    dist = g.dist_rows()
    x, y, gap = lp.x, lp.y, lp.gap
    fixed = {x: 0, y: gap}
    members = sorted(v for v in lp.support if v in fixed or lp.coeffs[v] != 0)
    pick = itemgetter(*members)
    mdist = [pick(dist[u]) for u in members]
    # the start point sits on each row f(y) - f(v) <= d(y, v)
    f = [gap - dist[v][y] for v in members]
    rows = _solve_core(mdist, f, members.index(x), members.index(y),
                       [lp.coeffs[v] for v in members])

    f_full = dict(zip(members, f))
    # the support left out of members has coefficient 0, so the objective
    # over members is the objective over the full support
    objective = sum(lp.coeffs[v] * f_full[v] for v in members)
    for z in lp.support:
        if z not in f_full:
            dz = dist[z]
            f_full[z] = min(fw + dz[w] for w, fw in zip(members, f))
    certificate = tuple((members[a], members[b], mdist[a][b], l) for (a, b), l in rows if l)
    if not _certified(dist, lp, f_full, certificate):
        raise InternalCheckError("optimizer and certificate fail the optimality check")

    table = {k: Fraction(k) for k in set(f_full.values())}
    return CurvatureValue(
        x=x,
        y=y,
        gap=gap,
        value=Fraction(objective, gap),
        optimizer={v: table[f_full[v]] for v in lp.support},
        certificate=certificate,
    )


def _pair_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    a, b = (x, y) if x < y else (y, x)
    key = ("kappa", a, b)
    cv = g.cache.get(key)
    if cv is None:
        cv = solve_lipschitz_lp(g, build_lipschitz_lp(g, a, b))
        g.cache[key] = cv
    return cv if (x, y) == (a, b) else _carry(cv, range(g.n), True)


def _carry(cv: CurvatureValue, sigma, turn: bool) -> CurvatureValue:
    """cv carried by the vertex map sigma; turn exchanges the roles of x and y.

    The optimizer is integral, so the turned values gap - f stay integers;
    each distinct one is built once.
    """
    gap = cv.gap
    if not turn:
        return CurvatureValue(
            sigma[cv.x], sigma[cv.y], gap, cv.value,
            {sigma[v]: f for v, f in cv.optimizer.items()},
            tuple((sigma[u], sigma[v], rhs, l) for (u, v, rhs, l) in cv.certificate),
        )
    turned = {k: Fraction(gap - k) for k in {f.numerator for f in cv.optimizer.values()}}
    return CurvatureValue(
        sigma[cv.y], sigma[cv.x], gap, cv.value,
        {sigma[v]: turned[f.numerator] for v, f in cv.optimizer.items()},
        tuple((sigma[v], sigma[u], rhs, l) for (u, v, rhs, l) in cv.certificate),
    )


def _solve_by_orbits(g: Graph, pairs) -> None:
    """Fill the curvature cache for pairs (x < y), one LP per orbit.

    Computes the reflections first and does nothing on a graph that is not
    reflective; the module docstring describes the search and the replay.
    """
    maps = reflection_maps(g)
    if maps is None:
        return
    cache = g.cache
    at = [[maps[(z, w) if z < w else (w, z)] for w in g.neighbors[z]] for z in range(g.n)]
    for (a, b) in pairs:
        if ("kappa", a, b) in cache:
            continue
        cv = solve_lipschitz_lp(g, build_lipschitz_lp(g, a, b))
        cache["kappa", a, b] = cv
        frontier = [cv]
        while frontier:
            reached = []
            for cv in frontier:
                for z in (cv.x, cv.y):
                    for sigma in at[z]:
                        u, v = sigma[cv.x], sigma[cv.y]
                        turn = u > v
                        if turn:
                            u, v = v, u
                        if ("kappa", u, v) in cache:
                            continue
                        moved = _carry(cv, sigma, turn)
                        if not (0 <= u < v < g.n and verify_optimality_certificate(g, moved)):
                            raise InternalCheckError(
                                f"certificate carried to ({u}, {v}) does not replay")
                        cache["kappa", u, v] = moved
                        reached.append(moved)
            frontier = reached


def edge_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    """Exact curvature of the edge (x, y)."""
    check_vertex(g.n, x)
    check_vertex(g.n, y)
    if x == y:
        raise SameVertexError(x)
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    return _pair_curvature(g, x, y)


def long_range_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    """Exact curvature of an arbitrary vertex pair, scaled by 1/d(x, y)."""
    check_vertex(g.n, x)
    check_vertex(g.n, y)
    if x == y:
        raise SameVertexError(x)
    return _pair_curvature(g, x, y)


def min_edge_curvature(g: Graph) -> MinEdgeCurvature:
    """Minimum edge curvature with constancy information.

    Edges are scanned in lexicographic order; witnesses are the first edge
    attaining the minimum and, when values differ, the first edge attaining
    any other value.  Raises TrivialGraphError on a graph without edges.
    Computes the reflections first, so a reflective graph needs one LP per
    edge orbit.
    """
    if not g.edges:
        raise TrivialGraphError("edge curvature needs at least one edge")
    _solve_by_orbits(g, g.edges)
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


def long_range_curvatures(g: Graph) -> dict:
    """Curvature of every non-adjacent pair x < y, keyed in lexicographic order.

    Computes the reflections first, so a reflective graph needs one LP per
    orbit.
    """
    pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n) if not g.adjacent(x, y)]
    _solve_by_orbits(g, pairs)
    return {(x, y): long_range_curvature(g, x, y) for (x, y) in pairs}


def curvature_from_intersection_array(ia) -> Fraction:
    """Curvature prediction 1 + b0 - b1 from an intersection array."""
    b0 = ia.b[0]
    b1 = ia.b[1] if len(ia.b) > 1 else 0
    return Fraction(1 + b0 - b1)


def _certified(dist, lp: LipschitzLP, f, rows) -> bool:
    """Do the integer point f and the rows prove that f is optimal for lp?

    f gives every support vertex an integer value and rows are
    (u, v, rhs, lam) with integer lam.  Checks the endpoint gap, the
    Lipschitz bound on the support, each row (lam >= 0, rhs = d(u, v),
    tight at f) and stationarity: the objective plus the rows' multipliers
    vanishes at every support vertex but x and y.
    """
    x, y, support = lp.x, lp.y, lp.support
    if f[y] - f[x] != lp.gap or not _is_lipschitz(dist, support, f):
        return False
    gradient = dict(lp.coeffs)
    for (u, v, rhs, l) in rows:
        if l < 0 or rhs != dist[u][v] or f[u] - f[v] != rhs:
            return False
        gradient[u] += l
        gradient[v] -= l
    return not any(gradient[v] for v in support if v != x and v != y)


def verify_optimality_certificate(g: Graph, cv: CurvatureValue) -> bool:
    """Integer-only recheck that cv is optimal for its pair.

    The optimizer and multipliers must be integers, as the solver's always
    are, the optimizer must cover the support exactly and the value must be
    the objective at the optimizer; anything else is rejected.  _certified
    then checks primal feasibility and the dual certificate, which together
    prove optimality without re-solving.
    """
    lp = build_lipschitz_lp(g, cv.x, cv.y)
    support, coeffs = lp.support, lp.coeffs
    f = {}
    for v, val in cv.optimizer.items():
        if getattr(val, "denominator", None) != 1:
            return False
        f[v] = val.numerator
    if f.keys() != set(support):
        return False
    obj = sum(coeffs[v] * f[v] for v in support)
    value = cv.value
    if not isinstance(value, Rational) or obj * value.denominator != value.numerator * lp.gap:
        return False
    rows = []
    for (u, v, rhs, l) in cv.certificate:
        if u not in f or v not in f or getattr(l, "denominator", None) != 1:
            return False
        rows.append((u, v, rhs, l.numerator))
    return _certified(g.dist_rows(), lp, f, rows)


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
    check_vertex(g.n, x)
    check_vertex(g.n, y)
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
