"""Exact Ollivier curvature for the unit-weight graph Laplacian.

The curvature of a vertex pair is the minimum of Delta f(x) - Delta f(y),
scaled by 1/d(x,y), over functions with f(y) - f(x) = d(x,y) that are
1-Lipschitz for the shortest-path metric.  The minimum is taken over the
restriction to B1(x) union B1(y); a 1-Lipschitz function on that support
extends to the whole graph by z -> min_w f(w) + d(z, w) without changing
the objective, so nothing is lost.

The pairwise difference system is totally unimodular, so the optimum is
attained at an integer point and every route below runs in plain integer
arithmetic.  Every pair is answered from a transport plan.  With
d = d(x, y), sources S = N(x) minus N[y] and sinks T = N(y) minus N[x],
the dual rows (y, s, d(y, s), 1) for a lone source and (t, x, d(t, x), 1)
for a lone sink leave every free vertex stationary, and pairing t with s
on the row (t, s, d(t, s), 1) instead gains
w = (d(y, s) - d) + d(t, x) - d(t, s), at most 2 by the triangle
inequality (d(y, s) <= 1 + d(t, s) and d(t, x) <= d + 1).  The optimum is
the lone rows' bound plus the greatest total gain of a matching of sources
to sinks.  The greedy plan (_greedy_plan) matches the pairs of gain 2,
then pairs the leftover sources greedily at gain 1; at d = 1,
w = 3 - d(t, s) and this is the plan of the edge bounds below.  Each row
of a plan has multiplier 1 and each free vertex of nonzero coefficient
lies on one row, so the rows are stationary and a feasible point tight on
them is optimal.  _plan_point reads the least such point off a plan,
raising f = d - d(y, .) along its rows and closing it under the metric,
and _certified, the integer core that verify_optimality_certificate also
runs after its type and shape checks, decides.  Its dual half,
_dual_bound, turns any nonnegative rows that leave every free vertex
stationary into a lower bound on the objective (weak duality).  Where the
greedy plan is refused, _optimal_plan finds a matching of greatest gain
as a k x k assignment, k = max(|S|, |T|), at costs 2 - max(w, 0), by the
Hungarian method, and the same _plan_point answers the pair; a refusal
there is an InternalCheckError.  The greedy plan answers 3,728 of the
3,774 edges of the seed 1-2 analyze-random benchmark inputs and all 2,261
of the standard corpus, and 3,622 of the 3,975 far pairs of the seed-1
inputs (seed 2: 3,636 of 3,975) and 2,812 of the 3,148 of the standard
corpus.  The value is unique; only a pair's optimizer and certificate
depend on the plan that answered it, and every certificate lists its rows
sorted by _order.

min_edge_curvature (for the edges) and long_range_curvatures (for the
non-adjacent pairs) take one route on every graph: reflective.orbit_roots
closes the pairs into orbits under the reflections of the edges at vertex
0, recording for each pair its parent pair, the generator sigma that
reached it and its root, and only an orbit's root is ever solved.  An
automorphism preserves the program, so every pair takes its root's value.
On a graph that is not reflective every pair is its own root and no
record is made.

min_edge_curvature bounds the root edges from below in two tiers, from
one heap keyed (bound, root); neither tier builds a program.  With
S = N(x) minus N[y], T = N(y) minus N[x] and k common neighbours, the
lone rows f(y) - f(s) <= 2 for s in S and f(t) - f(x) <= 2 for t in T
leave every free vertex stationary, and weak duality turns them into
d_y + 1 - |S| - 2|T| = 4 - d_x - d_y + 3k, a triangle-count bound in the
spirit of Jost and Liu (Discrete Comput. Geom. 2014), one popcount on
per-vertex adjacency bitmasks.  Tier 0 (_matching_bound) adds 2 for each
pair of a greedy maximal matching of sources to adjacent sinks, each
source taking its lowest free adjacent sink: any matching is a plan.  A
root popped with its tier-0 key goes back with the greedy transport bound
of _edge_bound (tier 1, equal to the curvature on 3,728 of those 3,774
benchmark edges; its maximum matching has at least the greedy one's
pairs, so tier 0 <= tier 1 <= curvature), and a root popped with its
tier-1 key is solved from the plan of that bound, its program built only
then.  The loop stops at the first popped key at or above the least value
found, so every root left lies at or above the minimum.  A lexicographic
scan over the edges then settles the witnesses: an edge takes its root's
value where the root was solved, counts as another value where the
root's key lies above the minimum, and otherwise (a tied key) its root
is planned and, if the tier-1 bound still ties, solved; the scan stops
once both witnesses are known.  The value and both witnesses are those
of a full scan of the edges; a graph of constant curvature still solves
every root.

A pair's CurvatureValue is built only when it is asked for
(edge_curvature, long_range_curvature, long_range_curvatures): its parent
chain is walked up to a built ancestor, or to the root, which is solved
only then, and the optimizer and certificate are carried down the chain
(v -> sigma(v), turned over where sigma(x) > sigma(y) so that x < y), each
pair cached on the way.  A certificate carried by a proven automorphism is
feasible and optimal by construction, so it is not replayed here; verify's
optimizer_certificates check replays every edge and far-pair certificate
of its corpus.  The value is the program's optimum, so it is unique; the
optimizer and certificate of a pair that is not a root are the carried
ones.  Single-pair requests compute no reflections: before an all-pairs
call or pair_orbit_certificate has recorded orbits they solve their pair
alone, and afterwards a pair the records have not reached closes a new
orbit as its root.  The orbit_roots call that makes the records first
opens the orbits of the pairs solved alone, so each of them roots its
orbit and no other pair of that orbit needs an LP.

The independent oracle below works from the primal side instead: the
curvature is (D+1) - W/d(x, y), with D the larger degree and W the integer
transport cost between the lazy measures of x and y scaled by D+1.  W is
the optimum of a unit-slot assignment on the distance rows, solved by the
integer Hungarian method (_hungarian) that also finds the optimal plan.
Sharing it is safe: a production answer is accepted only by _certified,
an integer primal and dual check, so a fault of the method there is an
InternalCheckError, not a wrong value; and the oracle solves a different
program, on the lazy measures at idleness 1/(D+1), so a fault there shows
as a criterion_08 disagreement.  Its docstring says which pairs the cited
theorem covers.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from numbers import Rational
from operator import index
from typing import NamedTuple

from .errors import (
    InternalCheckError,
    InvalidParameterError,
    SameVertexError,
    TrivialGraphError,
    check_pair,
)
from .graphs import Graph, adjacency_bits, check_edge, max_matching, memo
from .reflective import orbit_roots

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
    check_pair(g.n, x, y)
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


def solve_lipschitz_lp(g: Graph, lp: LipschitzLP, plan=None) -> CurvatureValue:
    """Exact optimum of the curvature program, verified before returning.

    The pair takes the point of its greedy plan where _certified accepts it
    (_plan_point), and otherwise the point of an optimal plan
    (_optimal_plan), which _certified must accept.  plan is the
    _greedy_plan of (lp.x, lp.y) where the caller already has it.
    """
    found = _plan_point(g, lp, plan)
    if found is None:
        found = _plan_point(g, lp, _optimal_plan(g, lp.x, lp.y))
        if found is None:
            raise InternalCheckError("optimizer and certificate fail the optimality check")
    return _curvature_value(lp, *found)


def _plan_point(g: Graph, lp: LipschitzLP, plan=None):
    """The least point of lp tight on the rows of a transport plan, or None.

    plan is (sources, sinks, pairs) as _greedy_plan returns it, by default
    the greedy plan of (lp.x, lp.y).  With d the gap, its rows are
    (t, s, c, 1) for each pair, (y, s, d(y, s), 1) for each source left
    unpaired and (t, x, d(t, x), 1) for each sink left unpaired.  Every
    multiplier is 1 and every free vertex of nonzero coefficient lies on
    exactly one row, so the rows are stationary and a feasible point tight
    on them is optimal.  The point starts from f = d - d(y, .), the least
    1-Lipschitz function with f(y) = d; each row (u, v, rhs, 1) raises f(u)
    to f(v) + rhs, and the metric closes f from below after each raise
    (f(z) >= f(u) - d(u, z)), until every row is tight.  Values only grow
    and never pass a feasible point tight on the rows, so f(y) > d proves
    that there is none: the plan is not optimal, and the loop stops there.
    Otherwise f(z) <= d + d(y, z) bounds the raises.  _certified decides.
    Returns (f, rows sorted by _order) where it accepts.
    """
    x, y, d = lp.x, lp.y, lp.gap
    sources, sinks, pairs = plan or _greedy_plan(g, x, y)
    dist = g.dist_rows()
    dx, dy = dist[x], dist[y]
    rows = [(t, s, c, 1) for t, s, c in pairs]
    for t, s, _ in pairs:
        sources ^= 1 << s
        sinks ^= 1 << t
    for s in g.neighbors[x]:
        if sources >> s & 1:
            rows.append((y, s, dy[s], 1))
    for t in g.neighbors[y]:
        if sinks >> t & 1:
            rows.append((t, x, dx[t], 1))
    support = lp.support
    f = {z: d - dy[z] for z in support}
    raised = True
    while raised:
        raised = False
        for u, v, rhs, _ in rows:
            top = f[v] + rhs
            if top > f[u]:
                du = dist[u]
                if top - du[y] > d:
                    return None
                for z in support:
                    if top - du[z] > f[z]:
                        f[z] = top - du[z]
                raised = True
    if not _certified(dist, lp, f, rows):
        return None
    n = g.n
    rows.sort(key=lambda r: _order(r[0], r[1], n))
    return f, rows


def _curvature_value(lp: LipschitzLP, f, certificate) -> CurvatureValue:
    """The CurvatureValue of lp at its certified integer optimizer f."""
    table = {k: Fraction(k) for k in set(f.values())}
    return CurvatureValue(
        x=lp.x,
        y=lp.y,
        gap=lp.gap,
        value=Fraction(sum(c * f[v] for v, c in lp.coeffs.items()), lp.gap),
        optimizer={v: table[f[v]] for v in lp.support},
        certificate=tuple(certificate),
    )


def _pair_curvature(g: Graph, x: int, y: int, plan=None) -> CurvatureValue:
    """Curvature of (x, y): cached, carried along its orbit records, or solved.

    On a graph with orbit records, a pair they have not reached yet closes
    a new orbit first, as its root.  The pair's parent chain is walked up
    to a built ancestor or to the root, which is solved only then, and the
    certificate is carried down the chain, each pair cached as it is
    built.  On any other graph the pair is solved alone.  A caller that
    has the _greedy_plan of a root (x, y), x < y, passes it as plan.
    """
    a, b = (x, y) if x < y else (y, x)
    cache = g.cache
    cv = cache.get(("kappa", a, b))
    if cv is None:
        reach = {}
        if "orbits" in cache:
            orbit_roots(g, [(a, b)])
            reach = cache["orbits"][1]
        chain, pair = [], (a, b)
        while cv is None and reach.get(pair, (None,))[0] is not None:
            chain.append(pair)
            pair = reach[pair][0]
            cv = cache.get(("kappa",) + pair)
        if cv is None:  # a root, or a pair of a graph without orbit records
            lp = build_lipschitz_lp(g, *pair)
            cv = cache[("kappa",) + pair] = solve_lipschitz_lp(g, lp, plan)
        for pair in reversed(chain):
            sigma = reach[pair][1]
            cv = cache[("kappa",) + pair] = _carry(cv, sigma, sigma[cv.x] > sigma[cv.y])
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


def edge_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    """Exact curvature of the edge (x, y)."""
    check_pair(g.n, x, y)
    check_edge(g, x, y)
    return _pair_curvature(g, x, y)


def long_range_curvature(g: Graph, x: int, y: int) -> CurvatureValue:
    """Exact curvature of an arbitrary vertex pair, scaled by 1/d(x, y)."""
    check_pair(g.n, x, y)
    return _pair_curvature(g, x, y)


def _greedy_plan(g: Graph, x: int, y: int):
    """The greedy transport plan of the pair (x, y), on adjacency bitmasks.

    Returns (sources, sinks, plan): the bitmasks of the sources
    S = N(x) minus N[y], the support vertices of coefficient +1, and of
    the sinks T = N(y) minus N[x], those of -1, and the pairs (t, s, c) of
    a sink t and a source s with the distance c that their step claims:
    with d = d(x, y) and w the pair's gain (the module docstring),
    c = d(y, s) - d + d(t, x) - w.  A maximum matching pairs sources with
    sinks at w = 2 (graphs.max_matching, on per-source bitmasks of those
    sinks; at d = 1 they are the adjacent ones), and each source left over,
    in increasing order, takes the first sink still free at w = 1.
    """
    x, y = index(x), index(y)  # numpy labels would turn the bitmasks into numpy integers
    adj = adjacency_bits(g)
    sources = adj[x] & ~adj[y] & ~(1 << y)
    sinks = adj[y] & ~adj[x] & ~(1 << x)
    if not sources or not sinks:
        return sources, sinks, []
    dist = g.dist_rows()
    dx, dy = dist[x], dist[y]
    d = dx[y]
    # loops, not comprehensions: in CPython 3.11 a comprehension would make
    # dist, dx, dy and d cell variables and slow every edge bound by a tenth
    near = adj  # at d = 1 the sinks at w = 2 are the adjacent ones
    if d > 1:
        near = {}
        for s in g.neighbors[x]:
            if sources >> s & 1:
                ds, want, mask = dist[s], dy[s] - d - 2, 0
                for t in g.neighbors[y]:
                    if sinks >> t & 1 and ds[t] == want + dx[t]:
                        mask |= 1 << t
                near[s] = mask
    owner = max_matching(near, sources, sinks)  # sink -> the source paired with it
    plan = []
    open_sinks, left = sinks, sources
    for t, s in owner.items():
        plan.append((t, s, dy[s] + dx[t] - d - 2))
        open_sinks ^= 1 << t
        left ^= 1 << s
    while left:
        bit = left & -left
        left ^= bit
        s = bit.bit_length() - 1
        ds, want = dist[s], dy[s] - d - 1
        free = open_sinks
        while free:
            bit = free & -free
            free ^= bit
            t = bit.bit_length() - 1
            if ds[t] == want + dx[t]:
                plan.append((t, s, want + dx[t]))
                open_sinks ^= bit
                break
    return sources, sinks, plan


def _optimal_plan(g: Graph, x: int, y: int):
    """A transport plan of greatest total gain for the pair (x, y).

    Returns (sources, sinks, pairs) as _greedy_plan does.  The sources,
    padded to k = max(|S|, |T|) rows, are assigned to the sinks, padded to
    k columns, by the Hungarian method (_hungarian) at cost 2 - max(w, 0),
    with w a pair's gain (the module docstring), and 2 on the padding: the
    least cost is 2k less the greatest total gain.  The pairs of positive
    gain form the plan.
    """
    x, y = index(x), index(y)
    adj = adjacency_bits(g)
    sources = adj[x] & ~adj[y] & ~(1 << y)
    sinks = adj[y] & ~adj[x] & ~(1 << x)
    dist = g.dist_rows()
    dx, dy = dist[x], dist[y]
    d = dx[y]
    ss = [s for s in g.neighbors[x] if sources >> s & 1]
    ts = [t for t in g.neighbors[y] if sinks >> t & 1]
    k = max(len(ss), len(ts))
    cost = [[2 - max(dy[s] - d + dx[t] - dist[s][t], 0) for t in ts] + [2] * (k - len(ts))
            for s in ss]
    cost += [[2] * k] * (k - len(ss))
    owner = _hungarian(cost)[1]
    plan = [(t, ss[i], dist[t][ss[i]]) for j, (t, i) in enumerate(zip(ts, owner))
            if cost[i][j] < 2]
    return sources, sinks, plan


def _edge_bound(g: Graph, x: int, y: int, plan=None) -> int:
    """Tier-1 lower bound on the curvature of the edge (x, y), certified.

    Builds no program: _greedy_plan reads the per-vertex bitmasks of
    adjacency_bits.  With every source and sink alone the dual rows give
    the triangle bound d_y + 1 - |S| - 2|T| (the module docstring), and
    each pair (t, s) of the plan at distance d adds 3 - d to it.  So it is
    at least _matching_bound, the tier-0 bound, whose greedy matching of
    sources to adjacent sinks has at most as many pairs as the plan's
    maximum matching.  The plan check replaces _dual_bound here: each
    pair's distance, read from the distance rows, is the one its step
    claims (1 or 2), its ends lie in T and S, and no source or sink is used
    twice, so every free vertex stays stationary; any failure is an
    InternalCheckError.  plan is the _greedy_plan of (x, y) where the
    caller already has it.
    """
    sources, sinks, plan = plan or _greedy_plan(g, x, y)
    bound = len(g.neighbors[y]) + 1 - sources.bit_count() - 2 * sinks.bit_count()
    dist = g.dist_rows()
    used = 0  # the sources and sinks paired so far
    for t, s, d in plan:
        ends = 1 << t | 1 << s
        if (dist[t][s] != d or not sinks >> t & 1 or not sources >> s & 1
                or used & ends):
            raise InternalCheckError(f"edge bound rows of ({x}, {y}) fail the plan check")
        used |= ends
        bound += 3 - d
    return bound


def _matching_bound(g: Graph, x: int, y: int) -> int:
    """Tier-0 lower bound on the curvature of the edge (x, y), certified.

    The triangle bound 4 - d_x - d_y + 3k (the module docstring) plus 2 for
    each pair of a greedy maximal matching of sources to adjacent sinks:
    each source, in increasing order, takes its lowest adjacent sink still
    free, with no augmenting path.  Any matching is a plan, so this is a
    weak-duality bound, at most _edge_bound, whose maximum matching has at
    least as many pairs.  One bitmask step per source on adjacency_bits;
    each pair's distance is read from the distance rows and must be 1, or
    the pair is refused with an InternalCheckError.
    """
    adj = adjacency_bits(g)
    ax, ay = adj[x], adj[y]
    bound = 4 - ax.bit_count() - ay.bit_count() + 3 * (ax & ay).bit_count()
    sources = ax & ~ay & ~(1 << y)
    free = ay & ~ax & ~(1 << x)
    dist = g.dist_rows()
    while sources and free:
        bit = sources & -sources
        sources ^= bit
        s = bit.bit_length() - 1
        near = adj[s] & free
        if near:
            bit = near & -near
            free ^= bit
            t = bit.bit_length() - 1
            if dist[t][s] != 1:
                raise InternalCheckError(
                    f"edge bound of ({x}, {y}) pairs source {s} with sink {t}, not adjacent")
            bound += 2
    return bound


@memo("min_edge")
def min_edge_curvature(g: Graph) -> MinEdgeCurvature:
    """Minimum edge curvature with constancy information, cached.

    Witnesses are the first edge in lexicographic order attaining the
    minimum and, when values differ, the first edge attaining any other
    value.  Raises TrivialGraphError on a graph without edges.  The module
    docstring describes the route: bound-first over the edge orbits' roots,
    every edge its own root on a graph that is not reflective, then a
    lexicographic scan for the witnesses that solves a root tied with the
    minimum only while a witness is still unknown.
    """
    if not g.edges:
        raise TrivialGraphError("edge curvature needs at least one edge")
    edges = g.edges
    roots = orbit_roots(g, edges)[0]
    # heap entries (bound, root, plan): the matching bound with no plan,
    # then the greedy bound with the plan that the solve reuses; neither
    # builds a program
    heap = [(_matching_bound(g, *root), root, None) for root in dict.fromkeys(roots)]
    heapify(heap)
    solved = {}
    best = None
    while heap:
        bound, root, plan = heap[0]
        if best is not None and bound >= best:
            break
        if plan is None:
            plan = _greedy_plan(g, *root)
            heapreplace(heap, (_edge_bound(g, *root, plan), root, plan))
        else:
            heappop(heap)
            value = solved[root] = _pair_curvature(g, *root, plan).value
            best = value if best is None else min(best, value)
    # every root left has a bound, so a value, at least the minimum; the
    # scan settles a tied one only while a witness is unknown
    left = {root: (bound, plan) for bound, root, plan in heap}
    min_edge = other = None
    for edge, root in zip(edges, roots):
        value = solved.get(root)
        if value is None:
            bound, plan = left[root]
            if bound == best and plan is None:
                plan = _greedy_plan(g, *root)
                bound = _edge_bound(g, *root, plan)
                left[root] = (bound, plan)
            if bound == best:
                value = solved[root] = _pair_curvature(g, *root, plan).value
        if value == best:
            if min_edge is None:
                min_edge = edge
        elif other is None:
            other = edge
        if min_edge is not None and other is not None:
            break
    return MinEdgeCurvature(best, other is None, min_edge, other)


def long_range_curvatures(g: Graph) -> dict:
    """Curvature of every non-adjacent pair x < y, keyed in lexicographic order.

    Closes the orbits first, so a reflective graph needs one LP per orbit.
    """
    pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n) if not g.adjacent(x, y)]
    orbit_roots(g, pairs)
    return {(x, y): long_range_curvature(g, x, y) for (x, y) in pairs}


def curvature_from_intersection_array(ia) -> Fraction:
    """Curvature prediction 1 + b0 - b1 from an intersection array."""
    b0 = ia.b[0]
    b1 = ia.b[1] if len(ia.b) > 1 else 0
    return Fraction(1 + b0 - b1)


def _dual_bound(dist, lp: LipschitzLP, rows):
    """The lower bound that rows prove on lp's objective, or None.

    rows are (u, v, rhs, lam) on support vertices, read as
    f(u) - f(v) <= rhs with integer multiplier lam.  Each row needs
    lam >= 0 and rhs = d(u, v), and the objective plus the rows'
    multipliers must vanish at every support vertex but x and y
    (stationarity).  Weak duality then bounds the objective at every
    feasible point by g_y * gap - sum(lam * rhs), with g_y that sum at y.
    """
    x, y = lp.x, lp.y
    gradient = dict(lp.coeffs)  # keyed by the support
    paid = 0
    for (u, v, rhs, l) in rows:
        if l < 0 or rhs != dist[u][v]:
            return None
        gradient[u] += l
        gradient[v] -= l
        paid += l * rhs
    g_y = gradient[y]
    gradient[x] = gradient[y] = 0
    if any(gradient.values()):
        return None
    return g_y * lp.gap - paid


def _certified(dist, lp: LipschitzLP, f, rows) -> bool:
    """Do the integer point f and the rows prove that f is optimal for lp?

    f gives every support vertex an integer value and rows are
    (u, v, rhs, lam) with integer lam.  Checks the endpoint gap, the
    Lipschitz bound on the support, that each row is tight at f and that
    _dual_bound accepts the rows; a dual bound met with equality by the
    tight rows is the objective at f.
    """
    if f[lp.y] - f[lp.x] != lp.gap or not _is_lipschitz(dist, lp.support, f):
        return False
    if any(f[u] - f[v] != rhs for (u, v, rhs, _) in rows):
        return False
    return _dual_bound(dist, lp, rows) is not None


def verify_optimality_certificate(g: Graph, cv: CurvatureValue) -> bool:
    """Integer-only recheck that cv is optimal for its pair.

    The optimizer and multipliers must be integers, as the solver's always
    are, the optimizer must cover the support exactly, keyed by integer
    vertices, the value must be the objective at the optimizer, and every
    certificate row must hold four entries, its ends integers; anything
    else is rejected, a pair whose ends coincide, lie outside the graph or
    are not integers included.  _certified then checks primal feasibility
    and the dual certificate, which together prove optimality without
    re-solving.
    """
    try:
        lp = build_lipschitz_lp(g, cv.x, cv.y)
    except (InvalidParameterError, SameVertexError):
        return False
    support, coeffs = lp.support, lp.coeffs
    f = {}
    for v, val in cv.optimizer.items():
        try:
            v = index(v)
        except TypeError:
            return False
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
    for row in cv.certificate:
        try:
            u, v, rhs, l = row
            u, v = index(u), index(v)
        except (TypeError, ValueError):
            return False
        if u not in f or v not in f or getattr(l, "denominator", None) != 1:
            return False
        rows.append((u, v, rhs, l.numerator))
    return _certified(g.dist_rows(), lp, f, rows)


# --- independent oracle: optimal transport between the lazy measures ---

def min_assignment_cost(cost) -> int:
    """Least total cost of a perfect assignment in a square integer matrix."""
    return _hungarian(cost)[0]


def _hungarian(cost):
    """Least total cost of a perfect assignment in a square integer matrix,
    and the row assigned to each column (from 0).

    The Hungarian method with potentials (Kuhn-Munkres, O(k^3) for k rows),
    in plain integers: rows join one at a time, each along a shortest
    augmenting path in the reduced costs c - u - v, which stay nonnegative.
    The row potentials only grow from 0 and the column potentials only
    shrink from 0, never below minus the optimum, so no reduced cost
    exceeds (k + 1) * max(c) and that bound plus one serves as infinity.
    """
    k = len(cost)
    if k == 0:
        return 0, []
    inf = (k + 1) * max(max(row) for row in cost) + 1
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    owner = [0] * (k + 1)  # owner[j]: the row (from 1) assigned to column j
    for i in range(1, k + 1):
        owner[0] = i
        j0 = 0
        way = [0] * (k + 1)
        low = [inf] * (k + 1)
        used = [False] * (k + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < low[j]:
                        low[j], way[j] = cur, j0
                    if low[j] < delta:
                        delta, j1 = low[j], j
            for j in range(k + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    low[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return -v[0], [i - 1 for i in owner[1:]]


def brute_force_curvature_oracle(g: Graph, x: int, y: int) -> Fraction:
    """Exact curvature of the pair (x, y) from optimal transport.

    The name outlives the enumeration of integer points it once ran and
    must stay: ``perfbench/tracing.py`` wraps this module's binding by name
    for ``ollivier.oracle_s`` and ``ollivier.oracle_calls``.

    With D = max(deg x, deg y) and eps = 1/(D+1), the lazy measure
    m_x = delta_x + eps * Delta(x, .) of the unit-weight Laplacian, scaled
    by D+1, puts D+1-deg x units on x and one unit on each neighbor of x.
    Then kappa(x, y) = (D+1) - W / d(x, y), where W is the integer
    Wasserstein-1 cost between the scaled measures of x and y: the limit
    formula of Munch and Wojciechowski (Adv. Math. 2019) for non-normalized
    Laplacians, taken at eps = 1/(D+1) by the idleness linearity of Bourne,
    Cushing, Liu, Munch and Peyerimhoff (SIAM J. Discrete Math. 2018).
    That linearity is stated for adjacent x ~ y, so only edges rest on the
    theorem; criterion_08 checks edges alone, and the tests compare the
    formula with the LP on non-adjacent pairs as well.

    W depends only on m_x - m_y, so the shared mass cancels first; the rest
    is split into unit slots and W is the least cost of assigning the
    slots of x's side to those of y's on the distance rows
    (min_assignment_cost).  Its Hungarian method also finds the production
    route's optimal plan (_optimal_plan).  That is safe: a production answer
    is accepted only by _certified, and this formula solves a different
    program (the lazy measures at idleness 1/(D+1)), so a fault of the
    shared method shows as a criterion_08 disagreement, not as an agreeing
    pair of wrong values.  No Fraction is built before the final division.
    """
    check_pair(g.n, x, y)
    dist = g.dist_rows()
    top = max(g.degree(x), g.degree(y)) + 1
    mass = dict.fromkeys(g.neighbors[x], 1)
    mass[x] = top - g.degree(x)
    for w in g.neighbors[y]:
        mass[w] = mass.get(w, 0) - 1
    mass[y] = mass.get(y, 0) - (top - g.degree(y))
    sources = [v for v, m in mass.items() for _ in range(m)]
    sinks = [v for v, m in mass.items() for _ in range(-m)]
    cost = [[dist[s][t] for t in sinks] for s in sources]
    return top - Fraction(min_assignment_cost(cost), dist[x][y])

