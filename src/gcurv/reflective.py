"""Edge reflections, the parallel relation, and structural rigidity checks.

An edge (x, y) splits the vertex set into the side nearer x, the side
nearer y, and the equidistant middle.  A reflection for the edge is an
involutive automorphism swapping x and y, fixing the middle pointwise,
whose swap pairs are exactly the edges running between the two sides.
That last condition forces the map: each side vertex must have a unique
cross neighbor, so the only possible candidate can be constructed
directly, with no automorphism search.  The construction guarantees every
axiom but one, so a candidate is accepted when it is an automorphism;
verify's reflection_axioms check is the independent test of all five.

Two directed edges are parallel when the second's tail lies on the first
tail's side and its head on the head's side.  On graphs where every edge
has a reflection this relation is an equivalence, parallel edges induce
identical distance gradients, and a representative can be found inside
any unit ball by walking reflections along a geodesic.

Because parallel edges share their sides, a sharp graph has far fewer
side classes than directed edges (Gosset: 126 classes, 1,512 directed
edges).  The reflection search depends on nothing but the graph and the
two sides, so it is memoized per side partition.  side_classes indexes the
directed edges by their sides, and the checks in verify that read only an
edge's sides run once per class from that index: the matching structure,
the side structure (vxy_convex_reflective_check: the side is convex and
reflective as a subgraph) and the gradient identity of parallel edges.

The rigidity proof also needs every unit sphere, and every cap of a sphere
away from a far vertex, to be isometric.  Those conditions read no side,
so sphere_isometry_witness checks them once per graph.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    InternalCheckError,
    InvalidParameterError,
    NotAdjacentError,
    NotParallelError,
    NotReflectiveError,
)
from .graphs import (
    Graph,
    induced_subgraph,
    is_convex_subset,
    is_isometric_subset,
    is_locally_connected,
    side_partition,
    sphere,
)


@dataclass(frozen=True)
class Reflection:
    """Certified reflection: mapping in one-line notation plus its edge."""

    mapping: tuple
    edge: tuple

    def apply(self, v: int) -> int:
        return self.mapping[v]

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.mapping)


class CandidateOutcome(NamedTuple):
    reflection: Reflection | None
    violator: int | None  # side vertex without a unique cross neighbor


class ReflectionSearch(NamedTuple):
    reflection: Reflection | None
    failed_axiom: str | None
    witness: object | None


class ReflectiveVerdict(NamedTuple):
    reflective: bool
    counterexample: tuple | None


class MatchingVerdict(NamedTuple):
    ok: bool
    note: str | None


def candidate_reflection(g: Graph, x: int, y: int) -> CandidateOutcome:
    """The unique possible reflection for (x, y), unvalidated.

    Each vertex on x's side must have exactly one neighbor on y's side;
    those pairs are the swaps, the middle stays fixed.  If some side
    vertex breaks the unique-neighbor rule, or the pairing is not
    mutual, no candidate exists and the violator is reported.
    """
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    sp = side_partition(g, x, y)
    sx_set = frozenset(sp.side_x)
    sy_set = frozenset(sp.side_y)
    fwd = {}
    for xp in sp.side_x:
        cross = [w for w in g.neighbors[xp] if w in sy_set]
        if len(cross) != 1:
            return CandidateOutcome(None, xp)
        fwd[xp] = cross[0]
    bwd = {}
    for yp in sp.side_y:
        cross = [w for w in g.neighbors[yp] if w in sx_set]
        if len(cross) != 1:
            return CandidateOutcome(None, yp)
        bwd[yp] = cross[0]
    for xp, yp in fwd.items():
        if bwd[yp] != xp:
            return CandidateOutcome(None, xp)
    for yp, xp in bwd.items():
        if fwd[xp] != yp:
            return CandidateOutcome(None, yp)
    mapping = list(range(g.n))
    for xp, yp in fwd.items():
        mapping[xp] = yp
        mapping[yp] = xp
    return CandidateOutcome(Reflection(tuple(mapping), (x, y)), None)


def _automorphism_witness(g: Graph, mapping):
    """First pair (u, v), u < v, whose adjacency the permutation changes, or None.

    A permutation sending every edge onto an edge is an automorphism (it
    maps the m edges injectively into themselves).  An edge whose two ends
    are both fixed maps to itself, so only the edges at moved vertices are
    tested; that settles the common case.  Only when it fails does the
    O(n^2) pair scan run, to report the lexicographically first pair.
    """
    nbr = g._nbr_sets
    moved = [v for v in range(g.n) if mapping[v] != v]
    if all(mapping[w] in nbr[mapping[u]] for u in moved for w in nbr[u]):
        return None
    for u in range(g.n):
        pu = mapping[u]
        for v in range(u + 1, g.n):
            if g.adjacent(u, v) != g.adjacent(pu, mapping[v]):
                return (u, v)
    return None


def find_reflection(g: Graph, x: int, y: int) -> ReflectionSearch:
    """Construct the forced candidate and certify that it is an automorphism.

    A built candidate already satisfies the other four axioms in both
    orientations: fwd and bwd are inverse bijections (an involution), y is
    x's unique cross neighbor (the ends swap), the swaps are exactly the
    cross edges and the middle stays fixed.  So failed_axiom is
    "cross-edges" (no candidate; the witness is the violator) or
    "automorphism" (the witness is the first pair whose adjacency the
    mapping changes).  The search runs on (a, b) = (min, max) and is
    memoized per side partition, since the candidate and both witnesses
    depend only on the two sides.  A built candidate is symmetric in the
    sides, so the reversed partition (the edge read as (b, a)) builds the
    same mapping and shares the outcome (Q 6: 6 searches for 192 edges;
    Gosset: 63 for 756).  A failed candidate is stored for its own
    orientation only, because its violator depends on which side is
    scanned first.
    """
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    a, b = (x, y) if x < y else (y, x)
    key = ("refl", a, b)
    hit = g.cache.get(key)
    if hit is None:
        sp = side_partition(g, a, b)
        sides = ("refl_sides", sp.side_x, sp.side_y)
        hit = g.cache.get(sides)
        if hit is None:
            cand = candidate_reflection(g, a, b)
            if cand.reflection is None:
                hit = (None, "cross-edges", cand.violator)
            else:
                mapping = cand.reflection.mapping
                pair = _automorphism_witness(g, mapping)
                hit = (mapping, None, None) if pair is None else (None, "automorphism", pair)
                g.cache["refl_sides", sp.side_y, sp.side_x] = hit
            g.cache[sides] = hit
        g.cache[key] = hit
    mapping, axiom, witness = hit
    if mapping is None:
        return ReflectionSearch(None, axiom, witness)
    return ReflectionSearch(Reflection(mapping, (x, y)), None, None)


def is_reflective(g: Graph) -> ReflectiveVerdict:
    """True iff every edge admits a reflection; first failing edge otherwise.

    One orientation per edge is enough: a reflection for (x, y) is one for
    (y, x), and find_reflection shares the search between them.
    """
    key = "reflective"
    hit = g.cache.get(key)
    if hit is not None:
        return hit
    verdict = ReflectiveVerdict(True, None)
    for (u, v) in g.edges:
        if find_reflection(g, u, v).reflection is None:
            verdict = ReflectiveVerdict(False, (u, v))
            break
    g.cache[key] = verdict
    return verdict


def side_classes(g: Graph) -> dict:
    """(side_x, side_y) -> the directed edges with those sides, cached.

    Edges keep g.edges order, (x, y) before (y, x).  find_reflection never
    builds the index: a graph that is not reflective usually fails at its
    first edge.
    """
    hit = g.cache.get("side_classes")
    if hit is None:
        hit = {}
        for (x, y) in g.edges:
            for e in ((x, y), (y, x)):
                sp = side_partition(g, *e)
                hit.setdefault((sp.side_x, sp.side_y), []).append(e)
        g.cache["side_classes"] = hit
    return hit


def reflection_maps(g: Graph):
    """Edge -> reflection mapping when g is reflective, else None.

    Computes the is_reflective verdict when it is not cached yet.
    """
    if not is_reflective(g).reflective:
        return None
    return {e: g.cache[("refl",) + e][0] for e in g.edges}


def _reflection_map(g: Graph, x: int, y: int):
    found = find_reflection(g, x, y)
    if found.reflection is None:
        raise NotReflectiveError((x, y))
    return found.reflection.mapping


def are_parallel(g: Graph, e1, e2) -> bool:
    """Ordered relation: e2's tail on e1's tail side, head on head side."""
    x, y = e1
    xp, yp = e2
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    if not g.adjacent(xp, yp):
        raise NotAdjacentError(xp, yp)
    dist = g.dist_rows()
    return dist[xp][x] < dist[xp][y] and dist[yp][y] < dist[yp][x]


def parallel_gradient_identity(g: Graph, e1, e2) -> bool:
    """Parallel edges see the same distance gradient and the same sides."""
    if not are_parallel(g, e1, e2):
        raise NotParallelError(e1, e2)
    x, y = e1
    xp, yp = e2
    dist = g.dist_rows()
    dx, dy, dxp, dyp = dist[x], dist[y], dist[xp], dist[yp]
    for z in range(g.n):
        if dx[z] - dy[z] != dxp[z] - dyp[z]:
            return False
    s1 = side_partition(g, x, y)
    s2 = side_partition(g, xp, yp)
    return s1.side_x == s2.side_x and s1.side_y == s2.side_y


def parallel_in_ball(g: Graph, e, z: int):
    """A parallel representative of e with both ends within distance 1 of z.

    Walks toward z: when z sits strictly on one side, the reflection swap
    pair at z is the answer.  When z is equidistant, step to a neighbor p
    of z one closer to the tail; either p is already strictly on the tail
    side (its swap partner closes the edge), or reflecting the edge
    through (p, z) gives a parallel edge strictly nearer z and the walk
    repeats.
    """
    verdict = is_reflective(g)
    if not verdict.reflective:
        raise NotReflectiveError(verdict.counterexample)
    x, y = e
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    dist = g.dist_rows()
    cx, cy = x, y
    result = None
    while result is None:
        dzx = dist[z][cx]
        dzy = dist[z][cy]
        if dzx <= 1 and dzy <= 1:
            result = (cx, cy)
        elif dzx < dzy:
            result = (z, _reflection_map(g, cx, cy)[z])
        elif dzy < dzx:
            result = (_reflection_map(g, cx, cy)[z], z)
        else:
            p = min(w for w in g.neighbors[z] if dist[w][cx] == dzx - 1)
            if dist[p][cy] == dzx - 1:
                x1 = _reflection_map(g, p, z)[cx]
                if dist[x1][cx] >= dist[x1][cy] or dist[x1][z] != dzx - 1:
                    raise InternalCheckError("reflected tail did not move toward z")
                cx, cy = x1, _reflection_map(g, cx, cy)[x1]
            else:
                result = (p, _reflection_map(g, cx, cy)[p])
    rx, ry = result
    if dist[z][rx] > 1 or dist[z][ry] > 1 or not are_parallel(g, (x, y), result):
        raise InternalCheckError(f"ball representative for {e} at {z} is invalid")
    return result


def pair_orbit_certificate(g: Graph) -> bool:
    """Do the edge reflections act transitively on each distance class?

    Breadth-first closure of ordered vertex pairs under the distinct edge
    reflections, one seed per distance; certifies distance transitivity
    of the generated group when every class is a single orbit.
    """
    verdict = is_reflective(g)
    if not verdict.reflective:
        raise NotReflectiveError(verdict.counterexample)
    connected, witness = is_locally_connected(g)
    if not connected:
        raise InvalidParameterError(
            f"certificate needs connected punctured neighborhoods (vertex {witness})"
        )
    n = g.n
    dist = g.dist_rows()
    gens = list(dict.fromkeys(reflection_maps(g).values()))
    class_size = {}
    for u in range(n):
        for v in range(n):
            class_size[dist[u][v]] = class_size.get(dist[u][v], 0) + 1
    for k in sorted(class_size):
        seed = next(
            (u, v) for u in range(n) for v in range(n) if dist[u][v] == k
        )
        visited = bytearray(n * n)
        visited[seed[0] * n + seed[1]] = 1
        frontier = [seed]
        reached = 1
        while frontier:
            nxt = []
            for (u, v) in frontier:
                for mp in gens:
                    iu, iv = mp[u], mp[v]
                    slot = iu * n + iv
                    if not visited[slot]:
                        if dist[iu][iv] != k:
                            raise InternalCheckError("orbit left its distance class")
                        visited[slot] = 1
                        reached += 1
                        nxt.append((iu, iv))
            frontier = nxt
        if reached != class_size[k]:
            return False
    return True


def matching_structure_check(g: Graph, x: int, y: int, K) -> MatchingVerdict:
    """Each tail-side vertex: one cross neighbor and K-2 middle neighbors."""
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    K = Fraction(K)
    if K.denominator != 1 or K < 2:
        return MatchingVerdict(False, f"constant {K} is not an integer >= 2")
    want_mid = int(K) - 2
    sp = side_partition(g, x, y)
    sy_set = frozenset(sp.side_y)
    mid_set = frozenset(sp.middle)
    for xp in sp.side_x:
        cross = sum(1 for w in g.neighbors[xp] if w in sy_set)
        mid = sum(1 for w in g.neighbors[xp] if w in mid_set)
        if cross != 1 or mid != want_mid:
            return MatchingVerdict(
                False, f"vertex {xp}: {cross} cross, {mid} middle neighbors"
            )
    return MatchingVerdict(True, None)


def distance_eigenfunction_check(g: Graph, x: int, K) -> bool:
    """Does the distance function from x satisfy the exact Laplacian identity?

    Checks sum over neighbors of the distance increments against
    deg(x) - K * d(x, v) in rational arithmetic at every vertex.
    """
    K = Fraction(K)
    dist = g.dist_rows()
    dx = dist[x]
    deg_x = g.degree(x)
    for v in range(g.n):
        lap = sum(dx[w] - dx[v] for w in g.neighbors[v])
        if Fraction(lap) != deg_x - K * dx[v]:
            return False
    return True


def triangle_matching_check(g: Graph, x: int, y: int) -> bool:
    """Triangle count at the edge is at least the curvature minus two.

    At equality the exclusive neighborhoods must additionally admit a
    perfect matching along graph edges: an assignment of cost 0 when each
    graph edge costs 0 and each other pair 1.
    """
    from .ollivier import edge_curvature, min_assignment_cost

    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    kappa = edge_curvature(g, x, y).value
    common = sum(1 for w in g.neighbors[x] if g.adjacent(w, y))
    if Fraction(common) < kappa - 2:
        return False
    if Fraction(common) == kappa - 2:
        bx = g._nbr_sets[x] | {x}
        by = g._nbr_sets[y] | {y}
        left = [w for w in g.neighbors[x] if w not in by]
        right = [w for w in g.neighbors[y] if w not in bx]
        if len(left) != len(right):
            return False
        cost = [[0 if g.adjacent(a, b) else 1 for b in right] for a in left]
        if min_assignment_cost(cost):
            return False
    return True


def sphere_isometry_witness(g: Graph):
    """First vertex whose unit sphere or one of its caps is not isometric.

    The cap of v away from w holds the neighbors of v one step farther from
    w than v.  Returns None when every sphere and every cap of at least two
    vertices is isometric, else (v, None) for a sphere and (v, w) for a cap.
    """
    dist = g.dist_rows()
    for v in range(g.n):
        if not is_isometric_subset(g, sphere(g, v, 1)):
            return (v, None)
        for w in range(g.n):
            if w == v:
                continue
            far = dist[v][w] + 1
            cap = [u for u in g.neighbors[v] if dist[u][w] == far]
            if len(cap) >= 2 and not is_isometric_subset(g, cap):
                return (v, w)
    return None


def vxy_convex_reflective_check(g: Graph, x: int, y: int) -> bool:
    """Side of an edge: convex, and reflective as an induced subgraph.

    The verdict depends only on the graph and the side's vertex set, so one
    member of each side class (side_classes) stands for the whole class.
    """
    verdict = is_reflective(g)
    if not verdict.reflective:
        raise NotReflectiveError(verdict.counterexample)
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)
    side = side_partition(g, x, y).side_x
    if not is_convex_subset(g, side):
        return False
    sub, _ = induced_subgraph(g, side)
    return is_reflective(sub).reflective
