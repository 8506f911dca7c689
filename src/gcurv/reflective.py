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
has a reflection this relation is equality of sides, so it is an
equivalence.  For an edge (x, y), d(., x) - d(., y) is -1 on x's side, 0 on
the middle and +1 on y's side, so edges with equal sides induce the same
distance gradient.  Every unit ball holds a parallel copy of every edge:
for each side class, every vertex z lies in N[u] and N[v] for some member
(u, v) (uncovered_vertex).

Because parallel edges share their sides, a sharp graph has far fewer
side classes than directed edges (Gosset: 126 classes, 1,512 directed
edges).  side_classes indexes the directed edges by their sides, and the
checks in verify that read only an edge's sides run once per class from
that index: the reflection axioms, the matching structure, the side
structure (vxy_convex_reflective_check: the side is convex and reflective
as a subgraph) and the unit-ball cover of parallel edges.  The reflection
search itself is memoized per edge; its production callers search only
the edges at vertex 0 (below).

Vertex 0 speaks for every graph, since every Graph is connected.  For any
automorphism t, the conjugate t s t^-1 of the reflection s of (x, y) meets
every axiom for (t x, t y), so it is the reflection of that edge, the only
one.  Let every edge at w have a reflection and let s be that of (w, z): s
maps w's edges onto z's, so conjugating by s gives every edge at z a
reflection.  Along the paths from vertex 0, every edge has a reflection as
soon as the edges at vertex 0 do.  The same conjugation shows that the
reflections at vertex 0 generate all the others: their group moves 0 onto
each neighbor, so it holds the reflections at each neighbor, and so on
outward; it is vertex-transitive.  So is_reflective searches only the
edges at vertex 0; reflection_generators returns their reflections, the
one generating set, and orbit_roots (below) is the one place that closes
pairs under them.  On a reflective graph spectral.is_distance_regular
reads vertex 0's row alone, sphere_isometry_witness vertex 0's sphere and
caps, and bakry_emery.be_effective_bound_report vertex 0's forms.
verify's reflection_axioms check still finds and checks the reflection of
every side class of its corpus.

orbit_roots closes vertex pairs x < y into orbits of the group the
generators make; the Ollivier curvature records (ollivier) and
pair_orbit_certificate both read it.  Pairs are taken in the order given,
and the first one not yet reached is its orbit's root.  The call that
makes the records takes first the pairs whose curvature lone requests
have already cached (ollivier solves a pair alone only while no record
exists), so a solved pair roots its orbit and no other pair of that
orbit needs an LP.  A breadth-first
search maps each reached pair through every generator and records each
new image as (parent pair, sigma, side, root), with side 1 when the chain
of generators from the root reaches the pair turned over.  An image
reached a second time with the other side shows two group elements that
differ by a swap of the root's ends, so the root joins the reversible
roots.  When every image agrees, the sides pick one order of each pair,
a set that every generator keeps and so, the group being finite, every
element: nothing swaps the ends.  So the group is transitive on the
ordered pairs at each positive distance exactly when each distance class
has one root and that root is reversible, which is what
pair_orbit_certificate tests.  Distance 0 needs no test: one reversible
edge orbit makes the group transitive on directed edges, and every vertex
of a connected graph with an edge is the tail of one.  The records stay
on the graph, so whichever of the certificate and the curvature calls
comes first closes the orbits for the other.

The rigidity proof also needs every unit sphere, and every cap of a sphere
away from a far vertex, to be isometric.  Those conditions read no side,
so sphere_isometry_witness checks them once per graph.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import (
    InternalCheckError,
    InvalidParameterError,
    NotReflectiveError,
    check_vertex,
)
from .graphs import (
    Graph,
    adjacency_bits,
    check_edge,
    induced_subgraph,
    is_convex_subset,
    is_isometric_subset,
    is_locally_connected,
    max_matching,
    memo,
    side_partition,
    sphere,
)


@dataclass(frozen=True)
class Reflection:
    """Certified reflection: mapping in one-line notation plus its edge."""

    mapping: tuple
    edge: tuple


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
    vertex breaks the unique-neighbor rule, no candidate exists and the
    violator is reported.  Otherwise the pairing is mutual: y' = fwd(x')
    is a cross neighbor of x', so x' is the one cross neighbor of y'.
    """
    check_edge(g, x, y)
    sp = side_partition(g, x, y)
    sx_set = frozenset(sp.side_x)
    sy_set = frozenset(sp.side_y)
    fwd = {}
    for xp in sp.side_x:
        cross = [w for w in g.neighbors[xp] if w in sy_set]
        if len(cross) != 1:
            return CandidateOutcome(None, xp)
        fwd[xp] = cross[0]
    for yp in sp.side_y:
        if sum(w in sx_set for w in g.neighbors[yp]) != 1:
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
    orientations: the swaps pair each side vertex with its one cross
    neighbor, mutually (an involution), y is
    x's unique cross neighbor (the ends swap), the swaps are exactly the
    cross edges and the middle stays fixed.  So failed_axiom is
    "cross-edges" (no candidate; the witness is the violator) or
    "automorphism" (the witness is the first pair whose adjacency the
    mapping changes).  The search runs once per edge, on (a, b) = (min, max),
    and (b, a) reads its outcome.
    """
    check_edge(g, x, y)  # ahead of the memo, which would store -1 as its own edge end
    mapping, axiom, witness = _search(g, *((x, y) if x < y else (y, x)))
    if mapping is None:
        return ReflectionSearch(None, axiom, witness)
    return ReflectionSearch(Reflection(mapping, (x, y)), None, None)


@memo("refl")
def _search(g: Graph, a: int, b: int):
    """(mapping, failed axiom, witness) for the edge (a, b), a < b.

    A proven mapping joins g.cache["refl_proven"], the only mappings that
    reflection_generators hands out.
    """
    cand = candidate_reflection(g, a, b)
    if cand.reflection is None:
        return (None, "cross-edges", cand.violator)
    mapping = cand.reflection.mapping
    pair = _automorphism_witness(g, mapping)
    if pair is not None:
        return (None, "automorphism", pair)
    g.cache.setdefault("refl_proven", set()).add(mapping)
    return (mapping, None, None)


@memo("reflective")
def is_reflective(g: Graph) -> ReflectiveVerdict:
    """True iff every edge admits a reflection; first failing edge otherwise.

    One orientation per edge is enough: a reflection for (x, y) is one for
    (y, x), and find_reflection shares the search between them.  A graph
    is reflective when the edges at vertex 0 are (module docstring); they
    lead g.edges, so the first failing edge is the one a scan of every edge
    finds.
    """
    for (u, v) in g.edges[:g.degree(0)]:
        if find_reflection(g, u, v).reflection is None:
            return ReflectiveVerdict(False, (u, v))
    return ReflectiveVerdict(True, None)


@memo("side_classes")
def side_classes(g: Graph) -> dict:
    """(side_x, side_y) -> the directed edges with those sides, cached.

    Edges keep g.edges order, (x, y) before (y, x).  find_reflection never
    builds the index: a graph that is not reflective usually fails at its
    first edge.
    """
    classes = {}
    for (x, y) in g.edges:
        for e in ((x, y), (y, x)):
            sp = side_partition(g, *e)
            classes.setdefault((sp.side_x, sp.side_y), []).append(e)
    return classes


def reflection_generators(g: Graph):
    """The reflections of the edges at vertex 0, or None if g is not reflective.

    They generate every edge reflection (module docstring).  Each is a
    mapping that find_reflection proved to be an involutive automorphism;
    any other is an InternalCheckError, so whatever a caller closes or
    carries under them stays inside one orbit.
    """
    if not is_reflective(g).reflective:
        return None
    gens = []
    for w in g.neighbors[0]:
        found = find_reflection(g, 0, w).reflection
        if found is None or found.mapping not in g.cache.get("refl_proven", ()):
            raise InternalCheckError(
                f"reflection of (0, {w}) is not an involutive automorphism proven by find_reflection")
        gens.append(found.mapping)
    return gens


def are_parallel(g: Graph, e1, e2) -> bool:
    """Ordered relation: e2's tail on e1's tail side, head on head side."""
    x, y = e1
    xp, yp = e2
    check_edge(g, x, y)
    check_edge(g, xp, yp)
    dist = g.dist_rows()
    return dist[xp][x] < dist[xp][y] and dist[yp][y] < dist[yp][x]


def uncovered_vertex(g: Graph, members):
    """Least vertex z with no member (u, v) inside its unit ball, or None.

    members is one side class: z is covered when both ends of some member
    lie within distance 1 of z, that is z in N[u] and N[v].  On a reflective
    graph every class covers every vertex.
    """
    nbr = g._nbr_sets
    covered = set()
    for (u, v) in members:
        covered |= nbr[u] & nbr[v]
        covered.add(u)
        covered.add(v)
    return next((z for z in range(g.n) if z not in covered), None)


def orbit_roots(g: Graph, pairs):
    """(the root of each pair x < y in order, the reversible roots).

    Closes the orbits of reflection_generators not yet reached and records
    each reached pair as (parent pair, sigma, side, root); the module
    docstring describes the search.  The call that makes the records first
    closes the orbits of the pairs whose curvature is already cached.  On
    a graph that is not reflective every pair is its own root, no record
    is made and no root is known to be reversible.
    """
    cache = g.cache
    orbits = cache.get("orbits")
    solved = []  # pairs that lone requests solved before the records existed
    if orbits is None:
        gens = reflection_generators(g)
        if gens is None:
            return list(pairs), set()
        orbits = cache["orbits"] = (gens, {}, set())
        solved = [key[1:] for key in cache if isinstance(key, tuple) and key[0] == "kappa"]
    gens, reach, reversible = orbits
    for pair in chain(solved, pairs):
        if pair in reach:
            continue
        reach[pair] = (None, None, 0, pair)
        frontier = [(pair, 0)]
        swapped = False
        while frontier:
            reached = []
            for parent, side in frontier:
                x, y = parent
                for sigma in gens:
                    u, v = sigma[x], sigma[y]
                    image = (u, v) if u < v else (v, u)
                    if image not in reach:
                        at = side ^ (u > v)
                        reach[image] = (parent, sigma, at, pair)
                        reached.append((image, at))
                    elif not swapped and reach[image][2] != side ^ (u > v):
                        swapped = True
            frontier = reached
        if swapped:
            reversible.add(pair)
    return [reach[pair][3] for pair in pairs], reversible


def pair_orbit_certificate(g: Graph) -> bool:
    """Do the edge reflections act transitively on each distance class?

    True exactly when orbit_roots gives each distance class of the pairs
    x < y one root and that root is reversible: then the reflection group
    is transitive on the ordered pairs of every positive distance, and on
    the vertices (module docstring).
    """
    verdict = is_reflective(g)
    if not verdict.reflective:
        raise NotReflectiveError(verdict.counterexample)
    connected, witness = is_locally_connected(g)
    if not connected:
        raise InvalidParameterError(
            f"certificate needs connected punctured neighborhoods (vertex {witness})"
        )
    roots, reversible = orbit_roots(g, [(x, y) for x in range(g.n) for y in range(x + 1, g.n)])
    dist = g.dist_rows()
    roots = set(roots)
    return roots <= reversible and len(roots) == len({dist[x][y] for x, y in roots})


def matching_structure_check(g: Graph, x: int, y: int, K) -> MatchingVerdict:
    """Each tail-side vertex: one cross neighbor and K-2 middle neighbors."""
    check_edge(g, x, y)
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
    deg(x) - K * d(x, v) at every vertex, exactly: with K = p/q in lowest
    terms, lap * q == deg(x) * q - p * d(x, v) in integers.
    """
    check_vertex(g.n, x)
    K = Fraction(K)
    p, q = K.numerator, K.denominator
    dx = g.dist_rows()[x]
    deg_x = g.degree(x)
    for v, nb in enumerate(g.neighbors):
        lap = sum([dx[w] for w in nb]) - len(nb) * dx[v]
        if lap * q != deg_x * q - p * dx[v]:
            return False
    return True


def triangle_matching_check(g: Graph, x: int, y: int) -> bool:
    """Triangle count at the edge is at least the curvature minus two.

    At equality the exclusive neighborhoods N(x) minus N[y] and N(y) minus
    N[x] must additionally be perfectly matched along graph edges
    (graphs.max_matching).
    """
    from .ollivier import edge_curvature

    check_edge(g, x, y)
    kappa = edge_curvature(g, x, y).value
    adj = adjacency_bits(g)
    common = (adj[x] & adj[y]).bit_count()
    if common < kappa - 2:
        return False
    if common == kappa - 2:
        left = adj[x] & ~adj[y] & ~(1 << y)
        right = adj[y] & ~adj[x] & ~(1 << x)
        if left.bit_count() != right.bit_count():
            return False
        if len(max_matching(adj, left, right)) != left.bit_count():
            return False
    return True


def sphere_isometry_witness(g: Graph):
    """First vertex whose unit sphere or one of its caps is not isometric.

    The cap of v away from w holds the neighbors of v one step farther from
    w than v.  Returns None when every sphere and every cap of at least two
    vertices is isometric, else (v, None) for a sphere and (v, w) for a cap.
    A reflective graph is vertex-transitive, so vertex 0 alone is read.
    """
    dist = g.dist_rows()
    for v in [0] if is_reflective(g).reflective else range(g.n):
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
    check_edge(g, x, y)
    side = side_partition(g, x, y).side_x
    if not is_convex_subset(g, side):
        return False
    # a convex side holds a geodesic between any two of its vertices, so it
    # is connected and induced_subgraph accepts it
    sub, _ = induced_subgraph(g, side)
    return is_reflective(sub).reflective
