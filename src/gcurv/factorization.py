"""Cartesian product recognition and prime factor extraction.

Two edges are related when their endpoint distances break the additive
rectangle identity, or when one endpoint coincides and is the entire
common neighborhood of the other two (checked in all four end
orientations).  A graph is a nontrivial Cartesian product exactly when
this relation on the edge set is disconnected.

By Feder's theorem the classes of this relation are exactly the fibre
classes of the prime factorization (T. Feder, "Product graph
representations", J. Graph Theory 1992), so each class gives one prime
factor, in class-id order: the component of vertex 0 in that class's
edges.  A vertex's coordinate on it is its projection along the other
classes' edges.  The whole factorization is still certified once: the
orders multiply to the graph's, the coordinate map carries the edges onto
the product's, and every factor is prime; a failure is an
InternalCheckError.
"""

from dataclasses import dataclass
from functools import reduce
from math import prod

from .errors import InternalCheckError, TrivialGraphError
from .graphs import Graph, build_graph, memo
from .families import cartesian_product


@dataclass(frozen=True)
class EdgeRelationPartition:
    edges: tuple
    component_of: tuple  # component id per edge, ids numbered by first edge
    count: int


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _related(g: Graph, dist, e1, e2) -> bool:
    x, y = e1
    xp, yp = e2
    if dist[x][xp] + dist[y][yp] != dist[x][yp] + dist[y][xp]:
        return True
    # one shared endpoint that is the whole common neighborhood of the heads
    nbr = g._nbr_sets
    for a, b in ((x, y), (y, x)):
        for c, d in ((xp, yp), (yp, xp)):
            if a == c and nbr[b] & nbr[d] == {a}:
                return True
    return False


@memo("edge_relation")
def edge_relation_components(g: Graph) -> EdgeRelationPartition:
    edges = g.edges
    m = len(edges)
    dist = g.dist_rows()
    uf = _UnionFind(m)
    remaining = m - 1
    for i in range(m):
        if remaining == 0:
            break
        for j in range(i + 1, m):
            if uf.find(i) != uf.find(j) and _related(g, dist, edges[i], edges[j]):
                uf.union(i, j)
                remaining -= 1
    rename = {}
    comp = []
    for i in range(m):
        root = uf.find(i)
        if root not in rename:
            rename[root] = len(rename)
        comp.append(rename[root])
    return EdgeRelationPartition(edges, tuple(comp), len(rename))


def is_prime(g: Graph) -> bool:
    """No factorization into two smaller graphs exists."""
    if g.n < 2:
        raise TrivialGraphError("primality needs at least two vertices")
    return edge_relation_components(g).count == 1


def _axis_component(axis_edges, base: int):
    """Connected component of base in the subgraph keeping only axis_edges."""
    nbrs = {}
    for (u, v) in axis_edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    seen = {base}
    stack = [base]
    while stack:
        u = stack.pop()
        for w in nbrs.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    verts = sorted(seen)
    index = {v: i for i, v in enumerate(verts)}
    sub = [
        (index[u], index[v])
        for (u, v) in axis_edges
        if u in index and v in index
    ]
    return verts, sub


def _projection(n: int, bundle_edges, axis_verts):
    """Map each vertex to its unique bundle-component representative on the axis.

    Moving along the complementary bundle keeps the axis coordinate, so
    each complementary component must meet the axis exactly once; if not,
    the class is not a factor and None is returned.
    """
    nbrs = {}
    for (u, v) in bundle_edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    axis_set = set(axis_verts)
    proj = [None] * n
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in nbrs.get(u, ()):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        anchors = [v for v in comp if v in axis_set]
        if len(anchors) != 1:
            return None
        for v in comp:
            proj[v] = anchors[0]
    return proj


def factorize(g: Graph):
    """Prime factor list, one per relation class, certified by reconstruction."""
    if g.n < 2:
        raise TrivialGraphError("factorization needs at least two vertices")
    part = edge_relation_components(g)
    if part.count == 1:
        return [g]
    factors, coord = [], [0] * g.n
    for c in range(part.count):
        axis = [e for e, k in zip(part.edges, part.component_of) if k == c]
        rest = [e for e, k in zip(part.edges, part.component_of) if k != c]
        verts, sub = _axis_component(axis, 0)
        # moving along the other classes keeps this factor's coordinate
        proj = _projection(g.n, rest, verts)
        if proj is None:
            raise InternalCheckError(f"relation class {c} is not a factor")
        index = {v: i for i, v in enumerate(verts)}
        # mixed radix, in the order reduce(cartesian_product, factors) labels
        coord = [x * len(verts) + index[p] for x, p in zip(coord, proj)]
        factors.append(build_graph(len(verts), sub))
    # the order check comes first, so a wrong partition builds no large product
    if prod(f.n for f in factors) != g.n:
        raise InternalCheckError("the factor orders do not multiply to the graph's")
    mapped = {tuple(sorted((coord[u], coord[v]))) for (u, v) in g.edges}
    if mapped != set(reduce(cartesian_product, factors).edges):
        raise InternalCheckError("the relation classes do not rebuild the graph")
    if not all(is_prime(f) for f in factors):
        raise InternalCheckError("a relation class spans a composite factor")
    return factors
