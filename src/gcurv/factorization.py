"""Cartesian product recognition and prime factor extraction.

Two edges are related when their endpoint distances break the additive
rectangle identity, or when one endpoint coincides and is the entire
common neighborhood of the other two (checked in all four end
orientations).  A graph is a nontrivial Cartesian product exactly when
this relation on the edge set is disconnected.

Extraction groups relation components into two bundles, projects every
vertex onto the two axis subgraphs through a base vertex, and accepts a
grouping only if rebuilding the product from the projected factors gives
back the graph through the coordinate map.  Groupings are retried in
order, so correctness rests on the reconstruction check rather than on
any claim about which components go together.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import FactorizationFailedError, TrivialGraphError
from .graphs import Graph, build_graph
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


def edge_relation_components(g: Graph) -> EdgeRelationPartition:
    key = "edge_relation"
    hit = g.cache.get(key)
    if hit is not None:
        return hit
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
    part = EdgeRelationPartition(edges, tuple(comp), len(rename))
    g.cache[key] = part
    return part


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
    the grouping is wrong and None is returned.
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


def _try_split(g: Graph, part: EdgeRelationPartition, chosen) -> tuple | None:
    """Build and verify the two factors for one component grouping."""
    f1_edges = [e for e, c in zip(part.edges, part.component_of) if c in chosen]
    f2_edges = [e for e, c in zip(part.edges, part.component_of) if c not in chosen]
    base = 0
    v1, sub1 = _axis_component(f1_edges, base)
    v2, sub2 = _axis_component(f2_edges, base)
    if len(v1) * len(v2) != g.n:
        return None
    # projection along the complementary bundle fixes the axis coordinate
    p1 = _projection(g.n, f2_edges, v1)
    p2 = _projection(g.n, f1_edges, v2)
    if p1 is None or p2 is None:
        return None
    g1 = build_graph(len(v1), sub1)
    g2 = build_graph(len(v2), sub2)
    i1 = {v: i for i, v in enumerate(v1)}
    i2 = {v: i for i, v in enumerate(v2)}
    coord = [i1[p1[v]] * g2.n + i2[p2[v]] for v in range(g.n)]
    if len(set(coord)) != g.n:
        return None
    product = cartesian_product(g1, g2)
    mapped = {tuple(sorted((coord[u], coord[v]))) for (u, v) in g.edges}
    if mapped != set(product.edges):
        return None
    return g1, g2


def factorize(g: Graph):
    """Prime factor list, each split certified by product reconstruction."""
    if g.n < 2:
        raise TrivialGraphError("factorization needs at least two vertices")
    part = edge_relation_components(g)
    if part.count == 1:
        return [g]
    comp_ids = list(range(part.count))
    split = None
    # single components first, then pairs, and so on
    for size in range(1, part.count):
        for chosen in combinations(comp_ids, size):
            split = _try_split(g, part, frozenset(chosen))
            if split is not None:
                break
        if split is not None:
            break
    if split is None:
        raise FactorizationFailedError(
            "edge relation is disconnected but no grouping reconstructs the graph"
        )
    g1, g2 = split
    return factorize(g1) + factorize(g2)
