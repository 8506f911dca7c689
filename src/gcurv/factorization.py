"""Cartesian product recognition and prime factor extraction.

The prime factors of a connected graph are read off Feder's relation
sigma on its edges: the transitive closure of Theta (the endpoint
distances break the rectangle identity d(x,x') + d(y,y') =
d(x,y') + d(y,x')) and tau (two edges vx, vy whose far ends have v as
their only common neighbour).  Its classes are exactly the fibre classes
of the prime factorization, so a graph is prime when there is one class
(T. Feder, "Product graph representations", J. Graph Theory 1992).  Each
class gives one prime factor, in class-id order (classes numbered by
their first edge): the component of vertex 0 in that class's edges.  A
vertex's coordinate on it is its projection along the other classes'
edges.

The classes are found in two stages.

1. The local relation delta, read from adjacency bitmasks without any
   distance row.  At each vertex v, the edges to one component of the
   neighbourhood N(v) are related (a chain of triangles).  For neighbours
   a and b in different components, each common neighbour w other than v
   lies outside N[v] and closes an induced square v a w b: relate va with
   bw and vb with aw.  When a and b have no such w, relate va with vb.
   Triangles and the opposite sides of an induced square are Theta
   related, and the last case is tau, so every delta class lies inside
   one sigma class; and every tau pair is a delta pair.  On a locally
   connected graph delta is one class (each star is one class, and the
   stars of adjacent vertices share their edge), so nothing more is read.
2. delta's classes are rebuilt into a product (below).  When that
   succeeds, g is the product of one factor per delta class, with each
   class as the layers of its factor.  sigma is finer than the layers of
   any factorization (a Theta or tau pair never joins two factors), so
   delta = sigma.  Only when the rebuild fails is the Theta test run, on
   pairs of edges in different classes of delta's union-find; since
   delta holds tau and lies inside sigma, the closure it reaches is
   sigma.  On the Moebius ladder C(8; 1, 4), for instance, delta has two
   classes (rungs and ring edges) but the graph is prime.

The rebuild certifies the factorization, and factorize shares it: the
orders multiply to the graph's (checked before the product is built),
the coordinate map carries the edges onto the product's, and every
factor is prime.  A class whose factor had one vertex would send its
edges to loops, so the edge check also ensures every factor has two or
more vertices.  A failure on sigma's classes is an InternalCheckError.
"""

from dataclasses import dataclass, replace
from functools import reduce
from math import prod

from .errors import InternalCheckError, TrivialGraphError
from .graphs import (
    Graph,
    adjacency_bits,
    build_graph,
    is_locally_connected,
    local_components,
    memo,
)
from .families import cartesian_product


@dataclass(frozen=True)
class EdgeRelationPartition:
    edges: tuple
    component_of: tuple  # component id per edge, ids numbered by first edge
    count: int
    factors: tuple = ()  # one factor graph per class once rebuilt, when count > 1


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> None:
        p = self.parent  # find, inlined for both ends
        while p[a] != a:
            p[a] = a = p[p[a]]
        while p[b] != b:
            p[b] = b = p[p[b]]
        if a != b:
            p[b] = a
            self.count -= 1


def _relate_locally(g: Graph, uf: _UnionFind) -> None:
    """Union the delta pairs at every vertex; stop once one class is left.

    Every corner of an induced square whose two square neighbours lie in
    different local components relates the same two pairs, so only the
    least such corner unions them.  Corners are taken in increasing order,
    so the local components of a lesser corner are already labelled.
    """
    adj = adjacency_bits(g)
    at = [{} for _ in range(g.n)]  # at[u][w]: index of the edge uw
    for i, (u, w) in enumerate(g.edges):
        at[u][w] = at[w][u] = i
    label = [None] * g.n  # label[u][a]: the local component of u holding a
    for v, comps in enumerate(local_components(g)):
        if uf.count == 1:
            return
        here = at[v]
        stars = [[a for a in g.neighbors[v] if comp >> a & 1] for comp in comps]
        label[v] = {a: comp for comp, star in zip(comps, stars) for a in star}
        for star in stars:
            for a in star[1:]:
                uf.union(here[star[0]], here[a])
        off_v = ~(1 << v)
        below_v = (1 << v) - 1
        for i, star in enumerate(stars):
            for other in stars[i + 1:]:
                for a in star:
                    near_a = adj[a] & off_v
                    # a corner a < v relates the squares whose w lies outside v's component there
                    kept_a = label[a][v] if a < v else -1
                    for b in other:
                        common = near_a & adj[b]
                        if not common:
                            uf.union(here[a], here[b])
                            continue
                        common &= kept_a & (label[b][v] if b < v else -1)
                        while common:
                            bit = common & -common
                            common ^= bit
                            w = bit.bit_length() - 1
                            if bit & below_v and not label[w][a] >> b & 1:
                                continue  # the corner w < v relates this square
                            uf.union(here[a], at[b][w])
                            uf.union(here[b], at[a][w])


def _relate_by_distance(g: Graph, uf: _UnionFind) -> None:
    """Union every Theta pair of edges in different classes."""
    edges = g.edges
    dist = g.dist_rows()
    for i, (x, y) in enumerate(edges):
        if uf.count == 1:
            return
        dx, dy = dist[x], dist[y]
        for j in range(i + 1, len(edges)):
            if uf.find(i) != uf.find(j):
                xp, yp = edges[j]
                if dx[xp] + dy[yp] != dx[yp] + dy[xp]:
                    uf.union(i, j)


def _partition(edges, uf: _UnionFind) -> EdgeRelationPartition:
    rename = {}
    comp = tuple(rename.setdefault(uf.find(i), len(rename)) for i in range(len(edges)))
    return EdgeRelationPartition(edges, comp, len(rename))


@memo("edge_relation")
def edge_relation_components(g: Graph) -> EdgeRelationPartition:
    """Feder's relation classes, with the factors they rebuild when there are two or more.

    delta first; the Theta scan only when delta's classes fail to rebuild g
    (the module docstring gives the argument).
    """
    if g.m and is_locally_connected(g)[0]:
        # each star is one delta class, and adjacent vertices' stars share an edge
        return EdgeRelationPartition(g.edges, (0,) * g.m, 1)
    uf = _UnionFind(g.m)
    _relate_locally(g, uf)
    part = _partition(g.edges, uf)
    if part.count <= 1:  # prime, or one vertex and no edge
        return part
    try:
        return replace(part, factors=_rebuild(g, part))
    except InternalCheckError:  # delta is finer than sigma
        _relate_by_distance(g, uf)
    part = _partition(g.edges, uf)
    return part if part.count == 1 else replace(part, factors=_rebuild(g, part))


def is_prime(g: Graph) -> bool:
    """No factorization into two smaller graphs exists."""
    if g.n < 2:
        raise TrivialGraphError("primality needs at least two vertices")
    return edge_relation_components(g).count == 1


def _rebuild(g: Graph, part: EdgeRelationPartition) -> tuple:
    """One factor per class, certified to multiply back to g; else InternalCheckError.

    Class c's factor is the layer of vertex 0: its component in the class's
    edges.  Moving along the other classes keeps the factor's coordinate,
    so each component of their edges must meet that layer exactly once,
    and a vertex's coordinate is the layer vertex of its component.
    """
    factors, coord = [], [0] * g.n
    for c in range(part.count):
        layer, across, axis = _UnionFind(g.n), _UnionFind(g.n), []
        for e, k in zip(part.edges, part.component_of):
            if k == c:
                layer.union(*e)
                axis.append(e)
            else:
                across.union(*e)
        base = layer.find(0)
        verts = [v for v in range(g.n) if layer.find(v) == base]
        index = {v: i for i, v in enumerate(verts)}
        roots = [across.find(v) for v in range(g.n)]
        anchor = {roots[v]: i for v, i in index.items()}
        if len(anchor) != len(verts) or across.count != len(verts):
            raise InternalCheckError(f"relation class {c} is not a factor")
        # mixed radix, in the order reduce(cartesian_product, factors) labels
        coord = [x * len(verts) + anchor[r] for x, r in zip(coord, roots)]
        sub = [(index[u], index[v]) for (u, v) in axis if u in index]
        factors.append(build_graph(len(verts), sub))
    # the order check comes first, so a wrong partition builds no large product
    if prod(f.n for f in factors) != g.n:
        raise InternalCheckError("the factor orders do not multiply to the graph's")
    mapped = {tuple(sorted((coord[u], coord[v]))) for (u, v) in g.edges}
    if mapped != set(reduce(cartesian_product, factors).edges):
        raise InternalCheckError("the relation classes do not rebuild the graph")
    return tuple(factors)


def factorize(g: Graph):
    """Prime factor list, one per relation class, certified by reconstruction."""
    if g.n < 2:
        raise TrivialGraphError("factorization needs at least two vertices")
    part = edge_relation_components(g)
    if part.count == 1:
        return [g]
    factors = part.factors or _rebuild(g, part)  # a partition given without its factors
    if not all(is_prime(f) for f in factors):
        raise InternalCheckError("a relation class spans a composite factor")
    return list(factors)
