"""Finite simple graphs with exact shortest-path metric utilities.

Vertices are integers 0..n-1.  Every Graph is connected: build_graph and
induced_subgraph refuse a disconnected one with DisconnectedError, so the
distance matrix is always finite.  Graphs are immutable once built;
expensive derived data is cached on the instance and computed at most
once.  The analysis modules cache through memo(name), which publishes
f(g, *args) in g.cache once, under name or (name, *args), and hands back
that same object after; a call that raises stores nothing.

adjacency_bits holds each neighbourhood as one int bitmask, and
local_components splits each neighbourhood N(v) into the components of
the subgraph it induces, as bitmasks; is_locally_connected, the
factorization's local relation and the Ollivier edge bounds read them.

are_isomorphic decides isomorphism exactly by individualization-refinement
(McKay 1981) on the disjoint union of the two graphs; the comment opening
that section gives the argument.
"""

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import chain
from operator import index

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    InternalCheckError,
    InvalidParameterError,
    NotAdjacentError,
    ParseError,
    SelfLoopError,
    check_vertex,
)

# Input budget.  Every graph is eventually held as all-pairs distance rows
# and dense n x n matrices, so edge lists, family expressions, products and
# build_graph calls whose size exceeds these are refused with ParseError
# before the graph is allocated.
MAX_VERTICES = 4096
MAX_EDGES = 200_000


def check_budget(n: int, m: int) -> None:
    """Raise ParseError when n vertices or m edges exceed the input budget."""
    if n > MAX_VERTICES:
        raise ParseError(f"graph exceeds the input budget of {MAX_VERTICES} vertices")
    if m > MAX_EDGES:
        raise ParseError(f"graph exceeds the input budget of {MAX_EDGES} edges")


class Graph:
    """Simple undirected graph.  Use build_graph to construct a validated one."""

    def __init__(self, n: int, edges: tuple, neighbors: tuple):
        self.n = n
        self.edges = edges          # sorted tuple of (u, v) with u < v
        self.neighbors = neighbors  # tuple of sorted vertex tuples
        self._nbr_sets = tuple(frozenset(nb) for nb in neighbors)
        self._dist = None
        self.cache: dict = {}       # publish-once memo space for analysis modules

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def max_degree(self) -> int:
        return max(self.degree(v) for v in range(self.n))

    def is_regular(self) -> bool:
        degs = {self.degree(v) for v in range(self.n)}
        return len(degs) == 1

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._nbr_sets[u]

    def dist_rows(self):
        """Distance matrix as a list of rows; treat as read only."""
        if self._dist is None:
            self._dist = [_bfs_row(self, s) for s in range(self.n)]
        return self._dist

    def distance(self, u: int, v: int) -> int:
        return self.dist_rows()[u][v]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def memo(name: str):
    """Decorator: publish f(g, *args) once in g.cache; a raise caches nothing."""
    def decorate(f):
        @wraps(f)
        def cached(g: Graph, *args):
            key = (name, *args) if args else name
            if key not in g.cache:
                g.cache[key] = f(g, *args)
            return g.cache[key]
        return cached
    return decorate


def _bfs_row(g: Graph, source: int) -> list:
    row = [-1] * g.n
    row[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        du = row[u]
        for w in g.neighbors[u]:
            if row[w] < 0:
                row[w] = du + 1
                q.append(w)
    return row


def build_graph(n: int, edge_list) -> Graph:
    """The graph on 0..n-1 with these edges, validated.

    n and every label must be integers (operator.index, so a bool reads as
    0 or 1), and n at least 1 and within the input budget (check_budget
    raises ParseError) before anything is allocated.  Edges must be in range and free of self
    loops and duplicates, refused at the first that is not, and their
    number within the budget before the Graph is built.  This is the only
    home of the edge rules: parse_edge_list blames the line of the edge
    refused here.  A disconnected graph raises DisconnectedError with the
    component of vertex 0 and that of the first vertex it misses.
    """
    try:
        n = index(n)
    except TypeError:
        raise InvalidParameterError(f"vertex count {n!r} is not an integer") from None
    if n < 1:
        raise InvalidParameterError("graph needs at least one vertex")
    check_budget(n, 0)
    nbrs = [[] for _ in range(n)]
    seen = set()
    norm = []
    for u, v in edge_list:
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise InvalidParameterError(f"edge ({u!r}, {v!r}) is not a pair of integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(u)
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            raise DuplicateEdgeError(u, v)
        seen.add((a, b))
        norm.append((a, b))
        nbrs[a].append(b)
        nbrs[b].append(a)
    check_budget(n, len(norm))
    g = Graph(n, tuple(sorted(norm)), tuple(tuple(sorted(nb)) for nb in nbrs))
    row = _bfs_row(g, 0)
    if -1 in row:
        rows = (row, _bfs_row(g, row.index(-1)))
        raise DisconnectedError(tuple([v for v, d in enumerate(r) if d >= 0] for r in rows))
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text edge-list format.

    First data line is "n m", followed by exactly m lines "u v" (0-based).
    Lines starting with '#' and blank lines are ignored.
    """
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("header must be 'n m'", line=lineno)
            try:
                n, m_expected = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("header must contain two integers", line=lineno)
            try:
                check_budget(n, m_expected)
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
            header = (n, m_expected)
            continue
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge line must contain two integers", line=lineno)
        edges.append((u, v, lineno))
    if header is None:
        raise ParseError("empty input, expected 'n m' header", line=1)
    n, m = header
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}")
    sent = None  # line of the last edge handed to build_graph, which refuses at the first bad one

    def hand_over():
        nonlocal sent
        for u, v, sent in edges:
            yield u, v

    try:
        return build_graph(n, hand_over())
    except (SelfLoopError, DuplicateEdgeError, InvalidParameterError) as exc:
        raise ParseError(str(exc), line=sent) from exc


def read_text(path: str) -> str:
    """A file's text; ParseError when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_edge_list(path: str) -> Graph:
    return parse_edge_list(read_text(path))


def sphere(g: Graph, x: int, r: int) -> tuple:
    """Vertices at distance exactly r from x, sorted."""
    check_vertex(g.n, x)
    if r < 0:
        raise InvalidParameterError("radius must be nonnegative")
    row = g.dist_rows()[x]
    return tuple(v for v in range(g.n) if row[v] == r)


def ball(g: Graph, x: int, r: int) -> tuple:
    """Vertices at distance at most r from x, sorted."""
    check_vertex(g.n, x)
    if r < 0:
        raise InvalidParameterError("radius must be nonnegative")
    row = g.dist_rows()[x]
    return tuple(v for v in range(g.n) if row[v] <= r)


@dataclass(frozen=True)
class SidePartition:
    """Split of the vertex set induced by an edge (x, y).

    side_x holds vertices strictly closer to x, side_y those strictly closer
    to y, middle the equidistant ones.  x and y are adjacent, so the three
    parts cover the vertex set and distances to x and y differ by at most 1.
    """

    x: int
    y: int
    side_x: tuple
    side_y: tuple
    middle: tuple


def check_edge(g: Graph, x: int, y: int) -> None:
    """check_vertex on both ends, then NotAdjacentError unless (x, y) is an edge of g."""
    check_vertex(g.n, x)
    check_vertex(g.n, y)
    if not g.adjacent(x, y):
        raise NotAdjacentError(x, y)


def side_partition(g: Graph, x: int, y: int) -> SidePartition:
    """The split by the edge (x, y); (y, x) reads the cached split of (x, y), sides swapped."""
    check_edge(g, x, y)
    if x < y:
        return _split(g, x, y)
    part = _split(g, y, x)
    return SidePartition(x, y, part.side_y, part.side_x, part.middle)


@memo("side")
def _split(g: Graph, x: int, y: int) -> SidePartition:
    """The split by the edge (x, y), x < y."""
    dx = g.dist_rows()[x]
    dy = g.dist_rows()[y]
    sx, sy, mid = [], [], []
    for v in range(g.n):
        if dx[v] < dy[v]:
            sx.append(v)
        elif dy[v] < dx[v]:
            sy.append(v)
        else:
            mid.append(v)
    return SidePartition(x, y, tuple(sx), tuple(sy), tuple(mid))


def effective_diameter(g: Graph) -> Fraction:
    """Average distance over all ordered vertex pairs, exact."""
    total = sum(sum(row) for row in g.dist_rows())
    return Fraction(total, g.n * g.n)


@memo("adj_bits")
def adjacency_bits(g: Graph) -> list:
    """One int per vertex with bit v set for each neighbour v, cached."""
    return [sum(1 << v for v in nb) for nb in g.neighbors]


def max_matching(adj, sources: int, sinks: int) -> dict:
    """A maximum matching of sources with adjacent sinks, as {sink: source}.

    adj holds one adjacency bitmask per vertex (adjacency_bits); sources
    and sinks are bitmasks.  Sources join in increasing order, each along
    an augmenting path searched depth first, with the sinks of each source
    tried in increasing order (Kuhn's method).  The path is kept on an
    explicit stack, so no recursion limit bounds its length.
    """
    owner = {}
    rest = sources
    while rest:
        bit = rest & -rest
        rest ^= bit
        u = bit.bit_length() - 1
        near, seen = adj[u] & sinks, 0  # u's untried sinks; the sinks tried so far
        path = []  # (source, its untried sinks, the sink it took) for each source above u
        while True:
            near &= ~seen
            if near:
                tbit = near & -near
                near ^= tbit
                seen |= tbit
                t = tbit.bit_length() - 1
                w = owner.get(t)
                if w is None:
                    # the path augments: each source on it takes its sink, deepest first
                    owner[t] = u
                    for u, _, t in reversed(path):
                        owner[t] = u
                    break
                path.append((u, near, t))
                u, near = w, adj[w] & sinks
            elif path:
                u, near, _ = path.pop()
            else:
                break
    return owner


@memo("local_components")
def local_components(g: Graph) -> tuple:
    """Per vertex v, the components of the subgraph induced on N(v), as bitmasks.

    Each component is grown from the lowest vertex not yet reached by a
    breadth-first search on adjacency_bits, one frontier mask per step, so
    components come in order of their least vertex.
    """
    adj = adjacency_bits(g)
    out = []
    for v in range(g.n):
        left, comps = adj[v], []
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    reach |= adj[bit.bit_length() - 1]
                frontier = reach & left & ~comp
                comp |= frontier
            comps.append(comp)
            left &= ~comp
        out.append(tuple(comps))
    return tuple(out)


@memo("locally_connected")
def is_locally_connected(g: Graph):
    """(True, None) if every punctured neighborhood is connected, else (False, witness).

    The witness is the first vertex whose neighborhood has more than one
    component in local_components.
    """
    for v, comps in enumerate(local_components(g)):
        if len(comps) > 1:
            return (False, v)
    return (True, None)


def induced_subgraph(g: Graph, s):
    """Induced subgraph on vertex subset s.

    Returns (subgraph, vertices) where vertices[i] is the original label of
    subgraph vertex i.  Like build_graph it raises DisconnectedError when the
    subgraph is disconnected, so every Graph is connected.
    """
    vs = sorted(set(s))
    if not vs:
        raise InvalidParameterError("induced subgraph needs a nonempty vertex set")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise InvalidParameterError("subset contains labels outside the graph")
    index = {v: i for i, v in enumerate(vs)}
    sub_edges = [
        (index[u], index[v])
        for (u, v) in g.edges
        if u in index and v in index
    ]
    return build_graph(len(vs), sub_edges), tuple(vs)


def is_isometric_subset(g: Graph, s) -> bool:
    """True iff induced-subgraph distances agree with ambient distances on s.

    A breadth-first search from each member steps only inside s, so no
    subgraph is built; a disconnected s is not isometric.
    """
    inside = frozenset(s)
    dist = g.dist_rows()
    for u in inside:
        row = {u: 0}
        q = deque([u])
        while q:
            a = q.popleft()
            for w in g._nbr_sets[a] & inside:
                if w not in row:
                    row[w] = row[a] + 1
                    q.append(w)
        du = dist[u]
        if len(row) != len(inside) or any(du[v] != d for v, d in row.items()):
            return False
    return True


def is_convex_subset(g: Graph, s) -> bool:
    """True iff no geodesic between members of s leaves s."""
    inside = set(s)
    outside = [z for z in range(g.n) if z not in inside]
    dist = g.dist_rows()
    vs = sorted(inside)
    for i, u in enumerate(vs):
        du = dist[u]
        for v in vs[i + 1:]:
            duv = du[v]
            dv = dist[v]
            for z in outside:
                if du[z] + dv[z] == duv:
                    return False
    return True


# --- isomorphism by splitter-driven individualization-refinement ---
#
# McKay, "Practical graph isomorphism", Congr. Numer. 30 (1981); McKay and
# Piperno, J. Symbolic Comput. 60 (2014).  One partition of the disjoint
# union, g1 on 0..n1-1 and g2 on n1..2n1-1, is refined to the coarsest
# equitable partition finer than it: a queued cell W splits each cell by its
# members' neighbour counts in W, and a split cell queues its fragments, or
# all but the largest when it was not queued (counts into that one follow).
# That partition does not depend on the order of splits, and an isomorphism
# respecting the pinned pairs maps each cell's g1 part onto its g2 part, so a
# cell with unequal parts ends the branch and loses no isomorphism.  The
# search pins the least g1 vertex of the smallest cell to each of its g2
# vertices in turn and queues only that pair (counts into the rest of the
# equitable cell follow), so the verdict is exact.  It keeps its own stack of
# levels, so no recursion limit bounds the number of pinned pairs.  A
# discrete equitable partition pairs adjacent pairs with adjacent pairs; the
# mapping is still re-checked edge by edge in are_isomorphic.


def _refine(nbrs, cells, cell_of, queue, n1) -> bool:
    """Refine cells in place until equitable; False once a cell is unbalanced."""
    queued = set(queue)
    while queue:
        w = queue.popleft()
        queued.discard(w)
        counts = Counter(chain.from_iterable([nbrs[v] for v in cells[w]]))
        touched = {}
        for v, k in counts.items():
            touched.setdefault(cell_of[v], {}).setdefault(k, []).append(v)
        for c in sorted(touched):
            groups = touched[c]
            members = cells[c]
            if sum(map(len, groups.values())) < len(members):
                groups[0] = [v for v in members if v not in counts]
            if len(groups) == 1:
                continue
            frags = [groups[k] for k in sorted(groups)]
            if any(2 * sum(v < n1 for v in f) != len(f) for f in frags):
                return False
            ids = [c]
            cells[c] = frags[0]
            for f in frags[1:]:
                ids.append(len(cells))
                for v in f:
                    cell_of[v] = len(cells)
                cells.append(f)
            if c in queued:
                del ids[0]
            else:
                del ids[max(range(len(frags)), key=lambda i: len(frags[i]))]
            queue.extend(ids)
            queued.update(ids)
    return True


def _search(nbrs, n1):
    """A bijection g1 -> g2 keeping every refined cell, or None; depth first."""
    cells, cell_of, queue = [list(range(2 * n1))], [0] * (2 * n1), deque([0])
    levels = []  # per pinned pair: the partition, its target cell, v1, untried images
    while True:
        if _refine(nbrs, cells, cell_of, queue, n1):
            wide = [(len(members), c) for c, members in enumerate(cells) if len(members) > 2]
            if not wide:
                mapping = [0] * n1
                for a, b in map(sorted, cells):
                    mapping[a] = b - n1
                return mapping
            t = min(wide)[1]
            v1 = min(cells[t])
            levels.append((cells, cell_of, t, v1, iter(sorted(v for v in cells[t] if v >= n1))))
        while levels and (v2 := next(levels[-1][4], None)) is None:
            levels.pop()
        if not levels:
            return None
        parent, parent_of, t, v1, _ = levels[-1]
        cells = parent.copy()
        cells[t] = [v for v in parent[t] if v != v1 and v != v2]
        cells.append([v1, v2])
        cell_of = parent_of.copy()
        cell_of[v1] = cell_of[v2] = len(parent)
        queue = deque([len(parent)])


def are_isomorphic(g1: Graph, g2: Graph):
    """Return a vertex bijection g1 -> g2 preserving adjacency, or None.

    The returned mapping is re-verified edge by edge before being returned.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if sorted(map(len, g1.neighbors)) != sorted(map(len, g2.neighbors)):
        return None
    n1 = g1.n
    mapping = _search(g1.neighbors + tuple(tuple(w + n1 for w in nb) for nb in g2.neighbors), n1)
    if mapping is None:
        return None
    if sorted(mapping) != list(range(g1.n)):
        raise InternalCheckError("isomorphism search returned a partial mapping")
    image = {tuple(sorted((mapping[u], mapping[v]))) for (u, v) in g1.edges}
    if image != set(g2.edges):
        return None
    return mapping
