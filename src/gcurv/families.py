"""Generators for the named graph families and Cartesian products.

Every generator produces a deterministic vertex labeling, and those of the
vertex-transitive families validate the result against the family's
expected order, regularity, and diameter before returning it.  Each
generator checks its size against the input budget (graphs.check_budget)
once its parameters are valid and before it lists a vertex or an edge.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InvalidParameterError, ParseError
from .graphs import MAX_VERTICES, Graph, _bfs_row, build_graph, check_budget


def _check(g: Graph, what: str, n: int, degree: int, diameter: int) -> Graph:
    """g, once its order, degree and diameter match; g must be vertex-transitive.

    On a vertex-transitive graph every eccentricity is the diameter, so one
    breadth-first search replaces the all-pairs distance matrix.
    """
    if g.n != n:
        raise InvalidParameterError(f"{what}: expected {n} vertices, built {g.n}")
    degs = {g.degree(v) for v in range(g.n)}
    if degs != {degree}:
        raise InvalidParameterError(f"{what}: expected {degree}-regular, got degrees {sorted(degs)}")
    ecc = max(_bfs_row(g, 0))
    if ecc != diameter:
        raise InvalidParameterError(f"{what}: expected diameter {diameter}, got {ecc}")
    return g


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    check_budget(*_SIZES["K"](n))
    return build_graph(n, list(combinations(range(n), 2)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    check_budget(*_SIZES["C"](n))
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("path needs n >= 1")
    check_budget(*_SIZES["P"](n))
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidParameterError("complete bipartite needs both sides nonempty")
    check_budget(*_SIZES["KB"](a, b))
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cocktail_party(k: int) -> Graph:
    """K_{k x 2}: 2k vertices, all edges except the pairing 2j ~ 2j+1."""
    if k < 2:
        raise InvalidParameterError("cocktail party graph needs k >= 2")
    check_budget(*_SIZES["CP"](k))
    edges = [
        (u, v)
        for u, v in combinations(range(2 * k), 2)
        if u // 2 != v // 2
    ]
    return _check(build_graph(2 * k, edges), f"CP({k})", 2 * k, 2 * k - 2, 2)


def johnson(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of an n-set, adjacent when they share k-1 elements."""
    if not (1 <= k <= n - 1):
        raise InvalidParameterError("johnson graph needs 1 <= k <= n-1")
    check_budget(*_SIZES["J"](n, k))
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for s, t in combinations(subsets, 2):
        if len(set(s) & set(t)) == k - 1:
            edges.append((index[s], index[t]))
    g = build_graph(len(subsets), edges)
    diam = min(k, n - k)
    return _check(g, f"J({n},{k})", len(subsets), k * (n - k), diam)


def halved_cube(n: int) -> Graph:
    """Even weight binary strings of length n, adjacent at Hamming distance 2."""
    if n < 2:
        raise InvalidParameterError("halved cube needs n >= 2")
    check_budget(*_SIZES["HQ"](n))
    words = [w for w in range(1 << n) if bin(w).count("1") % 2 == 0]
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for a, b in combinations(words, 2):
        if bin(a ^ b).count("1") == 2:
            edges.append((index[a], index[b]))
    g = build_graph(len(words), edges)
    return _check(g, f"HQ({n})", 1 << (n - 1), n * (n - 1) // 2, max(1, n // 2))


def schlafli() -> Graph:
    """The 27-vertex Schlafli graph.

    Vertices are labeled by the 27 lines on a cubic surface: a_i, b_i
    (i in 0..5) and c_{ij} ({i,j} a 2-subset).  Two vertices are adjacent
    exactly when the corresponding lines are disjoint (skew); incident lines
    under the classical double-six rules are non-adjacent.
    """
    labels = [("a", i) for i in range(6)] + [("b", i) for i in range(6)]
    labels += [("c", frozenset(p)) for p in combinations(range(6), 2)]
    index = {lab: i for i, lab in enumerate(labels)}

    def meets(p, q):
        (s, i), (t, j) = p, q
        if s == "a" and t == "a":
            return False
        if s == "b" and t == "b":
            return False
        if {s, t} == {"a", "b"}:
            return i != j
        if s == "c" and t == "c":
            return not (i & j)
        if s == "c":
            return j in i
        return i in j

    edges = [
        (index[p], index[q])
        for p, q in combinations(labels, 2)
        if not meets(p, q)
    ]
    return _check(build_graph(27, edges), "Schlafli", 27, 16, 2)


def gosset() -> Graph:
    """The 56-vertex Gosset graph.

    Vertices are signed 2-subsets of an 8-set.  Same sign pairs are adjacent
    when the subsets meet in one element; opposite sign pairs are adjacent
    when the subsets are disjoint.
    """
    pairs = list(combinations(range(8), 2))
    labels = [(+1, frozenset(p)) for p in pairs] + [(-1, frozenset(p)) for p in pairs]
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for (s, a), (t, b) in combinations(labels, 2):
        if s == t:
            ok = len(a & b) == 1
        else:
            ok = not (a & b)
        if ok:
            edges.append((index[(s, a)], index[(t, b)]))
    return _check(build_graph(56, edges), "Gosset", 56, 27, 3)


def petersen() -> Graph:
    """The Petersen graph: 2-subsets of a 5-set, adjacent when disjoint."""
    subsets = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for (i, s), (j, t) in combinations(enumerate(subsets), 2)
        if not set(s) & set(t)
    ]
    return _check(build_graph(10, edges), "Petersen", 10, 3, 2)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: (u1,u2) ~ (v1,v2) iff equal in one slot, adjacent in the other."""
    n2 = g2.n
    check_budget(g1.n * n2, g1.n * g2.m + g1.m * n2)
    edges = []
    for u1 in range(g1.n):
        base = u1 * n2
        for (a, b) in g2.edges:
            edges.append((base + a, base + b))
    for (a, b) in g1.edges:
        for u2 in range(n2):
            edges.append((a * n2 + u2, b * n2 + u2))
    return build_graph(g1.n * n2, edges)


def hamming(m: int, q: int) -> Graph:
    """m-fold Cartesian power of the complete graph on q vertices."""
    if m < 1 or q < 2:
        raise InvalidParameterError("hamming graph needs m >= 1 and q >= 2")
    g = complete_graph(q)
    for _ in range(m - 1):
        g = cartesian_product(g, complete_graph(q))
    return _check(g, f"H({m},{q})", q ** m, m * (q - 1), m)


def hypercube(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("hypercube needs n >= 1")
    return hamming(n, 2)


@dataclass(frozen=True)
class FamilySpec:
    """Parsed description of a generator invocation or product expression."""

    kind: str
    params: tuple = ()
    factors: tuple = field(default=())

    def label(self) -> str:
        if self.kind == "product":
            return "( " + " x ".join(f.label() for f in self.factors) + " )"
        if not self.params:
            return self.kind
        return f"{self.kind} " + " ".join(str(p) for p in self.params)

    def size(self) -> tuple:
        """(vertices, edges) of the graph build() would return, by arithmetic.

        Counts past MAX_VERTICES saturate at MAX_VERTICES + 1, so huge
        parameters cost nothing; invalid parameters give some count and are
        rejected by the generator.
        """
        if self.kind == "product":
            (n1, m1), (n2, m2) = (f.size() for f in self.factors)
            return n1 * n2, m1 * n2 + m2 * n1
        return _SIZES[self.kind](*self.params)

    def prime_factors(self) -> list:
        """(vertices, edges, kappa) of each prime factor of the built graph.

        kappa is the constant edge curvature of a factor on the paper's list
        (cocktail party, Johnson, halved cube, Schlafli, Gosset) and None for
        any other factor.
        """
        if self.kind == "product":
            return [p for f in self.factors for p in f.prime_factors()]
        return _PRIMES[self.kind](*self.params)

    def build(self) -> Graph:
        if self.kind == "product":
            left, right = self.factors
            return cartesian_product(left.build(), right.build())
        ctor = _GENERATORS[self.kind]
        return ctor(*self.params)


_GENERATORS = {
    "K": complete_graph,
    "C": cycle,
    "P": path_graph,
    "KB": complete_bipartite,
    "CP": cocktail_party,
    "J": johnson,
    "HQ": halved_cube,
    "Q": hypercube,
    "H": hamming,
    "schlafli": schlafli,
    "gosset": gosset,
    "petersen": petersen,
}

_ARITY = {
    "K": 1, "C": 1, "P": 1, "KB": 2, "CP": 1, "J": 2, "HQ": 1, "Q": 1, "H": 2,
    "schlafli": 0, "gosset": 0, "petersen": 0,
}

_KEYWORDS = {k.lower(): k for k in _GENERATORS}


def _regular(n: int, degree: int) -> tuple:
    return n, n * degree // 2


# (vertices, edges) per generator, as FamilySpec.size reports them
_SIZES = {
    "K": lambda n: (n, n * (n - 1) // 2),
    "C": lambda n: (n, n),
    "P": lambda n: (n, n - 1),
    "KB": lambda a, b: (a + b, a * b),
    "CP": lambda k: (2 * k, 2 * k * (k - 1)),
    "J": lambda n, k: _regular(_capped_comb(n, k), k * (n - k)),
    "HQ": lambda n: _regular(_capped_pow(2, n - 1), n * (n - 1) // 2),
    "Q": lambda n: _regular(_capped_pow(2, n), n),
    "H": lambda m, q: _regular(_capped_pow(q, m), m * (q - 1)),
    "schlafli": lambda: (27, 216),
    "gosset": lambda: (56, 756),
    "petersen": lambda: (10, 15),
}

_K2 = (2, 1, 2)


def _complete(n: int) -> list:
    # K n is J n 1, of curvature n; K 1 has no prime factor
    return [] if n == 1 else [(n, n * (n - 1) // 2, n)]


# prime factors per generator, as FamilySpec.prime_factors reports them
_PRIMES = {
    "K": _complete,
    "C": lambda n: _complete(3) if n == 3 else [_K2, _K2] if n == 4 else [(n, n, None)],
    "P": lambda n: _complete(n) if n <= 2 else [(n, n - 1, None)],
    "KB": lambda a, b: {(1, 1): [_K2], (2, 2): [_K2, _K2]}.get(
        (a, b), [(a + b, a * b, None)]),
    "CP": lambda k: [_K2, _K2] if k == 2 else [(2 * k, 2 * k * (k - 1), 2 * k - 2)],
    "J": lambda n, k: [_SIZES["J"](n, k) + (n,)],
    "HQ": lambda n: [_SIZES["HQ"](n) + (2 * n - 2,)],
    "Q": lambda n: n * [_K2],
    "H": lambda m, q: m * _complete(q),
    "schlafli": lambda: [(27, 216, 12)],
    "gosset": lambda: [(56, 756, 18)],
    "petersen": lambda: [(10, 15, None)],
}


def _capped_pow(base: int, exp: int) -> int:
    """base ** exp, or MAX_VERTICES + 1 once it exceeds MAX_VERTICES."""
    if base < 2:
        return 1
    out = 1
    for _ in range(exp):
        out *= base
        if out > MAX_VERTICES:
            return MAX_VERTICES + 1
    return out


def _capped_comb(a: int, b: int) -> int:
    """comb(a, b), or MAX_VERTICES + 1 once it exceeds MAX_VERTICES.

    The partial products comb(a - b + i, i) grow at least like 2^i, so the
    loop stops after a few dozen steps whatever the parameters.
    """
    b = min(b, a - b)
    out = 1
    for i in range(1, b + 1):
        out = out * (a - b + i) // i
        if out > MAX_VERTICES:
            return MAX_VERTICES + 1
    return out


# Products nested d deep have at least d + 1 factors, so more than 2^d
# vertices unless factors are K 1; deeper input is refused before the
# recursive parse, label and build can exhaust the stack.
MAX_PRODUCT_NESTING = 32


def parse_family(text: str) -> FamilySpec:
    """Parse a family expression such as "J 5 2" or "( CP 3 x K 2 )".

    Keywords are case insensitive and tokens are whitespace separated.
    Products nest, at most MAX_PRODUCT_NESTING deep: "( ( Q 2 x CP 3 ) x K 2 )".
    An expression with a subexpression whose graph would exceed the input
    budget of graphs.check_budget is refused here, before anything is built.
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty family expression")
    spec, pos = _parse_expr(tokens, 0, 0)
    if pos != len(tokens):
        raise ParseError("trailing input", column=pos + 1)
    return spec


def _sized(spec: FamilySpec, column: int) -> FamilySpec:
    """spec, once it has a vertex and fits the input budget.

    Every subexpression is built on its own, so each must fit.  A count
    below one comes from invalid parameters and, multiplied into a product,
    would hide the size of the other factor.
    """
    n, m = spec.size()
    if n < 1:
        raise ParseError(f"{spec.label()} has no vertices", column=column)
    check_budget(n, m)
    return spec


def _parse_expr(tokens, pos, depth):
    if pos >= len(tokens):
        raise ParseError("expression ends early", column=pos + 1)
    tok = tokens[pos]
    if tok == "(":
        start = pos
        if depth == MAX_PRODUCT_NESTING:
            raise ParseError(
                f"products nest deeper than {MAX_PRODUCT_NESTING} levels",
                column=pos + 1,
            )
        left, pos = _parse_expr(tokens, pos + 1, depth + 1)
        if pos >= len(tokens) or tokens[pos].lower() != "x":
            raise ParseError("expected 'x' inside product", column=pos + 1)
        right, pos = _parse_expr(tokens, pos + 1, depth + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ParseError("expected ')' closing product", column=pos + 1)
        return _sized(FamilySpec("product", factors=(left, right)), start + 1), pos + 1
    key = tok.lower()
    if key not in _KEYWORDS:
        raise ParseError(f"unknown family keyword {tok!r}", column=pos + 1)
    kind = _KEYWORDS[key]
    arity = _ARITY[kind]
    params = []
    for i in range(arity):
        if pos + 1 + i >= len(tokens):
            raise ParseError(f"{kind} needs {arity} integer parameter(s)", column=pos + 1)
        try:
            params.append(int(tokens[pos + 1 + i]))
        except ValueError:
            raise ParseError(
                f"parameter of {kind} must be an integer, got {tokens[pos + 1 + i]!r}",
                column=pos + 2 + i,
            )
    return _sized(FamilySpec(kind, tuple(params)), pos + 1), pos + 1 + arity
