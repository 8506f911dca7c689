"""Exception types shared across the package, and the parameter checks."""

from operator import index


class GcurvError(Exception):
    """Base class for all package specific errors."""


class SelfLoopError(GcurvError):
    def __init__(self, u: int):
        self.vertex = u
        super().__init__(f"self loop at vertex {u}")


class DuplicateEdgeError(GcurvError):
    def __init__(self, u: int, v: int):
        self.edge = (u, v)
        super().__init__(f"duplicate edge ({u}, {v})")


class DisconnectedError(GcurvError):
    """Raised for a disconnected graph; carries two components as a witness."""

    def __init__(self, components):
        self.components = components
        a, b = components
        super().__init__(f"graph is disconnected: component {sorted(a)[:8]}... vs {sorted(b)[:8]}...")


class NotAdjacentError(GcurvError):
    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"vertices {x} and {y} are not adjacent")


class SameVertexError(GcurvError):
    def __init__(self, x: int):
        self.vertex = x
        super().__init__(f"vertex pair ({x}, {x}) is degenerate")


class NoConvergenceError(GcurvError):
    pass


class NotReflectiveError(GcurvError):
    def __init__(self, edge=None):
        self.edge = edge
        super().__init__(f"graph admits no reflection for edge {edge}")


class InvalidParameterError(GcurvError):
    pass


def check_vertex(n: int, x: int) -> None:
    """Raise InvalidParameterError unless x is a vertex of an n-vertex graph.

    A vertex is an integer: operator.index accepts numpy integers and
    refuses floats and strings.  Python's negative indexing would otherwise
    turn -1 into vertex n - 1.
    """
    try:
        index(x)
    except TypeError:
        raise InvalidParameterError(f"vertex {x!r} is not an integer") from None
    if not 0 <= x < n:
        raise InvalidParameterError(f"vertex {x} out of range for n={n}")


def check_pair(n: int, x: int, y: int) -> None:
    """check_vertex on both ends, then SameVertexError if they coincide."""
    check_vertex(n, x)
    check_vertex(n, y)
    if x == y:
        raise SameVertexError(x)


class TrivialGraphError(GcurvError):
    pass


class NonpositiveCurvatureError(GcurvError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"minimum curvature {value} is not positive")


class ParseError(GcurvError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ", ".join(f"{name} {value}" for name, value in
                          (("line", line), ("column", column)) if value is not None)
        super().__init__(f"{message} ({where})" if where else message)


class InternalCheckError(GcurvError):
    """A self verification inside an algorithm failed; indicates a bug."""
