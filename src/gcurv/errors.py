"""Exception types shared across the package, and the parameter checks."""


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
    """Raised when a connected graph is required.

    Carries two vertex components as a witness when available.
    """

    def __init__(self, components=None):
        self.components = components
        if components:
            a, b = components[0], components[1]
            msg = f"graph is disconnected: component {sorted(a)[:8]}... vs {sorted(b)[:8]}..."
        else:
            msg = "graph is disconnected"
        super().__init__(msg)


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


class NotDistanceRegularError(GcurvError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"graph is not distance regular (witness {witness})")


class NotParallelError(GcurvError):
    def __init__(self, e1, e2):
        self.pair = (e1, e2)
        super().__init__(f"edges {e1} and {e2} are not parallel")


class NotReflectiveError(GcurvError):
    def __init__(self, edge=None):
        self.edge = edge
        super().__init__(f"graph admits no reflection for edge {edge}")


class InvalidParameterError(GcurvError):
    pass


def check_vertex(n: int, x: int) -> None:
    """Raise InvalidParameterError unless x is a vertex of an n-vertex graph.

    Python's negative indexing would otherwise turn -1 into vertex n - 1.
    """
    if not 0 <= x < n:
        raise InvalidParameterError(f"vertex {x} out of range for n={n}")


class TrivialGraphError(GcurvError):
    pass


class FactorizationFailedError(GcurvError):
    """Internal inconsistency: no grouping of relation components verified."""


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
