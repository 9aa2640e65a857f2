"""Exception types shared across the package."""


class EdgeListParseError(ValueError):
    """Raised when an edge-list document cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EnumerationGateError(RuntimeError):
    """Raised when exponential work would pass a gate: the vertex gate,
    or the oracle's generator or dimension gate."""


class GraphRequirementError(ValueError):
    """Raised when a graph violates a structural hypothesis of an
    operation (e.g. canonical representations require a connected
    bipartite graph)."""


class NotSupportingHyperplaneError(ValueError):
    """Raised when a hyperplane has edge vectors strictly on both of
    its sides, so it does not support the edge cone and cuts no face."""
