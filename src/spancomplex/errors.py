"""Exception hierarchy shared by all spancomplex modules."""


class SpanComplexError(Exception):
    """Base class for all errors raised by this package."""


class GraphValidationError(SpanComplexError, ValueError):
    """A multigraph failed structural validation."""


class EmptyGraphError(GraphValidationError):
    """Vertex or edge list is empty; no spanning structure is possible."""


class DuplicateEdgeIdError(GraphValidationError):
    """Two edges share the same identifier."""


class UnknownEndpointError(GraphValidationError):
    """An edge names a vertex that was not declared."""


class LoopEdgeError(GraphValidationError):
    """An edge joins a vertex to itself; loops are never in a spanning tree."""


class DisconnectedGraphError(GraphValidationError):
    """Some vertex is unreachable from the first one."""


class NotUnicyclicError(SpanComplexError):
    """The class-level quotient graph does not have exactly one cycle of
    length >= 3."""


class SchemaError(SpanComplexError, ValueError):
    """A graph input file violates the expected JSON schema."""


class BudgetExceededError(SpanComplexError):
    """An enumeration stage was given more edges than ``kernels.EDGE_BUDGET``.

    The budget is passed in, because ``kernels`` imports this module."""

    def __init__(self, stage: str, size: int, budget: int):
        self.stage = stage
        self.size = size
        self.budget = budget
        super().__init__(
            f"{stage}: instance has {size} edges, exceeding the enumeration "
            f"budget of {budget}"
        )

