"""Exception types shared across the package."""


class SatlabError(Exception):
    """Base class for all satlab errors."""


class ParameterError(SatlabError, ValueError):
    """A construction or query was called with out-of-range parameters."""


class Graph6Error(ParameterError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DomainError(ParameterError):
    """A closed-form evaluator was asked for a value outside its domain."""


class BudgetError(SatlabError):
    """A search exceeded its configured budget (size cap or time limit)."""
