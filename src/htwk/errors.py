"""Shared exception types with stable meaning across the package."""


class HtwkError(Exception):
    """Base class for every error raised by this package."""


class SpecSyntaxError(HtwkError):
    """Malformed distribution spec text; carries the offending source span
    as a plain (start, end) character-offset pair."""

    def __init__(self, message, span):
        start, end = span
        self.span = (int(start), int(end))
        super().__init__(f"{message} (at {self.span[0]}:{self.span[1]})")


class SpecValidationError(HtwkError):
    """Well-formed spec that violates a semantic constraint."""

    def __init__(self, message, span=None):
        self.span = None
        if span is not None:
            start, end = span
            self.span = (int(start), int(end))
            message = f"{message} (at {self.span[0]}:{self.span[1]})"
        super().__init__(message)


class DivergenceError(HtwkError):
    """An improper integral was judged divergent; carries the partial sum."""

    def __init__(self, message, partial=float("nan")):
        super().__init__(message)
        self.partial = partial


class HorizonError(HtwkError):
    """A grid was queried or filled beyond its resolvable horizon."""


class BudgetError(HtwkError):
    """A simulation exceeded its configured step budget."""


class PreconditionError(HtwkError):
    """Operation preconditions not met by the supplied model or data."""
