"""Shared exception types with stable meaning across the package."""


class HtwkError(Exception):
    """Base class for every error raised by this package."""


class _SpecError(HtwkError):
    """An error in spec text; a known source span ends the message."""

    def __init__(self, message, span=None):
        self.span = None if span is None else (int(span[0]), int(span[1]))
        if self.span is not None:
            message = f"{message} (at {self.span[0]}:{self.span[1]})"
        super().__init__(message)


class SpecSyntaxError(_SpecError):
    """Malformed distribution spec text; carries the offending source span
    as a plain (start, end) character-offset pair."""


class SpecValidationError(_SpecError):
    """Well-formed spec that violates a semantic constraint."""


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
