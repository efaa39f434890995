"""Exception hierarchy shared across the engine."""


class SdgError(Exception):
    """Base class for engine errors."""


class ContextMismatchError(SdgError):
    """Operands live in different (arity, dimension) contexts."""


class DomainError(SdgError):
    """A smooth primitive was applied outside its domain."""


class DegreeError(SdgError):
    """Form degrees are inconsistent for the requested operation."""


class RankDeficiencyError(SdgError):
    """A distribution/patch lost rank at a sample point."""


class LogBranchError(SdgError):
    """Matrix logarithm has no usable principal branch."""


class ParseError(SdgError):
    """Surface-language error, with position information."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
