"""Exception types shared across the package."""


class LlpError(Exception):
    """Base class for all errors raised by llpkit."""


class UsageError(LlpError):
    """The caller violated a documented precondition."""


class FormatError(UsageError):
    """A data file does not match its documented layout."""


class NumericalError(LlpError):
    """A computation produced a non-finite quantity."""
