"""Exception types shared across the package, and one check that raises one."""

import numpy as np


class LlpError(Exception):
    """Base class for all errors raised by llpkit."""


class UsageError(LlpError):
    """The caller violated a documented precondition."""


class FormatError(UsageError):
    """A data file does not match its documented layout."""


class NumericalError(LlpError):
    """A computation produced a non-finite quantity."""


def check_floats(entries: int, what: str) -> None:
    """Raise UsageError if ``what``, ``entries`` float64 values, is more than
    numpy makes one array of: its size in bytes must fit in ``np.intp``."""
    if entries > np.iinfo(np.intp).max // 8:
        raise UsageError(f"{what} would need {entries} floats, more than one array holds")
