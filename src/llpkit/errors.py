"""Exception types shared across the package, and two checks that raise one."""

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


def check_whole(values, what: str):
    """``values``, one number or an array of them, as whole numbers: a
    number as a Python int of any size, an array as int64.

    Whole numbers of any numeric type pass, 3.0 and ``np.uint8(3)`` as
    well as 3.  Raise UsageError for a number that is not whole (2.5, NaN,
    inf), for input that is not numeric (``'3'``, None, a ragged nesting)
    and for an array entry that int64 does not hold."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise UsageError(f"{what} must be whole numbers, got a ragged nesting") from None
    if array.ndim == 0:
        value = array.item()
        if isinstance(value, int) or isinstance(value, float) and value.is_integer():
            return int(value)
        raise UsageError(f"{what} must be a whole number, got {value!r}")
    if array.dtype.kind not in "biuf":
        raise UsageError(f"{what} must be whole numbers, got {array.dtype} entries")
    if array.dtype.kind in "uf":
        whole = (np.trunc(array) == array) & (abs(array) < 2.0**63)
        if not whole.all():
            bad = array[~whole].flat[0].item()
            raise UsageError(f"{what} must be whole numbers within int64, got {bad!r}")
    return array.astype(np.int64, copy=False)
