"""The one module that writes files: every writer makes the missing parent
directories of its path, then writes it atomically, and every CSV goes
through :func:`write_csv`."""

import contextlib
import json
import os

import numpy as np


def write_atomic(path, write) -> None:
    """Make the missing parent directories of ``path``, then call
    ``write(fh)`` on ``<path>.tmp`` and rename it over ``path``, so
    ``path`` is either the previous file or the complete new one.  If
    ``write`` raises, the temporary file is removed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# Rows per block of CSV text: one block is one %-format call, so the
# Python objects alive at once do not grow with the file.
_BLOCK_ROWS = 4096


def write_csv(path, header, columns, heads=None) -> None:
    r"""Write the ``header`` line, then row r of ``column[r]`` for each of
    ``columns``, every line ended by ``\r\n`` as ``csv.writer`` ends them.

    A number is written as round-trip text, a string as it is and None as
    an empty cell; a column that is None is empty on every row.  ``heads``
    is a pair ``(rows, head_columns)`` of integer columns: just before row
    ``rows[j]`` goes a line of cell j of each head column.  Rows are
    formatted ``_BLOCK_ROWS`` at a time from one row template repeated over
    the block, one ``%``-format call per block, and the head lines in one."""
    cells = [np.asarray(column) for column in columns if column is not None]
    # Only an object column, such as a list holding None, can hold None.
    cells = [np.where(np.equal(c, None), "", c) if c.dtype == object else c for c in cells]
    n = len(cells[0])
    lead = np.full(n, "", dtype=object)
    if heads is not None:
        rows, head_columns = heads
        values = np.column_stack(head_columns).ravel().tolist()
        template = ",".join(["%s"] * len(head_columns)) + "\r\n"
        lead[rows] = (template * len(rows) % tuple(values)).splitlines(keepends=True)
    cells.insert(0, lead)
    row = "%s" + ",".join("" if column is None else "%s" for column in columns) + "\r\n"

    def write(fh):
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _BLOCK_ROWS):
            block = np.empty((min(_BLOCK_ROWS, n - lo), len(cells)), dtype=object)
            for c, column in enumerate(cells):
                block[:, c] = column[lo : lo + _BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))

    write_atomic(path, write)


def write_json(path, payload, indent=None) -> None:
    """Write ``payload`` as JSON followed by a newline: compact by default,
    or indented by ``indent`` spaces."""

    def write(fh):
        json.dump(payload, fh, indent=indent)
        fh.write("\n")

    write_atomic(path, write)
