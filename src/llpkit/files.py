"""Atomic file output shared by every writer in the package."""

import contextlib
import os


def write_atomic(path, write) -> None:
    """Call ``write(fh)`` on ``<path>.tmp``, then rename it over ``path``,
    so ``path`` is either the previous file or the complete new one.  If
    ``write`` raises, the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_lines(path, lines) -> None:
    """Write ``lines`` one at a time, each ended by ``\r\n`` as csv.writer
    ends its rows."""
    write_atomic(path, lambda fh: fh.writelines(f"{line}\r\n" for line in lines))
