"""The one module that writes files: every writer makes the missing parent
directories of its path, then writes it atomically."""

import contextlib
import json
import os


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


def write_lines(path, lines) -> None:
    """Write ``lines`` one at a time, each ended by ``\r\n`` as csv.writer
    ends its rows."""
    write_atomic(path, lambda fh: fh.writelines(f"{line}\r\n" for line in lines))


def write_json(path, payload, indent=None) -> None:
    """Write ``payload`` as JSON followed by a newline: compact by default,
    or indented by ``indent`` spaces."""

    def write(fh):
        json.dump(payload, fh, indent=indent)
        fh.write("\n")

    write_atomic(path, write)
