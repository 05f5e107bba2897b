"""Print one SHA-256 per file that a fixed set of ``llpkit`` commands writes.

The commands run in process, in a temporary directory, on relative paths:
``synth`` twice (training data and a held-out set), ``bag``, ``train
--eval`` for every method, ``train --folds 3``, ``eval`` of each
checkpoint, and ``sweep`` at bag sizes 2, 4 and 16.  Curve files are
hashed without their wall-clock ``seconds`` column; every other file is
hashed as written.  Then it runs a fixed set of commands that must fail
and prints, for each, its exit code (or the exception it raised), the
files it wrote and its stderr.  Two checkouts that print the same lines
wrote byte-identical outputs and failed alike.

Run it against the checkout whose ``src`` is on the path, e.g.::

    PYTHONPATH=src python3 tools/cli_digest.py > change.txt
    PYTHONPATH=../parent/src python3 tools/cli_digest.py > parent.txt
    diff parent.txt change.txt
"""

import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import llpkit
from llpkit.cli import main

METHODS = ("mle", "amle", "dllp", "supervised")
# Every training flag at a value other than TrainConfig's default, so that
# the digests cover how each flag reaches the config.
TRAIN_FLAGS = ["--epochs", "15", "--hidden", "8,8", "--seed", "1",
               "--batch-size", "48", "--lr", "0.002", "--patience", "6",
               "--rel-tol", "1e-4", "--threshold", "0.45"]


def commands():
    yield ["synth", "--n", "600", "--dim", "3", "--sep", "3", "--prior", "0.4",
           "--seed", "7", "--out", "data.csv"]
    yield ["synth", "--n", "300", "--dim", "3", "--sep", "3", "--prior", "0.4",
           "--seed", "8", "--out", "heldout.csv"]
    yield ["bag", "--in", "data.csv", "--min", "1", "--max", "6", "--seed", "3",
           "--out", "bags.csv"]
    for method in METHODS:
        yield ["train", "--method", method, "--bags", "bags.csv",
               "--eval", "heldout.csv", "--out", method, *TRAIN_FLAGS]
    yield ["train", "--method", "mle", "--bags", "bags.csv", "--folds", "3",
           "--out", "cv", *TRAIN_FLAGS]
    for method in METHODS:
        yield ["eval", "--checkpoint", f"{method}/checkpoint.json",
               "--data", "heldout.csv", "--out", f"{method}/eval.json"]
    yield ["sweep", "--data", "data.csv", "--sizes", "2,4,16",
           "--methods", ",".join(METHODS), "--folds", "3", "--out", "sweep.csv",
           *TRAIN_FLAGS]


def failing_commands():
    yield ["sweep", "--data", "data.csv", "--sizes", "2", "--methods", "dllp",
           "--folds", "1", "--out", "failed/sweep.csv"]
    yield ["sweep", "--data", "data.csv", "--sizes", "2,1000", "--methods", "dllp",
           "--folds", "3", "--out", "failed/sweep.csv"]
    yield ["train", "--method", "dllp", "--bags", "bags.csv",
           "--hidden", "99999999999999999999", "--out", "failed/train"]


def files() -> set[str]:
    return {p.as_posix() for p in Path(".").rglob("*") if p.is_file()}


def run_failing(argv) -> str:
    """One line: the command, how it ended, what it wrote, its stderr."""
    before = files()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            outcome = f"exit {main(argv)}"
        except Exception as exc:  # an uncaught error is a finding, not a crash
            outcome = f"raised {type(exc).__name__}: {exc}"
    written = sorted(files() - before) or "nothing"
    return f"{' '.join(argv)}: {outcome}, wrote {written}, stderr {err.getvalue()!r}"


def digest(path: Path) -> str:
    content = path.read_bytes()
    if path.name.startswith("curve"):
        rows = list(csv.reader(io.StringIO(content.decode("utf-8"))))
        if rows[0][-1] != "seconds":
            raise SystemExit(f"{path}: last column is {rows[0][-1]!r}, not seconds")
        content = "\n".join(",".join(row[:-1]) for row in rows).encode("utf-8")
    return hashlib.sha256(content).hexdigest()


def run() -> None:
    os.environ.pop("LLPKIT_OUT", None)
    print(f"# llpkit from {Path(llpkit.__file__).parent}", file=sys.stderr)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in commands():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    raise SystemExit(f"llpkit {' '.join(argv)} exited {code}")
            for path in sorted(files()):
                print(digest(Path(path)), path)
            for argv in failing_commands():
                print(run_failing(argv))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    run()
