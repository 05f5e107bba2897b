"""Interleaved A/B timing of the CSV steps for two checkouts, in one process.

Usage, from the root of a checkout::

    python3 tools/ab_ingest.py PARENT_SRC CHANGE_SRC [--pairs 12] [--shapes ...]

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts, loaded side by side as ``tools/ab_train.py`` loads them.  For
each shape, the labeled instances of the benchmark's workload of that name
(``perfbench/workloads.py``: its instance count, bag sizes and class
separation) are written once by each side, and each side's ``bag`` runs
once to write its bag file and a copy of it with every cell quoted.  Then
six steps run alternately, the parent first in even pairs and the change
first in odd ones:

- ``bag``: the ``llpkit bag`` command, through the side's ``cli.main``:
  load, bag and write;
- ``save_instances_csv`` of the instances, and ``save_bags_csv`` of the
  bags ``make_bags`` makes of them with ``bag``'s sizes and seed, so the
  writers are timed apart from the loading and bagging inside ``bag``;
- ``load_bags_csv`` of the bag file that side's ``bag`` wrote;
- ``load_quoted_bags_csv``: ``load_bags_csv`` of the quoted copy, which
  numpy's reader declines, so the exact ``csv.reader`` parse is timed;
- ``load_instances_csv`` of the instance file that side wrote.

A sample is the mean of as many calls as take about a quarter of a second.
Per shape and step it prints the median seconds of each side, the parent's
interquartile range as a share of its median, and how many pairs the
change won.  Per shape it prints whether the two sides' files have the
same bytes, and whether the two sides' loads of the bag file, of its quoted
copy and of the instance file give arrays of the same bytes: features,
labels, and for bags the offsets, counts and instance ids.
"""

import argparse
import contextlib
import importlib
import io
import os
import sys
import tempfile
import time

import numpy as np

from ab_train import load_package, quartiles

# name: (instances, bag sizes, class separation)
SHAPES = {
    "ingest": (100_000, (1, 8), 4.0),
    "em-small-bags": (3000, (2, 4), 2.0),
}
STEPS = (
    "bag", "save_instances_csv", "save_bags_csv", "load_bags_csv", "load_quoted_bags_csv",
    "load_instances_csv",
)
FILES = ("train.csv", "bags.csv", "quoted_bags.csv", "saved_train.csv", "saved_bags.csv")
LOADS = ("load_bags_csv", "load_quoted_bags_csv", "load_instances_csv")


def step_calls(pkg, directory: str, shape) -> dict:
    """The timed steps of ``pkg`` on the shape's instances, written to
    ``directory`` with the bag file and its quoted copy."""
    n, (lo, hi), sep = shape
    rng = np.random.default_rng([0, 0, 0])
    labels = (rng.random(n) < 0.5).astype(np.int64)
    features = rng.standard_normal((n, 2))
    features[:, 0] += sep * labels
    train, bags, quoted, saved_train, saved_bags = (os.path.join(directory, f) for f in FILES)
    instances = pkg.data.Instances(features, labels)
    dataset = pkg.data.make_bags(instances, lo, hi, 0)
    pkg.data.save_instances_csv(train, instances)
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    argv = ["bag", "--in", train, "--min", str(lo), "--max", str(hi), "--seed", "0", "--out", bags]

    def bag():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"{pkg.__name__}: bag failed")

    bag()
    with open(bags, newline="") as fh:
        lines = fh.read().splitlines()
    with open(quoted, "w", newline="") as fh:
        fh.writelines(",".join(f'"{c}"' for c in line.split(",")) + "\r\n" for line in lines)
    return {
        "bag": bag,
        "save_instances_csv": lambda: pkg.data.save_instances_csv(saved_train, instances),
        "save_bags_csv": lambda: pkg.data.save_bags_csv(saved_bags, dataset),
        "load_bags_csv": lambda: pkg.data.load_bags_csv(bags),
        "load_quoted_bags_csv": lambda: pkg.data.load_bags_csv(quoted),
        "load_instances_csv": lambda: pkg.data.load_instances_csv(train),
    }


def time_pairs(calls, pairs: int):
    """(parent seconds, change seconds) per pair of ``calls``."""
    calls[1]()  # warm up caches and lazy imports
    start = time.perf_counter()
    calls[0]()
    repeats = max(1, round(0.25 / (time.perf_counter() - start)))
    seconds = ([], [])
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            for _ in range(repeats):
                calls[side]()
            seconds[side].append((time.perf_counter() - start) / repeats)
    return seconds


def same_bytes(a: str, b: str) -> str:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return "match" if fa.read() == fb.read() else "DIFFER"


def array_bytes(loaded) -> list:
    """dtype, shape and bytes of every array of a loaded dataset or
    instances."""
    arrays = []
    if hasattr(loaded, "instances"):
        arrays = [loaded.offsets, loaded.counts, loaded.instance_ids]
        loaded = loaded.instances
    arrays += [loaded.features, loaded.labels]
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def compare(name, parent, change, directory: str, pairs: int) -> None:
    dirs = [os.path.join(directory, name, side) for side in ("parent", "change")]
    for d in dirs:
        os.makedirs(d)
    sides = (step_calls(parent, dirs[0], SHAPES[name]), step_calls(change, dirs[1], SHAPES[name]))
    for step in STEPS:
        seconds = time_pairs([side[step] for side in sides], pairs)
        q1, med_a, q3 = quartiles(seconds[0])
        med_b = quartiles(seconds[1])[1]
        won = sum(b < a for a, b in zip(*seconds))
        print(
            f"{name:14s} {step:20s} parent {med_a:.4f} s (IQR {100 * (q3 - q1) / med_a:.1f}%)  "
            f"change {med_b:.4f} s ({100 * (med_b / med_a - 1):+.1f}%)  won {won}/{pairs}",
            flush=True,
        )
    files = [
        f"{file} bytes {same_bytes(*(os.path.join(d, file) for d in dirs))}"
        for file in FILES
    ]
    print(f"{name:14s} {'  '.join(files)}", flush=True)
    loads = [
        f"{step} arrays "
        f"{'match' if array_bytes(sides[0][step]()) == array_bytes(sides[1][step]()) else 'DIFFER'}"
        for step in LOADS
    ]
    print(f"{name:14s} {'  '.join(loads)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--shapes", nargs="+", choices=sorted(SHAPES), default=list(SHAPES))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        sys.path.insert(0, directory)
        parent = load_package(args.parent_src, "llpkit_parent", directory)
        change = load_package(args.change_src, "llpkit_change", directory)
        for name in args.shapes:
            compare(name, parent, change, directory, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
