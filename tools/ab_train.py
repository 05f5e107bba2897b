"""Interleaved A/B timing of ``train()`` for two checkouts, in one process.

Usage, from the root of a checkout::

    python3 tools/ab_train.py PARENT_SRC CHANGE_SRC [--pairs 12] [--shapes ...]

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts.  Each one's ``llpkit`` package is copied into a temporary
directory under its own name (the package imports itself relatively), so
both load into this process.  For each fit shape of the benchmark's four
workloads (``perfbench/workloads.py``: the data, bag sizes, method, epochs,
batch size and learning rate of its timed ``train`` call), the two
``train`` calls run alternately, the parent first in even pairs and the
change first in odd ones, on datasets built from the same arrays.

A sample is the mean of as many calls as take about a quarter of a second.
Per shape it prints the median seconds of each side, the parent's
interquartile range as a share of its median, how many pairs the change
won, and whether every pair's parameter vectors, and every pair's curve
rows (``epoch``, ``loss``, ``log_likelihood``), have the same bytes.

A host whose speed drifts between processes by tens of percent still
keeps two interleaved calls in one process comparable: this resolves
differences of a few percent that separate benchmark runs cannot.  BLAS
runs single-threaded, as in the benchmark.
"""

import argparse
import importlib
import os
import shutil
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

# name: (method, instances, bag sizes, class separation, epochs, batch size,
# learning rate, folds); with folds, the fit trains on all folds but fold 0.
SHAPES = {
    "em-small-bags": ("mle", 3000, (2, 4), 2.0, 10, 256, 1e-3, 0),
    "em-large-bags": ("mle", 3000, (16, 64), 4.0, 4, 256, 3e-3, 0),
    "baselines-cv": ("amle", 3000, (2, 4), 2.0, 10, 64, 1e-3, 5),
    "ingest": ("amle", 100_000, (1, 8), 4.0, 3, 64, 1e-3, 10),
}


def load_package(src: str, name: str, directory: str):
    """Import the ``llpkit`` package under ``src`` as ``name``."""
    shutil.copytree(os.path.join(src, "llpkit"), os.path.join(directory, name))
    return importlib.import_module(name)


def fit_call(pkg, shape):
    """``() -> (theta, curve bytes)`` that trains ``pkg`` on the shape's
    dataset."""
    method, n, (lo, hi), sep, epochs, batch, rate, folds = shape
    rng = np.random.default_rng([0, 0, 0])
    labels = (rng.random(n) < 0.5).astype(np.int64)
    features = rng.standard_normal((n, 2))
    features[:, 0] += sep * labels
    dataset = pkg.data.make_bags(pkg.data.Instances(features, labels), lo, hi, 0)
    if folds:
        dataset = pkg.data.assign_folds(dataset, folds, 0).fold_split(0)[0]
    config = pkg.training.TrainConfig(
        method=method, max_epochs=epochs, patience=epochs, batch_size=batch,
        learning_rate=rate, seed=0,
    )

    def fit():
        params, record = pkg.training.train(dataset, config)
        return params.theta, curve_bytes(record)

    return fit


def curve_bytes(record) -> bytes:
    """The ``epoch``, ``loss`` and ``log_likelihood`` of every curve row as
    float64 bytes, with NaN for a blank log-likelihood."""
    rows = [
        (r.epoch, r.loss, np.nan if r.log_likelihood is None else r.log_likelihood)
        for r in record.rows
    ]
    return np.array(rows, dtype=np.float64).tobytes()


def quartiles(values):
    return np.percentile(values, [25, 50, 75])


def compare(name, parent, change, pairs: int) -> None:
    calls = (fit_call(parent, SHAPES[name]), fit_call(change, SHAPES[name]))
    calls[1]()  # warm up caches and lazy imports
    start = time.perf_counter()
    calls[0]()
    repeats = max(1, round(0.25 / (time.perf_counter() - start)))
    seconds = ([], [])
    same_theta = same_curve = True
    for pair in range(pairs):
        fits = [None, None]
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            for _ in range(repeats):
                fits[side] = calls[side]()
            seconds[side].append((time.perf_counter() - start) / repeats)
        (theta_a, curve_a), (theta_b, curve_b) = fits
        same_theta &= theta_a.tobytes() == theta_b.tobytes()
        same_curve &= curve_a == curve_b
    q1, med_a, q3 = quartiles(seconds[0])
    med_b = quartiles(seconds[1])[1]
    won = sum(b < a for a, b in zip(*seconds))
    print(
        f"{name:14s} parent {med_a:.4f} s (IQR {100 * (q3 - q1) / med_a:.1f}%)  "
        f"change {med_b:.4f} s ({100 * (med_b / med_a - 1):+.1f}%)  "
        f"won {won}/{pairs}  theta bytes {'match' if same_theta else 'DIFFER'}  "
        f"curve bytes {'match' if same_curve else 'DIFFER'}",
        flush=True,
    )


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
            compare(name, parent, change, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
