"""Time and memory of the E-step kernel, ``poisson_binomial.PosteriorPlan``,
and time of the inference pass, ``network.forward``.

Usage, from the root of a checkout::

    python3 tools/bench_kernel.py [--src SRC]

``SRC`` is the ``src`` directory whose ``llpkit`` is measured (default: the
one next to this script), so one copy of this script measures any checkout.
It prints one JSON object whose ``kernel`` entry gives, for each of six
fixed shapes, the median seconds of one one-shot call,
``PosteriorPlan(sizes, counts).run(p)``, over ``REPEATS`` samples, each
sample the mean of as many calls as take about 0.1 s, and the
``tracemalloc`` peak of one call in MiB.  Beside them,
``planned_median_s`` times one ``PosteriorPlan.run`` on a plan built
outside the timed loop, which is what each E-step of a fit pays.  A
checkout that predates ``PosteriorPlan`` times its ``batch_posteriors``
as the one-shot call, and its ``planned_median_s`` is null.  The shapes:
1000 bags of 2-4 and 79 bags of 16-64 (the bag sizes of the benchmark's
``em-small-bags`` and ``em-large-bags``), 16 bags of 256, 4 bags of 1024,
16 bags of 128 with most probabilities on a clamp edge, whose floors all
lie below ``_LINEAR_FLOOR``, so that the whole group is tilted, and 781
bags of 64, one width group that fills six chunks of at most 136 bags.
Probabilities are uniform and clamped, except the edge ones; counts are
drawn from the probabilities, so that every bag is a likely one.

The ``forward`` entry gives the median seconds of one ``network.forward``
call on 2000, 3000 and 10^5 rows (an E-step's and a held-out set's pass in
the benchmark's fits, and ``llpkit eval`` of the ``ingest`` workload) at
layer sizes ``(2, 32, 32, 1)``, with the parameter vector copied to each of
the eight 8-byte offsets from a 64-byte boundary, keyed by that offset in
bytes.

The ``step`` entry gives the median microseconds of one training step,
``network.TrainingStep`` (network pass, loss, chain rule, gradient scaling
and Adam), at the step sizes of the four fit shapes of
``tools/ab_train.py``: 256 instances under ``m_step_loss`` (both ``em-*``
shapes), and 64 bags of 2-4 (about 184-192 rows, ``baselines-cv``) and of
1-8 (about 288 rows, ``ingest``) under ``amle_batch_loss``, all at layer
sizes ``(2, 32, 32, 1)``.  It is null for a checkout without
``TrainingStep``.

BLAS runs single-threaded, as in the benchmark.  Every input comes from a
fixed seed.
"""

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

REPEATS = 15

# name: (bags, smallest size, largest size, share of probabilities on a
# clamp edge)
SHAPES = {
    "1000 bags of 2-4": (1000, 2, 4, 0.0),
    "79 bags of 16-64": (79, 16, 64, 0.0),
    "16 bags of 256": (16, 256, 256, 0.0),
    "4 bags of 1024": (4, 1024, 1024, 0.0),
    "16 tilted bags of 128": (16, 128, 128, 0.8),
    "781 bags of 64": (781, 64, 64, 0.0),
}

FORWARD_SIZES = (2, 32, 32, 1)
FORWARD_ROWS = (2000, 3000, 100_000)

# name: (method, items per step, smallest bag, largest bag); mle's items
# are instances.
STEP_SHAPES = {
    "em-*: 256 instances, m_step_loss": ("mle", 256, 1, 1),
    "baselines-cv: 64 bags of 2-4, amle": ("amle", 64, 2, 4),
    "ingest: 64 bags of 1-8, amle": ("amle", 64, 1, 8),
}


def kernel_inputs(pb, shape, seed):
    bags, lo, hi, edge_share = shape
    rng = np.random.default_rng(seed)
    sizes = rng.integers(lo, hi + 1, size=bags)
    p = rng.random(int(sizes.sum()))
    edge = rng.random(p.size) < edge_share
    p[edge] = rng.integers(0, 2, size=int(edge.sum()))
    p = pb.clamp_probabilities(p)
    positive = rng.random(p.size) < p
    counts = np.add.reduceat(positive, np.concatenate(([0], np.cumsum(sizes)[:-1])))
    return p, sizes, counts


def sample(call):
    """Median seconds of ``call`` over ``REPEATS`` samples of ~0.1 s each."""
    call()
    start = time.perf_counter()
    call()
    calls = max(1, round(0.1 / (time.perf_counter() - start)))
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        seconds.append((time.perf_counter() - start) / calls)
    return statistics.median(seconds)


def traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def forward_times(network):
    """{rows: {offset in bytes: median seconds of network.forward}}."""
    params = network.init_params(FORWARD_SIZES, 0)
    size = params.theta.size
    buffer = np.empty(size + 15)
    base = -buffer.ctypes.data % 64 // 8
    times = {}
    for seed, rows in enumerate(FORWARD_ROWS):
        batch = np.random.default_rng(seed).standard_normal((rows, FORWARD_SIZES[0]))
        times[f"{rows} rows"] = per_offset = {}
        for k in range(8):
            theta = buffer[base + k : base + k + size]
            theta[:] = params.theta
            placed = network.ClassifierParams(FORWARD_SIZES, theta)
            assert placed.theta.ctypes.data % 64 == 8 * k
            per_offset[str(8 * k)] = sample(lambda: network.forward(placed, batch))
    return times


def step_times(network, objectives):
    """{shape: {"rows": batch rows, "median_us": one step}}, or None."""
    if not hasattr(network, "TrainingStep"):
        return None
    times = {}
    for seed, (name, (method, items, lo, hi)) in enumerate(STEP_SHAPES.items()):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(lo, hi + 1, size=items)
        batch = rng.standard_normal((int(sizes.sum()), FORWARD_SIZES[0]))
        if method == "mle":
            targets = rng.random(items)

            def loss(probs, targets=targets):
                return objectives.m_step_loss(probs, targets)

        else:
            counts = rng.integers(0, sizes + 1).astype(np.float64)

            def loss(probs, sizes=sizes, counts=counts):
                return objectives.amle_batch_loss(probs, sizes, counts)

        step = network.TrainingStep(network.init_params(FORWARD_SIZES, seed), 1e-3)
        times[name] = {
            "rows": len(batch),
            "median_us": 1e6 * sample(lambda: step(batch, loss, items)),
        }
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from llpkit import network, objectives
    from llpkit import poisson_binomial as pb

    kernel = {}
    for seed, (name, shape) in enumerate(SHAPES.items()):
        p, sizes, counts = kernel_inputs(pb, shape, seed)
        planned = hasattr(pb, "PosteriorPlan")
        if planned:
            call = lambda: pb.PosteriorPlan(sizes, counts).run(p)  # noqa: E731
        else:
            call = lambda: pb.batch_posteriors(p, sizes, counts)  # noqa: E731
        kernel[name] = {
            "median_s": sample(call),
            "traced_peak_mib": traced_peak_mib(call),
            "planned_median_s": None,
        }
        if planned:
            plan = pb.PosteriorPlan(sizes, counts)
            kernel[name]["planned_median_s"] = sample(lambda: plan.run(p))

    print(json.dumps({
        "llpkit": str(Path(pb.__file__).parent),
        "numpy": np.__version__,
        "kernel": kernel,
        "forward": forward_times(network),
        "step": step_times(network, objectives),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
