"""Machine-speed probe that puts timings on a common scale.

The benchmark shares its host with other tenants, and the host's speed
changes by up to 1.5x for tens of seconds at a time, longer than a run, so
the fastest or the median of a run's repeats still moves with the host.
The probe is a fixed half-millisecond mix of the kinds of work llpkit does
(a pure-Python float loop, small-array numpy calls, einsum on a 32-wide
layer, CSV parsing) and calls nothing from llpkit.  It runs five times
before every timed operation and, from a timer signal, every 20 ms while
the operation runs.  The operation's own time (its wall-clock minus the
probe runs inside it) divided by the median probe time no longer depends
on the host's state; multiplied by ``REFERENCE_S``, the probe's time on the
reference machine with the host quiet, it reads in seconds at that speed.
A change to llpkit moves the operation, never the probe.
"""

import contextlib
import csv
import io
import signal
import statistics
import time

import numpy as np

# The probe's time on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6 on OpenBLAS 0.3.31) with the host quiet.
REFERENCE_S = 0.00055

TICK_S = 0.02


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._batch = rng.random((256, 32))
        self._weight = rng.random((32, 32))
        self._small = rng.random(4)
        self._text = "\n".join(",".join(map(repr, row)) for row in rng.random((16, 3)).tolist())

    def once(self) -> float:
        """One probe run, in seconds."""
        start = time.perf_counter()
        total = 0.0
        for i in range(3000):
            total += i * 0.5
        for _ in range(40):
            np.clip(np.asarray(self._small), 1e-7, 1.0 - 1e-7).sum()
        for _ in range(2):
            np.einsum("ni,io->no", self._batch, self._weight)
        for row in csv.reader(io.StringIO(self._text)):
            [float(v) for v in row]
        return time.perf_counter() - start

    @contextlib.contextmanager
    def during(self):
        """Run the probe every TICK_S inside the block; yields the list
        its times are appended to."""
        samples = []

        def tick(signum, frame):
            samples.append(self.once())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn, *args, inside=True, **kwargs):
        """Call ``fn``; returns (value, own seconds, median probe seconds).

        With ``inside`` false the probe runs only before the call, for
        calls that wait on a child process, whose time would overlap it.
        """
        before = [self.once() for _ in range(5)]
        with self.during() if inside else contextlib.nullcontext([]) as samples:
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
        return value, elapsed - sum(samples), statistics.median(before + samples)


def scaled(seconds: float, probe_s: float) -> float:
    """A timing in seconds at the reference machine's speed."""
    return seconds / probe_s * REFERENCE_S
