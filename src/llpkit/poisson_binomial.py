"""Poisson binomial bag likelihood and instance posteriors.

When the instances of a bag are independent Bernoulli variables with
individual success probabilities ``p_i``, the number of positive instances
follows a Poisson binomial distribution.  Count-supervised training needs
two quantities from it: the log pmf of each bag's observed count and the
per-instance posterior probabilities given that count (the soft
cross-entropy targets).

Both come from one kernel, entered only through :class:`PosteriorPlan`.
It runs a product tree over count distributions in linear space (Tarlow,
Swersky, Zemel, Adams and Frey, "Fast Exact Inference for Recursive
Cardinality Models", UAI 2012) for many bags at once: one upward pass
builds the count distribution of every subtree, one downward pass the
count distribution outside it, each as one batched product per tree
level.  That is O(n * y) time and about n * (log2 n + 9) floats per bag,
in O(log n) numpy calls per chunk of bags.  A bag whose terms could leave
the normal float64 range is first tilted: its odds are scaled until its
count is typical, which leaves its posteriors unchanged and shifts its log
pmf by a known amount.  So the kernel holds at any bag size: a bag whose
pmf underflows float64 still gets finite log-likelihoods and posteriors
that sum to its count.

How bags are grouped, padded and chunked follows from their sizes and
counts alone.  A plan holds it, so that the E-step builds it once per
dataset and runs it on each new probability vector.  Only bags of more
than 43 instances can need a tilt, so a run computes floors only in the
chunks that hold one.  :func:`instance_posteriors` and
:func:`bag_log_likelihood` run a one-bag plan.

The one-bag forms clamp probabilities into ``[CLAMP_EPS, 1 - CLAMP_EPS]``
so that every consistent count has strictly positive probability and logs
stay finite; :meth:`PosteriorPlan.run` expects them clamped already and
does not clamp.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import UsageError, check_whole

# Clamp width for instance probabilities; keeps pb(p, y) > 0 for any valid y
# while perturbing well-scaled probabilities by at most 1e-7.
CLAMP_EPS = 1e-7

# Floats that one chunk of a PosteriorPlan may hold in its tree (1 MiB), so
# the kernel's working memory does not grow with the number of bags.
_TABLE_BUDGET = 1 << 17

# Lowest bag floor, sum_i log min(p_i, 1 - p_i) over the bag's instances,
# at which a PosteriorPlan runs the bag's tree untilted.  Every nonzero
# count probability of a subtree or of its outside, and every product of
# two of them, in the tree is a sum of assignment probabilities of disjoint
# sets of instances, each at least exp(floor); this bound keeps them
# above the smallest normal float64, exp(-708.4).
_LINEAR_FLOOR = -700.0

# Largest bag that passes _LINEAR_FLOOR at any clamped probabilities, 43:
# each instance adds at least log(CLAMP_EPS) to its bag's floor.
_ALWAYS_LINEAR = int(_LINEAR_FLOOR / math.log(CLAMP_EPS))


def clamp_probabilities(p) -> np.ndarray:
    """Validate a probability vector and clamp it away from 0 and 1.

    Raises UsageError if the input is not a finite 1-d vector with entries
    in [0, 1].
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise UsageError(f"probability vector must be 1-d, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise UsageError("probability vector contains non-finite entries")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise UsageError("probability vector entries must lie in [0, 1]")
    return _clamp(p)


def _clamp(p: np.ndarray) -> np.ndarray:
    """:func:`clamp_probabilities` without its checks, for float64 values
    already known to be finite, such as the outputs of ``network.forward``.
    It gives the bits of ``np.clip``, NaN and signed zeros included, in
    less time per call."""
    return np.minimum(np.maximum(p, CLAMP_EPS), 1.0 - CLAMP_EPS)


def instance_posteriors(p, y: int) -> np.ndarray:
    """P(instance i is positive | bag count y), for every instance.

    One bag through a :class:`PosteriorPlan`; the y = 0 and y = n bags
    come out as exact 0/1 targets.
    """
    p = clamp_probabilities(p)
    phi, _ = PosteriorPlan([p.size], [y]).run(p)
    return phi


def bag_log_likelihood(p, y: int) -> float:
    """Log pmf of the observed count; finite thanks to clamping, at any
    bag size."""
    p = clamp_probabilities(p)
    _, log_pb = PosteriorPlan([p.size], [y]).run(p)
    return float(log_pb[0])


class PosteriorPlan:
    """Instance posteriors and log pmf of the observed count, for many
    bags: the kernel's one entry point.  ``sizes`` and ``counts`` give each
    bag's length and positive count; what follows from them alone is built
    here once, and :meth:`run` takes any number of probability vectors.

    Bags are grouped by the power of two at or above their size and
    padded to that width with p = 0 instances, which leave every count
    distribution unchanged.  Each chunk of a group goes through one
    linear-space product tree, :func:`_tree`.  A tree holds every level's
    count distributions and three arrays the size of the widest level, at
    most width * (log2 width + 9) floats per bag; chunks are sized by that
    bound to fit a fixed float budget, and a bag is never split.  A bag's
    results are bit-identical whichever bags share its chunk: see
    :func:`_tree`.

    A bag whose floor, sum_i log min(p_i, 1 - p_i), lies below
    ``_LINEAR_FLOOR`` is tilted by :func:`_tilt` before its tree, so that
    its count probabilities cannot underflow.  A clamped bag of at most
    ``_ALWAYS_LINEAR`` instances never is, so every chunk is cut here,
    once, and only a chunk with a larger bag computes floors on a run:
    over its gathered rows, for its larger bags.  The bags that lie below
    are tilted in place, and the chunk still runs one tree.

    Raises UsageError unless sizes and counts are 1-d arrays of whole
    numbers, one per bag, with sizes nonnegative and every count in
    [0, size].
    """

    def __init__(self, sizes, counts):
        sizes = check_whole(sizes, "bag sizes")
        counts = check_whole(counts, "bag counts")
        if np.ndim(sizes) != 1 or np.shape(sizes) != np.shape(counts):
            raise UsageError(
                "probabilities, sizes and counts must be 1-d, one size per count"
            )
        if sizes.size and sizes.min() < 0:
            raise UsageError("bag sizes must be nonnegative")
        bad = np.flatnonzero((counts < 0) | (counts > sizes))
        if bad.size:
            j = int(bad[0])
            raise UsageError(
                f"bag {j}: positive count {counts[j]} outside [0, {sizes[j]}]"
            )
        self.sizes, self.counts = sizes, counts
        self.num_instances = int(sizes.sum())
        offsets = np.cumsum(sizes) - sizes
        widths = 1 << np.ceil(np.log2(np.maximum(sizes, 1))).astype(np.int64)
        # A chunk is (bags, gather, may_tilt): gather[k, c] is the row of
        # probs at column c of bag k, or num_instances for a pad column, and
        # may_tilt says whether a bag of the chunk is over _ALWAYS_LINEAR.
        # Each chunk holds as many bags of one width as fit _TABLE_BUDGET
        # floats, at least one.
        self.chunks = []
        for width in sorted(set(widths.tolist())):
            members = np.flatnonzero(widths == width)
            cols = np.arange(width)
            gather = offsets[members, None] + cols
            gather[cols >= sizes[members, None]] = self.num_instances
            per_chunk = max(1, _TABLE_BUDGET // (width * (width.bit_length() - 1 + 9)))
            for lo in range(0, members.size, per_chunk):
                bags = members[lo : lo + per_chunk]
                may_tilt = bool(sizes[bags].max() > _ALWAYS_LINEAR)
                self.chunks.append((bags, gather[lo : lo + per_chunk], may_tilt))

    def run(self, probs) -> tuple[np.ndarray, np.ndarray]:
        """``(phi, log_pb)`` for the planned bags at ``probs``, which stacks
        the bags' instance probabilities, clamped as by
        :func:`clamp_probabilities`: ``phi[i]`` is P(instance i positive |
        its bag's count) and ``log_pb[j]`` is log pb(p_j, y_j).

        A result that is not finite is returned as is; callers that need
        finite values check for it.  A NaN probability leaves every other
        bag's results as they are.
        """
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1:
            raise UsageError(
                "probabilities, sizes and counts must be 1-d, one size per count"
            )
        if probs.size != self.num_instances:
            raise UsageError(
                f"bag sizes cover {self.num_instances} of {probs.size} probabilities"
            )
        # Pad columns gather the appended 0 and scatter into the last entry.
        padded = np.append(probs, 0.0)
        phi = np.empty(padded.size)
        log_pb = np.empty(self.counts.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for bags, rows, may_tilt in self.chunks:
                p = padded[rows]
                q = 1.0 - p
                counts = self.counts[bags]
                tilted = None
                if may_tilt and (below := self._below(bags, p)).any():
                    tilted = bags[below]
                    p[below], q[below], shift = _tilt(
                        p[below], self.sizes[tilted], counts[below]
                    )
                phi[rows], log_pb[bags] = _tree(p, q, counts)
                if tilted is not None:
                    log_pb[tilted] += shift
        return phi[:-1], log_pb

    def _below(self, bags, p) -> np.ndarray:
        """Which of ``bags``, gathered into ``p``, have more than
        ``_ALWAYS_LINEAR`` instances and a floor below ``_LINEAR_FLOOR``.

        A floor adds its bag's terms one after another, in row order; a
        NaN floor (NaN input) counts as below.
        """
        sizes = self.sizes[bags]
        terms = np.minimum(np.log(p), np.log1p(-p))
        floor = np.cumsum(terms, axis=1)[np.arange(bags.size), sizes - 1]
        return (sizes > _ALWAYS_LINEAR) & ~(floor >= _LINEAR_FLOOR)


def _tilt(p, sizes, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tilt bags padded to a common width until their counts are typical.

    Scaling every odds p_i / (1 - p_i) of a bag by e^theta leaves the
    distribution of its labels given their sum, so its posteriors, unchanged
    and gives log pb(y) = log pb'(y) + sum_i log(1 - p_i + p_i e^theta) -
    theta y.  Theta takes 40 bisection steps towards a tilted expected count
    of clip(y, 1/2, n - 1/2), where pb'(y) is far from underflow; as
    clamping keeps |logit p| below 16.2, [-40, 40] brackets it for any bag.
    Returns the tilted p and 1 - p, and log pb(y) - log pb'(y) per bag.
    """
    log_p, log_q = np.log(p), np.log1p(-p)
    target = np.clip(counts, 0.5, sizes - 0.5)[:, None]
    lo, hi = np.full(target.shape, -40.0), np.full(target.shape, 40.0)
    for _ in range(40):
        theta = (lo + hi) / 2
        mean = (1.0 / (1.0 + np.exp(log_q - log_p - theta))).sum(axis=1, keepdims=True)
        lo, hi = np.where(mean > target, lo, theta), np.where(mean > target, theta, hi)
    theta = (lo + hi) / 2
    z = log_p - log_q + theta
    shift = np.logaddexp(log_q, log_p + theta).sum(axis=1) - theta[:, 0] * counts
    return 1.0 / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)), shift


def _tree(p, q, counts) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors and log pmf for bags padded to a common power-of-two width.

    ``p`` and ``q`` hold p and 1 - p per bag row.  The upward pass builds
    the count distribution of every node of a balanced binary tree over the
    instances, one batched convolution of sibling pairs per level; the
    downward pass carries, for every node u, D_u[c] = P(y - c positives
    outside u), one batched correlation with the sibling per level.  At
    leaf i, a = p_i D_i[1] and r = (1 - p_i) D_i[0], and the posterior is
    a / (a + r), which is exactly 0 for y = 0 and exactly 1 for y = n;
    pb(y) is read from the root.  Count distributions are cut off above
    the largest count, which no lower count depends on.  The bags must not
    underflow: see ``_LINEAR_FLOOR`` and :func:`_tilt`.

    Every count probability is a dot product of a distribution with a
    window over another, taken by ``np.matmul`` of one row with a strided
    view that BLAS cannot take, so numpy adds its terms one after another
    in a fixed order.  A higher cut-off, from a larger count in the chunk,
    only adds terms that are exactly 0, so every bag's results are
    bit-identical alone and in any chunk; the tests check this.
    """
    b, width = p.shape
    top = max(int(counts.max()), 1)
    bags = np.arange(b)

    # levels[l][:, u, c] = P(c positives among the instances under node u).
    levels = [np.stack((q, p), axis=-1)]
    while levels[-1].shape[1] > 1:
        nodes = levels[-1]
        k = nodes.shape[2]
        kk = min(2 * k - 1, top + 1)
        right = np.zeros((b, nodes.shape[1] // 2, k - 1 + kk))
        right[..., k - 1 : 2 * k - 1] = nodes[:, 1::2]
        # windows[:, u, j, c] = P(c - j positives under u's right child).
        windows = _windows(right, kk)[..., ::-1, :]
        levels.append(np.matmul(nodes[:, 0::2, None], windows)[:, :, 0])
    root = levels.pop()
    pb = root[bags, 0, counts]

    # down[:, u, c] = P(y - c positives outside node u).
    down = np.zeros(root.shape)
    down[bags, 0, counts] = 1.0
    for nodes in reversed(levels):
        m, k = nodes.shape[1:]
        outer = np.zeros((b, m // 2, 2 * k - 1))
        outer[..., : down.shape[2]] = down
        # windows[:, u, 0, j, c] = P(y - c - j positives outside parent u).
        windows = _windows(outer, k)[:, :, None]
        siblings = nodes.reshape(b, m // 2, 2, 1, k)[:, :, ::-1]
        down = np.matmul(siblings, windows).reshape(b, m, k)
    a = p * down[..., 1]
    r = q * down[..., 0]
    return a / (a + r), np.log(pb)


def _windows(x, length) -> np.ndarray:
    """Read-only view with windows[..., t, c] = x[..., t + c], for every
    window of ``length`` entries along the last axis of ``x``.

    The view of ``sliding_window_view(x, length, axis=-1)``, without its
    argument handling: that costs about 15 us more per call, and one
    :meth:`PosteriorPlan.run` on 79 bags of 16-64 makes 30 such views."""
    shape = x.shape[:-1] + (x.shape[-1] - length + 1, length)
    return as_strided(x, shape, x.strides + x.strides[-1:], writeable=False)
