"""Poisson binomial bag likelihood and instance posteriors.

When the instances of a bag are independent Bernoulli variables with
individual success probabilities ``p_i``, the number of positive instances
follows a Poisson binomial distribution.  Count-supervised training needs
two quantities from it: the log pmf of each bag's observed count and the
per-instance posterior probabilities given that count (the soft
cross-entropy targets).

Both come from one kernel, :func:`batch_posteriors`.  It runs a
forward-backward pass over count distributions in linear space, O(n * y)
per bag, for many bags at once.  A bag whose terms could leave the normal
float64 range is first tilted: its odds are scaled until its count is
typical, which leaves its posteriors unchanged and shifts its log pmf by a
known amount.  So the kernel holds at any bag size: a bag whose pmf
underflows float64 still gets finite log-likelihoods and posteriors that
sum to its count.
:func:`instance_posteriors` and :func:`bag_log_likelihood` are its one-bag
forms.

All entry points clamp probabilities into ``[CLAMP_EPS, 1 - CLAMP_EPS]`` so
that every consistent count has strictly positive probability and logs stay
finite.
"""

import numpy as np

from .errors import UsageError

# Clamp width for instance probabilities; keeps pb(p, y) > 0 for any valid y
# while perturbing well-scaled probabilities by at most 1e-7.
CLAMP_EPS = 1e-7

# Floats in one chunk's forward table in batch_posteriors (1 MiB), so the
# kernel's working memory does not grow with the number of bags.
_TABLE_BUDGET = 1 << 17

# Lowest bag floor, sum_i log min(p_i, 1 - p_i) over the bag's instances,
# at which batch_posteriors sweeps the bag untilted.  Every nonzero count
# probability, prefix, suffix and product in the sweep is a sum of
# assignment probabilities, each at least exp(floor); this bound keeps them
# above the smallest normal float64, exp(-708.4).  Clamped bags of up to 43
# instances always pass.
_LINEAR_FLOOR = -700.0


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
    return np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)


def instance_posteriors(p, y: int) -> np.ndarray:
    """P(instance i is positive | bag count y), for every instance.

    One bag through :func:`batch_posteriors`; the y = 0 and y = n bags come
    out as exact 0/1 targets.
    """
    p = clamp_probabilities(p)
    phi, _ = batch_posteriors(p, [p.size], [y])
    return phi


def bag_log_likelihood(p, y: int) -> float:
    """Log pmf of the observed count; finite thanks to clamping, at any
    bag size."""
    p = clamp_probabilities(p)
    _, log_pb = batch_posteriors(p, [p.size], [y])
    return float(log_pb[0])


def batch_posteriors(probs, sizes, counts) -> tuple[np.ndarray, np.ndarray]:
    """Instance posteriors and log pmf of the observed count, for many bags.

    ``probs`` stacks the bags' instance probabilities, clamped as by
    :func:`clamp_probabilities`; ``sizes`` and ``counts`` give each bag's
    length and positive count.  Returns ``(phi, log_pb)``: ``phi[i]`` is
    P(instance i positive | its bag's count) and ``log_pb[j]`` is
    log pb(p_j, y_j).

    Bags are grouped by the power of two at or above their size and by
    whether their floor, sum_i log min(p_i, 1 - p_i), lies below
    ``_LINEAR_FLOOR``, and padded to that width with p = 0 instances,
    which leave every count distribution unchanged.  Each chunk of a group
    goes through one linear-space sweep, :func:`_sweep`; a chunk below the
    floor is first tilted by :func:`_tilt`, so that its count
    probabilities cannot underflow.  Chunks are sized so that their
    forward table fits a fixed float budget.

    A result that is not finite is returned as is; callers that need
    finite values check for it.
    """
    probs = np.asarray(probs, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if probs.ndim != 1 or sizes.ndim != 1 or sizes.shape != counts.shape:
        raise UsageError(
            "probabilities, sizes and counts must be 1-d, one size per count"
        )
    if sizes.size and sizes.min() < 0:
        raise UsageError("bag sizes must be nonnegative")
    if int(sizes.sum()) != probs.size:
        raise UsageError(
            f"bag sizes cover {int(sizes.sum())} of {probs.size} probabilities"
        )
    bad = np.flatnonzero((counts < 0) | (counts > sizes))
    if bad.size:
        j = int(bad[0])
        raise UsageError(f"bag {j}: positive count {counts[j]} outside [0, {sizes[j]}]")

    phi = np.empty(probs.size)
    log_pb = np.empty(sizes.size)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    widths = 1 << np.ceil(np.log2(np.maximum(sizes, 1))).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = np.bincount(
            np.repeat(np.arange(sizes.size), sizes),
            weights=np.minimum(np.log(probs), np.log1p(-probs)),
            minlength=sizes.size,
        )
        # A NaN floor (NaN input) counts as below.
        below = ~(floor >= _LINEAR_FLOOR)
        for width, tilt in sorted(set(zip(widths.tolist(), below.tolist()))):
            # Sizing chunks by the group's largest count keeps every table
            # within the budget; sorting by count keeps each table only as
            # wide as the largest count in its own chunk.
            members = np.flatnonzero((widths == width) & (below == tilt))
            members = members[np.argsort(counts[members], kind="stable")]
            top = int(counts[members[-1]])
            per_chunk = max(1, _TABLE_BUDGET // (width * (top + 2)))
            cols = np.arange(width)
            for lo in range(0, members.size, per_chunk):
                chunk = members[lo : lo + per_chunk]
                real = cols < sizes[chunk, None]
                rows = (offsets[chunk, None] + cols)[real]
                p = np.zeros(real.shape)
                p[real] = probs[rows]
                q = 1.0 - p
                if tilt:
                    p, q, shift = _tilt(p, sizes[chunk], counts[chunk])
                chunk_phi, log_pb[chunk] = _sweep(p, q, counts[chunk])
                if tilt:
                    log_pb[chunk] += shift
                phi[rows] = chunk_phi[real]
    return phi, log_pb


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


def _sweep(p, q, counts) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors and log pmf for bags padded to a common width.

    ``p`` and ``q`` hold p and 1 - p per bag row.  A forward sweep
    tabulates the distribution of the count among each prefix of the bag;
    a backward sweep carries the suffix distribution and combines the two
    into the leave-one-out count probabilities LOO_i(y - 1) and LOO_i(y).
    The posterior is a / (a + r) with a = p_i LOO_i(y - 1) and
    r = (1 - p_i) LOO_i(y), which is exactly 0 for y = 0 and exactly 1 for
    y = n.  Count distributions are cut off above the largest count,
    which no lower count depends on.  The bags must not underflow: see
    ``_LINEAR_FLOOR`` and :func:`_tilt`.
    """
    b, width = p.shape
    k = max(int(counts.max()), 1) + 1
    bags = np.arange(b)

    # prefix[:, i, c] = P(c positives among instances 0..i-1).
    prefix = np.empty((b, width, k))
    dist = np.zeros((b, k))
    dist[:, 0] = 1.0
    for i in range(width):
        prefix[:, i] = dist
        dist = dist * q[:, i, None]
        dist[:, 1:] += prefix[:, i, :-1] * p[:, i, None]
    pb = dist[bags, counts]

    # rev[:, t] = P(y - t positives among instances i+1..width-1).
    rev = np.zeros((b, k))
    rev[bags, counts] = 1.0
    a = np.empty((b, width))
    r = np.empty((b, width))
    for i in range(width - 1, -1, -1):
        pre = prefix[:, i]
        r[:, i] = np.einsum("bk,bk->b", pre, rev)
        a[:, i] = np.einsum("bk,bk->b", pre[:, :-1], rev[:, 1:])
        shifted = rev * q[:, i, None]
        shifted[:, :-1] += rev[:, 1:] * p[:, i, None]
        rev = shifted
    a *= p
    r *= q
    return a / (a + r), np.log(pb)
