"""Poisson binomial bag likelihood and instance posteriors.

When the instances of a bag are independent Bernoulli variables with
individual success probabilities ``p_i``, the number of positive instances
follows a Poisson binomial distribution.  Count-supervised training needs
two quantities from it: the log pmf of each bag's observed count and the
per-instance posterior probabilities given that count (the soft
cross-entropy targets).

Both come from one kernel, :func:`batch_posteriors`.  It runs a
forward-backward pass over count distributions in log space, O(n * y) per
bag, for many bags at once, and holds at any bag size: a bag whose pmf
underflows float64 still gets finite log-likelihoods and posteriors that
sum to its count.  :func:`instance_posteriors` and
:func:`bag_log_likelihood` are its one-bag forms.

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

    Bags are grouped by the power of two at or above their size and padded
    to it with p = 0 instances, which leave every count distribution
    unchanged.  Per group, a forward sweep tabulates the log distribution
    of the count among each prefix of the bag; a backward sweep carries
    the suffix distribution and combines the two into the leave-one-out
    count probabilities LOO_i(y - 1) and LOO_i(y).  The posterior is
    a / (a + r) with a = p_i LOO_i(y - 1) and r = (1 - p_i) LOO_i(y), which
    is exactly 0 for y = 0 and exactly 1 for y = n.  Bags are processed in
    chunks whose forward table fits a fixed float budget.

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
        log_p = np.log(probs)
        log_q = np.log1p(-probs)
        for width in np.unique(widths).tolist():
            # Sizing chunks by the group's largest count keeps every table
            # within the budget; sorting by count keeps each table only as
            # wide as the largest count in its own chunk.
            members = np.flatnonzero(widths == width)
            members = members[np.argsort(counts[members], kind="stable")]
            top = int(counts[members[-1]])
            per_chunk = max(1, _TABLE_BUDGET // (width * (top + 2)))
            cols = np.arange(width)
            for lo in range(0, members.size, per_chunk):
                chunk = members[lo : lo + per_chunk]
                real = cols < sizes[chunk, None]
                rows = (offsets[chunk, None] + cols)[real]
                lp = np.full(real.shape, -np.inf)
                lq = np.zeros(real.shape)
                lp[real] = log_p[rows]
                lq[real] = log_q[rows]
                chunk_phi, log_pb[chunk] = _forward_backward(lp, lq, counts[chunk])
                phi[rows] = chunk_phi[real]
    return phi, log_pb


def _forward_backward(lp, lq, counts) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors and log pmf for bags padded to a common width.

    ``lp`` and ``lq`` hold log p and log(1 - p) per bag row.  Count
    distributions are kept in log space and cut off above the largest
    count, which no lower count depends on.
    """
    b, width = lp.shape
    # Counts 0..max; at least two columns, so the y - 1 sums have a term.
    k = max(int(counts.max()), 1) + 1
    bags = np.arange(b)

    # prefix[:, i, c] = log P(c positives among instances 0..i-1).
    prefix = np.empty((b, width, k))
    dist = np.full((b, k), -np.inf)
    dist[:, 0] = 0.0
    for i in range(width):
        prefix[:, i] = dist
        shifted = np.full((b, k), -np.inf)
        shifted[:, 1:] = dist[:, :-1] + lp[:, i, None]
        dist = np.logaddexp(dist + lq[:, i, None], shifted)
    log_pb = dist[bags, counts]

    # rev[:, t] = log P(y - t positives among instances i+1..width-1): the
    # suffix distribution indexed down from each bag's own count, so the
    # leave-one-out sums over t pair prefix[t] with rev[t] (count y) and
    # with rev[t + 1] (count y - 1) without a gather.
    rev = np.full((b, k), -np.inf)
    rev[bags, counts] = 0.0
    log_a = np.empty((b, width))
    log_r = np.empty((b, width))
    for i in range(width - 1, -1, -1):
        pre = prefix[:, i]
        log_r[:, i] = _logsumexp(pre + rev) + lq[:, i]
        log_a[:, i] = _logsumexp(pre[:, :-1] + rev[:, 1:]) + lp[:, i]
        shifted = np.full((b, k), -np.inf)
        shifted[:, :-1] = rev[:, 1:] + lp[:, i, None]
        rev = np.logaddexp(rev + lq[:, i, None], shifted)
    phi = np.exp(log_a - np.logaddexp(log_a, log_r))
    return phi, log_pb


def _logsumexp(x) -> np.ndarray:
    """Row-wise log(sum(exp(x))); rows of all -inf give -inf."""
    top = x.max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.log(np.exp(x - top[:, None]).sum(axis=1)) + top
