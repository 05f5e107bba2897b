"""Training objectives that turn bag counts into classifier gradients.

Four ways to train the instance classifier:

* count-likelihood EM ("mle"): maximize the exact Poisson binomial
  likelihood of the observed counts by alternating a posterior update
  (:func:`e_step`) with cross-entropy epochs against the resulting soft
  targets (:func:`m_step_loss`).  One network pass and one batched
  forward-backward kernel give both the targets and the dataset's count
  log-likelihood at the same parameters, so the trainer, which refreshes
  targets after every epoch, gets that epoch's log-likelihood with them;
* normal approximation ("amle"): replace the count likelihood with a
  moment-matched Gaussian and minimize :func:`amle_batch_loss`;
* proportion matching ("dllp"): cross-entropy between the true and the
  mean-predicted positive proportion of each bag (:func:`dllp_batch_loss`);
* fully supervised: :func:`m_step_loss` with the instance labels as hard
  targets, the skyline baseline.

Every loss is a function of the network's outputs alone, clamped as in
:func:`clamp_probabilities` before any log, and returns ``(value,
dvalue/doutputs)``; :func:`network.backward` runs the one network pass
per training step and maps that gradient onto parameters.  The count
losses only ever receive outputs and bag counts; ground-truth labels
cannot reach them by construction.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .data import BagDataset
from .errors import NumericalError, UsageError
from .poisson_binomial import CLAMP_EPS, batch_posteriors, clamp_probabilities

# Floor for the approximate bag-count variance: the Gaussian objective
# divides by it and takes its log, both unbounded as predictions saturate.
VARIANCE_FLOOR = 1e-4


@dataclass(frozen=True)
class EmState:
    """Soft targets and count log-likelihood at one set of parameters.

    ``targets`` has one entry per instance, in the row order of
    ``dataset.instances``.
    """

    targets: np.ndarray
    log_likelihood: float


def e_step(params, dataset: BagDataset) -> EmState:
    """Posterior probability that each instance is positive, and the
    dataset's count log-likelihood.

    Runs the classifier once over the whole dataset, then conditions every
    bag's Bernoulli field on its count in one :func:`batch_posteriors`
    call.  Raises NumericalError naming the first bag whose posteriors or
    log-likelihood are not finite.
    """
    probs = clamp_probabilities(network.forward(params, dataset.instances.features))
    phi, log_pb = batch_posteriors(probs, dataset.sizes, dataset.counts)
    finite = np.isfinite(log_pb) & np.logical_and.reduceat(
        np.isfinite(phi), dataset.offsets[:-1]
    )
    if not finite.all():
        raise NumericalError(
            f"non-finite E-step posterior or log-likelihood in bag "
            f"{int(np.argmin(finite))}"
        )
    return EmState(targets=phi, log_likelihood=float(log_pb.sum()))


def m_step_loss(probs, soft_targets) -> tuple[float, np.ndarray]:
    """Summed cross-entropy against soft targets in [0, 1].

    loss = -sum_i [t_i log f_i + (1 - t_i) log(1 - f_i)], with outputs
    clamped before the logs; gradient per output: (f_i - t_i) / (f_i (1 - f_i)).
    """
    t = np.asarray(soft_targets, dtype=np.float64)
    f = clamp_probabilities(probs)
    if t.shape != f.shape:
        raise UsageError(f"{t.shape} targets for {f.shape} outputs")
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise UsageError("soft targets must lie in [0, 1]")
    return _m_step_loss(f, t)


def _m_step_loss(f, t) -> tuple[float, np.ndarray]:
    """:func:`m_step_loss` without its checks: ``f`` clamped outputs and
    ``t`` float64 targets in [0, 1] of the same shape."""
    loss = -float(np.sum(t * np.log(f) + (1.0 - t) * np.log1p(-f)))
    grads = (f - t) / (f * (1.0 - f))
    return loss, grads


def amle_batch_loss(probs, sizes, positive_counts) -> tuple[float, np.ndarray]:
    """Gaussian count loss for several bags.

    ``probs`` stacks the outputs for the bags' instances; ``sizes`` and
    ``positive_counts`` give each bag's length and count.  Returns the
    summed loss and per-instance output gradients.

    Per bag, with mu = sum(f) and var = sum(f (1 - f)) floored at
    VARIANCE_FLOOR: loss = (y - mu)^2 / var + log(var), the normal density
    without its constant terms (the loss may be negative).  Where the
    floor is active the variance is locally constant, so its gradient
    path is zero.
    """
    sizes, ys, f = _bag_loss_args(probs, sizes, positive_counts)
    return _amle_loss(f, sizes, ys)


def _amle_loss(f, sizes, ys) -> tuple[float, np.ndarray]:
    """:func:`amle_batch_loss` without its checks: ``f`` clamped outputs,
    ``sizes`` int64 bag sizes that sum to ``f.size``, ``ys`` float64 counts."""
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    mu = np.add.reduceat(f, starts)
    raw_var = np.add.reduceat(f * (1.0 - f), starts)
    floored = raw_var < VARIANCE_FLOOR
    var = np.where(floored, VARIANCE_FLOOR, raw_var)
    residual = ys - mu
    loss = float(np.sum(residual * residual / var + np.log(var)))
    base = -2.0 * residual / var
    var_path = np.where(
        floored, 0.0, -(residual * residual) / (var * var) + 1.0 / var
    )
    grads = np.repeat(base, sizes) + np.repeat(var_path, sizes) * (1.0 - 2.0 * f)
    return loss, grads


def dllp_batch_loss(probs, sizes, positive_counts) -> tuple[float, np.ndarray]:
    """Proportion cross-entropy for several bags.

    Same contract as :func:`amle_batch_loss`.  Per bag, with rho = y/n and
    rho_hat = clamp(mean(f)): loss = -[rho log rho_hat + (1 - rho)
    log(1 - rho_hat)], and every instance shares the gradient
    (rho_hat - rho) / (rho_hat (1 - rho_hat) n).
    """
    sizes, ys, f = _bag_loss_args(probs, sizes, positive_counts)
    return _dllp_loss(f, sizes, ys)


def _dllp_loss(f, sizes, ys) -> tuple[float, np.ndarray]:
    """:func:`dllp_batch_loss` without its checks, on the arguments of
    :func:`_amle_loss`."""
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    rho = ys / sizes
    rho_hat = np.clip(np.add.reduceat(f, starts) / sizes, CLAMP_EPS, 1.0 - CLAMP_EPS)
    loss = float(-np.sum(rho * np.log(rho_hat) + (1.0 - rho) * np.log1p(-rho_hat)))
    per_bag = (rho_hat - rho) / (rho_hat * (1.0 - rho_hat) * sizes)
    return loss, np.repeat(per_bag, sizes)


def _bag_loss_args(probs, sizes, positive_counts):
    """(sizes, counts, clamped outputs) as the per-bag loss cores take them;
    UsageError unless the sizes cover the outputs."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ys = np.asarray(positive_counts, dtype=np.float64)
    f = clamp_probabilities(probs)
    if f.size != int(sizes.sum()):
        raise UsageError("bag sizes do not cover the outputs")
    return sizes, ys, f


def predict(params, features, threshold: float = 0.5) -> np.ndarray:
    """Thresholded labels; ties at the threshold go to the positive class.

    Raises UsageError for a threshold outside (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise UsageError(f"threshold must be in (0, 1), got {threshold}")
    probs = network.forward(params, features)
    return (probs >= threshold).astype(np.int64)
