"""Training objectives that turn bag counts into classifier gradients.

Four ways to train the instance classifier:

* count-likelihood EM ("mle"): maximize the exact Poisson binomial
  likelihood of the observed counts by alternating a posterior update
  (:func:`e_step`) with cross-entropy epochs against the resulting soft
  targets (:func:`m_step_loss`).  One network pass and one run of the
  batched product-tree kernel give both the targets and the dataset's count
  log-likelihood at the same parameters, so the trainer, which refreshes
  targets after every epoch, gets that epoch's log-likelihood with them;
* normal approximation ("amle"): replace the count likelihood with a
  moment-matched Gaussian and minimize :func:`amle_batch_loss`;
* proportion matching ("dllp"): cross-entropy between the true and the
  mean-predicted positive proportion of each bag (:func:`dllp_batch_loss`);
* fully supervised: :func:`m_step_loss` with the instance labels as hard
  targets, the skyline baseline.

Every loss is a function of the network's outputs alone, clamped into
``[CLAMP_EPS, 1 - CLAMP_EPS]`` before any log, and returns ``(value,
dvalue/doutputs)``; :class:`network.TrainingStep` runs the one network
pass per training step and maps that gradient onto parameters.  A loss
checks only the shapes of its arguments.  It assumes finite outputs, which
``forward`` guarantees, and targets in [0, 1], as ``e_step`` posteriors and
``Instances`` labels are.  The count losses only ever receive outputs
and bag counts; ground-truth labels cannot reach them by construction.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .data import BagDataset
from .errors import NumericalError, UsageError
from .poisson_binomial import _clamp

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
    bag's Bernoulli field on its count in one run of the dataset's
    :class:`~llpkit.poisson_binomial.PosteriorPlan`, which the first
    E-step on the dataset builds.  Raises NumericalError naming the first
    bag whose posteriors or log-likelihood are not finite.
    """
    probs = _clamp(network.forward(params, dataset.instances.features))
    phi, log_pb = dataset.posterior_plan.run(probs)
    # One scan of each result; the per-bag scan only runs to name the bag.
    if not (np.isfinite(phi).all() and np.isfinite(log_pb).all()):
        finite = np.isfinite(log_pb) & np.logical_and.reduceat(
            np.isfinite(phi), dataset.offsets[:-1]
        )
        raise NumericalError(
            f"non-finite E-step posterior or log-likelihood in bag "
            f"{int(np.argmin(finite))}"
        )
    return EmState(targets=phi, log_likelihood=float(log_pb.sum()))


def m_step_loss(probs, soft_targets) -> tuple[float, np.ndarray]:
    """Summed cross-entropy against soft targets in [0, 1].

    loss = -sum_i [t_i log f_i + (1 - t_i) log(1 - f_i)], with outputs
    clamped before the logs; gradient per output: (f_i - t_i) / (f_i (1 - f_i)).
    Raises UsageError unless the targets are shaped like the outputs.
    """
    f = _clamp(np.asarray(probs, dtype=np.float64))
    t = np.asarray(soft_targets, dtype=np.float64)
    if t.shape != f.shape:
        raise UsageError(f"{t.shape} targets for {f.shape} outputs")
    loss = -float(np.add.reduce(t * np.log(f) + (1.0 - t) * np.log1p(-f)))
    grads = (f - t) / (f * (1.0 - f))
    return loss, grads


def amle_batch_loss(probs, sizes, positive_counts) -> tuple[float, np.ndarray]:
    """Gaussian count loss for several bags.

    ``probs`` stacks the outputs for the bags' instances; ``sizes`` and
    ``positive_counts`` give each bag's length and count.  Returns the
    summed loss and per-instance output gradients.  Raises UsageError
    unless there is one count per size and the sizes cover the outputs.

    Per bag, with mu = sum(f) and var = sum(f (1 - f)) floored at
    VARIANCE_FLOOR: loss = (y - mu)^2 / var + log(var), the normal density
    without its constant terms (the loss may be negative).  Where the
    floor is active the variance is locally constant, so its gradient
    path is zero.
    """
    f, sizes, ys, starts = _bag_arrays(probs, sizes, positive_counts)
    mu = np.add.reduceat(f, starts)
    raw_var = np.add.reduceat(f * (1.0 - f), starts)
    floored = raw_var < VARIANCE_FLOOR
    var = np.where(floored, VARIANCE_FLOOR, raw_var)
    residual = ys - mu
    loss = float(np.add.reduce(residual * residual / var + np.log(var)))
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
    f, sizes, ys, starts = _bag_arrays(probs, sizes, positive_counts)
    rho = ys / sizes
    rho_hat = _clamp(np.add.reduceat(f, starts) / sizes)
    loss = float(
        -np.add.reduce(rho * np.log(rho_hat) + (1.0 - rho) * np.log1p(-rho_hat))
    )
    per_bag = (rho_hat - rho) / (rho_hat * (1.0 - rho_hat) * sizes)
    return loss, np.repeat(per_bag, sizes)


def _bag_arrays(probs, sizes, positive_counts):
    """(clamped outputs, int64 sizes, float64 counts, bag starts) for a
    per-bag loss; UsageError unless there is one count per size, every
    size is at least 1 and the sizes cover the outputs."""
    f = _clamp(np.asarray(probs, dtype=np.float64))
    sizes = np.asarray(sizes, dtype=np.int64)
    ys = np.asarray(positive_counts, dtype=np.float64)
    if ys.shape != sizes.shape:
        raise UsageError(f"{ys.shape} counts for {sizes.shape} bag sizes")
    if (sizes < 1).any():
        raise UsageError("bag sizes must be at least 1")
    ends = np.cumsum(sizes)
    if f.size != (int(ends[-1]) if ends.size else 0):
        raise UsageError("bag sizes do not cover the outputs")
    return f, sizes, ys, ends - sizes


def predict(params, features, threshold: float = 0.5) -> np.ndarray:
    """Thresholded labels; ties at the threshold go to the positive class.

    Raises UsageError for a threshold outside (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise UsageError(f"threshold must be in (0, 1), got {threshold}")
    probs = network.forward(params, features)
    return (probs >= threshold).astype(np.int64)
