"""Shared test utilities: finite-difference gradients, error metrics, and
the oracles the library is checked against.

The oracles compute the same quantities as the library by independent,
slower routes: the Poisson binomial pmf by enumerating label
configurations and by a linear-space convolution DP, instance posteriors
by leave-one-out DPs and configuration marginals, the EM lower bound, a
textbook full-batch EM loop, and the per-bag losses in Python floats.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from llpkit import network, objectives
from llpkit.data import BagDataset
from llpkit.errors import UsageError
from llpkit.network import ClassifierParams, forward
from llpkit.objectives import VARIANCE_FLOOR
from llpkit.poisson_binomial import CLAMP_EPS, bag_log_likelihood, clamp_probabilities


def finite_difference_gradient(loss_fn, theta, step=1e-4):
    """Central-difference gradient of a scalar function of the flat
    parameter vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * step)
    return grad


def max_relative_error(a, b):
    """Largest component difference relative to the overall scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def check_loss_gradient(loss_fn, params: ClassifierParams, tol=1e-5, step=1e-4):
    """Assert the analytic parameter gradient of (loss, output-grad) pair
    matches central finite differences.

    ``loss_fn(params)`` must return (loss_value, flat_parameter_gradient).
    """
    _, analytic = loss_fn(params)

    def value_only(theta):
        value, _ = loss_fn(params.with_theta(theta))
        return value

    numeric = finite_difference_gradient(value_only, params.theta, step=step)
    err = max_relative_error(analytic, numeric)
    assert err <= tol, f"gradient mismatch: relative error {err:.3e} > {tol}"
    return err


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p / (1.0 - p))


def count_probability(probs, y):
    """P(count = y) by the plain-float convolution DP, one instance at a
    time, updated in place from the top down."""
    dist = [0.0] * (y + 1)
    dist[0] = 1.0
    for i, pi in enumerate(probs):
        q = 1.0 - pi
        for k in range(min(i + 1, y), 0, -1):
            dist[k] = dist[k] * q + dist[k - 1] * pi
        dist[0] *= q
    return dist[y]


def _check_count(n, y):
    if not 0 <= y <= n:
        raise UsageError(f"positive count y={y} outside [0, {n}]")


def enumerate_configurations(n, y):
    """All binary label vectors of length ``n`` that sum to ``y``, in
    lexicographic order: exactly C(n, y) of them."""
    _check_count(n, y)
    configs = []
    for ones in itertools.combinations(range(n), y):
        h = [0] * n
        for i in ones:
            h[i] = 1
        configs.append(tuple(h))
    configs.sort()
    return configs


def pb_enumerated(p, y):
    """Poisson binomial pmf by explicit sum over the consistent
    configurations, with the library's clamping.  Exponential in the bag
    size."""
    p = clamp_probabilities(p)
    _check_count(p.size, y)
    configs = np.asarray(enumerate_configurations(p.size, y), dtype=bool)
    configs = configs.reshape(-1, p.size)
    terms = np.where(configs, p, 1.0 - p)
    return float(terms.prod(axis=1).sum())


def pb_dp(p, y):
    """Poisson binomial pmf by the convolution DP, with the library's
    clamping."""
    p = clamp_probabilities(p)
    _check_count(p.size, y)
    return count_probability(p.tolist(), y)


def configuration_posterior(p, y):
    """Posterior weight of each consistent configuration given the count;
    the weights sum to one."""
    p = clamp_probabilities(p)
    _check_count(p.size, y)
    configs = enumerate_configurations(p.size, y)
    mat = np.asarray(configs, dtype=bool).reshape(-1, p.size)
    weights = np.where(mat, p, 1.0 - p).prod(axis=1)
    weights /= weights.sum()
    return dict(zip(configs, weights.tolist()))


def bag_lower_bound(p, y, alpha):
    """Expected complete-data log-likelihood plus entropy for one bag.

    ``alpha`` assigns a weight to each configuration consistent with the
    count.  At the exact posterior this equals the bag's count
    log-likelihood (Jensen's inequality is tight there); any other
    distribution gives a smaller value.
    """
    p = clamp_probabilities(p)
    log_p = np.log(p)
    log_q = np.log1p(-p)
    total = 0.0
    weight = 0.0
    for config, a in alpha.items():
        if a < 0.0:
            raise UsageError("configuration weights must be nonnegative")
        weight += a
        if a == 0.0:
            continue
        if len(config) != p.size or sum(config) != y:
            raise UsageError(f"configuration {config} inconsistent with count {y}")
        mask = np.asarray(config, dtype=bool)
        log_joint = float(log_p[mask].sum() + log_q[~mask].sum())
        total += a * (log_joint - math.log(a))
    if abs(weight - 1.0) > 1e-9:
        raise UsageError(f"configuration weights sum to {weight}, not 1")
    return total


def em_lower_bound(params, dataset: BagDataset, bag_alphas=None):
    """Dataset-level lower bound on the count log-likelihood.

    With ``bag_alphas`` omitted, each bag uses its exact configuration
    posterior, making the bound tight.
    """
    probs_all = clamp_probabilities(forward(params, dataset.instances.features))
    offsets, counts = dataset.offsets.tolist(), dataset.counts.tolist()
    total = 0.0
    for j, y in enumerate(counts):
        probs = probs_all[offsets[j] : offsets[j + 1]]
        if bag_alphas is None:
            alpha = configuration_posterior(probs, y)
        else:
            alpha = bag_alphas[j]
        total += bag_lower_bound(probs, y, alpha)
    return total


@dataclass(frozen=True)
class EmTrace:
    """Log-likelihood trajectory of a full-batch EM run."""

    params: ClassifierParams
    log_likelihoods: list
    bound_gaps: list


def run_em_full_batch(
    dataset: BagDataset,
    cycles,
    inner_steps,
    learning_rate,
    seed,
    hidden_widths=(32, 32),
):
    """Textbook EM cycle for the monotonicity checks.

    Each cycle refreshes the soft targets once, then takes ``inner_steps``
    plain full-batch descent steps on the mean target cross-entropy.
    Records the count log-likelihood before the first cycle and after each
    cycle, plus the worst per-bag gap between the lower bound and the bag
    log-likelihood at every refresh (zero up to float error: the bound is
    tight at the exact posterior).
    """
    params = network.init_params((dataset.feature_dim, *hidden_widths, 1), seed)
    all_features = dataset.instances.features
    count = all_features.shape[0]
    offsets, counts = dataset.offsets.tolist(), dataset.counts.tolist()
    state = objectives.e_step(params, dataset)
    trace = [state.log_likelihood]
    gaps = []
    for _ in range(cycles):
        probs_all = clamp_probabilities(network.forward(params, all_features))
        worst = 0.0
        for j, y in enumerate(counts):
            probs = probs_all[offsets[j] : offsets[j + 1]]
            alpha = configuration_posterior(probs, y)
            bound = bag_lower_bound(probs, y, alpha)
            exact = bag_log_likelihood(probs, y)
            worst = max(worst, abs(bound - exact))
        gaps.append(worst)
        for _ in range(inner_steps):
            _, out_grads = objectives.m_step_loss(params, all_features, state.targets)
            grad = network.backward(params, all_features, out_grads) / count
            params = params.with_theta(params.theta - learning_rate * grad)
        state = objectives.e_step(params, dataset)
        trace.append(state.log_likelihood)
    return EmTrace(params=params, log_likelihoods=trace, bound_gaps=gaps)


def loo_posteriors(p, y):
    """Instance posteriors by re-running the count DP with each instance
    left out: phi_i = p_i * pb_without_i(y - 1) / pb(y).

    ``p`` must already be clamped.  Runs in O(n^2 * y) and, in linear
    space, is only accurate while pb(y) stays in the normal float range.
    """
    probs = [float(v) for v in p]
    n = len(probs)
    if y == 0:
        return np.zeros(n)
    if y == n:
        return np.ones(n)
    total = count_probability(probs, y)
    phi = np.empty(n)
    for i in range(n):
        rest = probs[:i] + probs[i + 1 :]
        phi[i] = probs[i] * count_probability(rest, y - 1) / total
    return np.clip(phi, 0.0, 1.0)


def amle_loss(params, features, positive_count):
    """Gaussian count loss of one bag, term by term in Python floats: the
    oracle for ``amle_batch_loss``.

    loss = (y - mu)^2 / var + log(var), mu = sum(f), var = sum(f (1 - f))
    floored at VARIANCE_FLOOR; the floored variance has no gradient path.
    """
    f = clamp_probabilities(forward(params, features)).tolist()
    mu = sum(f)
    raw_var = sum(v * (1.0 - v) for v in f)
    floored = raw_var < VARIANCE_FLOOR
    var = VARIANCE_FLOOR if floored else raw_var
    residual = positive_count - mu
    loss = residual * residual / var + math.log(var)
    var_path = 0.0 if floored else -(residual * residual) / (var * var) + 1.0 / var
    grads = [-2.0 * residual / var + var_path * (1.0 - 2.0 * v) for v in f]
    return loss, np.array(grads)


def dllp_loss(params, features, positive_count):
    """Proportion cross-entropy of one bag in Python floats: the oracle for
    ``dllp_batch_loss``.

    rho = y/n, rho_hat = clamp(mean(f)); every instance shares the gradient
    (rho_hat - rho) / (rho_hat (1 - rho_hat) n).
    """
    f = clamp_probabilities(forward(params, features)).tolist()
    n = len(f)
    rho = positive_count / n
    rho_hat = min(max(sum(f) / n, CLAMP_EPS), 1.0 - CLAMP_EPS)
    loss = -(rho * math.log(rho_hat) + (1.0 - rho) * math.log1p(-rho_hat))
    grad = (rho_hat - rho) / (rho_hat * (1.0 - rho_hat) * n)
    return loss, np.full(n, grad)
