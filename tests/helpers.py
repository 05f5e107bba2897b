"""Shared test utilities: finite-difference gradients, error metrics, and
the oracles the library is checked against.

The oracles compute the same quantities as the library by independent,
slower routes: the Poisson binomial pmf by enumerating label
configurations and by a linear-space convolution DP, instance posteriors
by leave-one-out DPs, configuration marginals and a log-space
forward-backward sweep, the EM lower bound, a textbook full-batch EM loop,
the per-bag losses in Python floats, Adam out of place, the logistic
function on masked halves and in its two-branch form, the network pass on
one BLAS call per block with a zero-padded tail, the CSV writers as
``csv.writer`` rows, and bagging with one size drawn per call.
"""

import csv
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from llpkit import network, objectives
from llpkit.data import BagDataset, Instances
from llpkit.errors import NumericalError, UsageError
from llpkit.network import BLOCK_ROWS, ClassifierParams, forward
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


def through_network(features, loss):
    """``loss_fn(params)`` for :func:`check_loss_gradient`: ``loss`` on the
    network's outputs over ``features``, chained back to the parameters."""
    return lambda params: network.backward(params, features, loss)


def strip_labels(dataset: BagDataset) -> BagDataset:
    """A copy of ``dataset`` with every ground-truth label removed, for
    tests that show nothing reads instance labels."""
    return replace(dataset, instances=Instances(dataset.instances.features))


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
            _, grad = network.backward(
                params,
                all_features,
                lambda probs: objectives.m_step_loss(probs, state.targets),
            )
            grad = grad / count
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


def log_sweep(lp, lq, counts):
    """Posteriors and log pmf for bags padded to a common width, with every
    count distribution in log space: a forward sweep over prefix count
    distributions and a backward sweep over suffix ones, with ``logaddexp``
    for their multiply-adds, which never underflows.

    ``lp`` and ``lq`` hold log p and log(1 - p) per bag row; padding
    columns hold -inf and 0.  Count distributions are cut off above the
    largest count, which no lower count depends on.
    """
    # Empty sums (y = 0 for a) are log 0 = -inf.
    with np.errstate(divide="ignore"):
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


def _logsumexp(x):
    """Row-wise log(sum(exp(x))); rows of all -inf give -inf."""
    top = x.max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.log(np.exp(x - top[:, None]).sum(axis=1)) + top


def amle_loss(probs, positive_count):
    """Gaussian count loss of one bag, term by term in Python floats: the
    oracle for ``amle_batch_loss``.

    loss = (y - mu)^2 / var + log(var), mu = sum(f), var = sum(f (1 - f))
    floored at VARIANCE_FLOOR; the floored variance has no gradient path.
    """
    f = clamp_probabilities(probs).tolist()
    mu = sum(f)
    raw_var = sum(v * (1.0 - v) for v in f)
    floored = raw_var < VARIANCE_FLOOR
    var = VARIANCE_FLOOR if floored else raw_var
    residual = positive_count - mu
    loss = residual * residual / var + math.log(var)
    var_path = 0.0 if floored else -(residual * residual) / (var * var) + 1.0 / var
    grads = [-2.0 * residual / var + var_path * (1.0 - 2.0 * v) for v in f]
    return loss, np.array(grads)


def dllp_loss(probs, positive_count):
    """Proportion cross-entropy of one bag in Python floats: the oracle for
    ``dllp_batch_loss``.

    rho = y/n, rho_hat = clamp(mean(f)); every instance shares the gradient
    (rho_hat - rho) / (rho_hat (1 - rho_hat) n).
    """
    f = clamp_probabilities(probs).tolist()
    n = len(f)
    rho = positive_count / n
    rho_hat = min(max(sum(f) / n, CLAMP_EPS), 1.0 - CLAMP_EPS)
    loss = -(rho * math.log(rho_hat) + (1.0 - rho) * math.log1p(-rho_hat))
    grad = (rho_hat - rho) / (rho_hat * (1.0 - rho_hat) * n)
    return loss, np.full(n, grad)


def adam_step(theta, first_moment, second_moment, step, learning_rate, grad):
    """One bias-corrected Adam step (Kingma and Ba, ICLR 2015) as new arrays
    ``(theta, first_moment, second_moment)``: the oracle for the in-place
    ``network.optimizer_step``, which must give the same bits."""
    m = 0.9 * first_moment + (1.0 - 0.9) * grad
    v = 0.999 * second_moment + (1.0 - 0.999) * grad * grad
    m_hat = m / (1.0 - 0.9**step)
    v_hat = v / (1.0 - 0.999**step)
    return theta - learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


def sigmoid_masked(z):
    """The logistic function, evaluated apart on ``z >= 0`` and the rest so
    that no positive argument is exponentiated: the oracle for the
    branch-free ``network._sigmoid``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_two_branch(z):
    """The logistic function with both branches divided apart, then
    selected: the oracle for ``network._sigmoid``'s one division, which
    must give the same bits."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# The network pass and its chain rule as separate products per block: full
# blocks as views of the batch, the tail copied into one zero-padded block.
# ``network.backward`` must give the same value and gradient bytes on a
# C-ordered batch.
# ---------------------------------------------------------------------------


def dense_blocks(a, weight):
    """``a @ weight`` as one BLAS call per block of ``BLOCK_ROWS`` rows."""
    n, fan_in = a.shape
    fan_out = weight.shape[1]
    full = n - n % BLOCK_ROWS
    out = np.empty((n, fan_out))
    if full:
        np.matmul(
            a[:full].reshape(-1, BLOCK_ROWS, fan_in),
            weight,
            out=out[:full].reshape(-1, BLOCK_ROWS, fan_out),
        )
    if full < n:
        tail = np.zeros((BLOCK_ROWS, fan_in))
        tail[: n - full] = a[full:]
        out[full:] = (tail @ weight)[: n - full]
    return out


def forward_trace_blocks(params: ClassifierParams, batch):
    """(outputs, pre-activations, activations) of the network on ``batch``,
    layer by layer through :func:`dense_blocks`."""
    theta = params.theta
    activations = [batch]
    pre = []
    a = batch
    last = len(params.layer_sizes) - 2
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (w, b, (fan_in, fan_out)) in enumerate(
            network._layers(params.layer_sizes)
        ):
            z = dense_blocks(a, theta[w].reshape(fan_in, fan_out))
            z += theta[b]
            pre.append(z)
            a = network._sigmoid(z) if idx == last else np.maximum(z, 0.0)
            activations.append(a)
    probs = a[:, 0]
    if not np.isfinite(probs).all():
        raise NumericalError("network output is not finite")
    return probs, pre, activations


def backward_blocks(params: ClassifierParams, batch, loss):
    """(loss value, dvalue/dtheta) through :func:`forward_trace_blocks`:
    the oracle for ``network.backward``."""
    batch = np.asarray(batch, dtype=np.float64)
    probs, pre, activations = forward_trace_blocks(params, batch)
    value, g = loss(probs)
    g = np.asarray(g, dtype=np.float64)
    grad = np.empty_like(params.theta)
    layers = network._layers(params.layer_sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        dz = (g * probs * (1.0 - probs))[:, None]
        for idx in range(len(layers) - 1, -1, -1):
            w, b, (fan_in, fan_out) = layers[idx]
            grad[w] = (activations[idx].T @ dz).reshape(-1)
            grad[b] = dz.sum(axis=0)
            if idx > 0:
                da = dz @ params.theta[w].reshape(fan_in, fan_out).T
                dz = da * (pre[idx - 1] > 0.0)
    return value, grad


# ---------------------------------------------------------------------------
# CSV writers: the csv.writer rows the library wrote before it streamed its
# own lines.  The library's files must be these bytes.
# ---------------------------------------------------------------------------


def csv_write_instances(path, instances: Instances) -> None:
    header = [f"f{i}" for i in range(instances.dim)]
    if instances.labels is not None:
        header.append("label")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, feats in enumerate(instances.features.tolist()):
            row = [repr(v) for v in feats]
            if instances.labels is not None:
                row.append(int(instances.labels[i]))
            writer.writerow(row)


def csv_write_bags(path, dataset: BagDataset) -> None:
    feats = dataset.instances.features.tolist()
    labels = dataset.instances.labels
    ids = dataset.instance_ids
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "y", "n"])
        for j, y in enumerate(dataset.counts.tolist()):
            lo, hi = dataset.offsets[j], dataset.offsets[j + 1]
            writer.writerow([j, y, hi - lo])
            for i in range(lo, hi):
                row = [j, "" if ids is None else int(ids[i])] + [repr(v) for v in feats[i]]
                if labels is not None:
                    row.append(int(labels[i]))
                writer.writerow(row)


def make_bags_loop(instances: Instances, min_size: int, max_size: int, seed: int) -> BagDataset:
    """``make_bags`` of valid arguments, drawing one bag size per
    ``rng.integers`` call and stopping when fewer than ``min_size``
    instances remain; a last size over the remainder is cut to it."""
    n = len(instances)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    offsets = [0]
    while n - offsets[-1] >= min_size:
        size = int(rng.integers(min_size, max_size + 1))
        offsets.append(offsets[-1] + min(size, n - offsets[-1]))
    rows = order[: offsets[-1]]
    bagged = instances.take(rows)
    counts = np.add.reduceat(bagged.labels, offsets[:-1])
    return BagDataset(bagged, offsets, counts, instance_ids=rows)
