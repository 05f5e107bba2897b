"""Shared test utilities: finite-difference, leave-one-out and per-bag
loss oracles, and error metrics."""

import math

import numpy as np

from llpkit.network import ClassifierParams, forward
from llpkit.objectives import VARIANCE_FLOOR
from llpkit.poisson_binomial import CLAMP_EPS, clamp_probabilities


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
