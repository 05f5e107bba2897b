"""Tests for the four objectives, the posterior update, and inference.

Finite differences are the gradient oracle throughout; the configuration
posterior is the oracle for soft targets; the lower bound is checked for
tightness at the posterior and sub-optimality anywhere else.
"""

import math

import numpy as np
import pytest

from helpers import (
    amle_loss,
    bag_lower_bound,
    check_loss_gradient,
    configuration_posterior,
    dllp_loss,
    em_lower_bound,
    logit,
    pb_dp,
    through_network,
)
from llpkit.data import BagDataset, Instances
from llpkit.errors import NumericalError, UsageError
from llpkit.network import ClassifierParams, forward, init_params, param_count
from llpkit.objectives import (
    amle_batch_loss,
    dllp_batch_loss,
    e_step,
    m_step_loss,
    predict,
)
from llpkit.poisson_binomial import (
    PosteriorPlan,
    bag_log_likelihood,
    clamp_probabilities,
    instance_posteriors,
)


def zero_params(dim=2, widths=(4,)):
    sizes = (dim, *widths, 1)
    return ClassifierParams(sizes, np.zeros(param_count(sizes)))


def identity_params():
    """One input, no hidden layer, unit weight: output = sigmoid(x)."""
    return ClassifierParams((1, 1), np.array([1.0, 0.0]))


def probs_as_features(p):
    """Feature matrix that makes identity_params output approximately p."""
    return logit(np.asarray(p))[:, None]


def bags_of(features, sizes, counts, labels=None):
    """Dataset of consecutive bags of the given sizes over ``features``."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return BagDataset(Instances(features, labels), offsets, counts)


def random_bag_dataset(rng, num_bags=6, dim=2, max_size=5):
    feats, labels, sizes = [], [], []
    for _ in range(num_bags):
        n = int(rng.integers(1, max_size + 1))
        feats.append(rng.standard_normal((n, dim)))
        labels.append(rng.integers(0, 2, size=n))
        sizes.append(n)
    counts = [int(lab.sum()) for lab in labels]
    return bags_of(np.vstack(feats), sizes, counts, np.concatenate(labels))


def bag_slices(dataset):
    return [slice(lo, hi) for lo, hi in zip(dataset.offsets[:-1], dataset.offsets[1:])]


class TestEStep:
    def test_zero_count_gives_zero_targets(self):
        rng = np.random.default_rng(0)
        dataset = bags_of(rng.standard_normal((4, 2)), [4], [0])
        state = e_step(init_params((2, 8, 1), seed=1), dataset)
        np.testing.assert_array_equal(state.targets, np.zeros(4))

    def test_uniform_outputs_give_uniform_targets(self):
        rng = np.random.default_rng(1)
        dataset = bags_of(rng.standard_normal((5, 2)), [5], [2])
        state = e_step(zero_params(dim=2), dataset)
        np.testing.assert_allclose(state.targets, 2.0 / 5.0, atol=1e-12)

    def test_matches_instance_posteriors(self):
        dataset = bags_of(probs_as_features([0.2, 0.5, 0.7]), [3], [2])
        state = e_step(identity_params(), dataset)
        np.testing.assert_allclose(
            state.targets, [0.1 / 0.38, 0.31 / 0.38, 0.35 / 0.38], atol=1e-9
        )

    def test_targets_sum_to_counts(self):
        rng = np.random.default_rng(2)
        dataset = random_bag_dataset(rng)
        state = e_step(init_params((2, 8, 1), seed=3), dataset)
        for y, rows in zip(dataset.counts, bag_slices(dataset)):
            assert state.targets[rows].sum() == pytest.approx(y, abs=1e-10)

    def test_log_likelihood_matches_the_dp(self):
        dataset = random_bag_dataset(np.random.default_rng(4))
        params = init_params((2, 8, 1), seed=5)
        features = dataset.instances.features
        expected = sum(
            math.log(pb_dp(forward(params, features[rows]), y))
            for y, rows in zip(dataset.counts, bag_slices(dataset))
        )
        state = e_step(params, dataset)
        assert state.log_likelihood == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("broken_bag", [1, 3])
    def test_non_finite_result_names_the_bag(self, monkeypatch, broken_bag):
        dataset = random_bag_dataset(np.random.default_rng(2))
        kernel = PosteriorPlan.run

        def corrupted(plan, probs):
            phi, log_pb = kernel(plan, probs)
            if broken_bag == 1:
                phi[plan.sizes[0]] = np.nan  # first instance of bag 1
            else:
                log_pb[3] = -np.inf
            return phi, log_pb

        monkeypatch.setattr(PosteriorPlan, "run", corrupted)
        with pytest.raises(NumericalError, match=f"bag {broken_bag}$"):
            e_step(init_params((2, 8, 1), seed=3), dataset)


class TestMStepLoss:
    def test_gradient_vanishes_at_targets(self):
        params = init_params((2, 8, 1), seed=4)
        X = np.random.default_rng(3).standard_normal((6, 2))
        targets = forward(params, X)
        _, grads = m_step_loss(targets, targets)
        np.testing.assert_allclose(grads, 0.0, atol=1e-9)

    def test_log_two_at_half(self):
        loss, _ = m_step_loss(np.full(1, 0.5), np.ones(1))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            params = init_params((3, 6, 1), seed=20 + trial)
            X = rng.standard_normal((4, 3))
            targets = rng.random(4)
            check_loss_gradient(
                through_network(X, lambda probs: m_step_loss(probs, targets)), params
            )

    def test_target_count_mismatch_rejected(self):
        with pytest.raises(UsageError, match=r"\(1,\) targets for \(3,\) outputs"):
            m_step_loss(np.full(3, 0.5), [1.0])


class TestSupervisedLoss:
    """``supervised`` trains :func:`m_step_loss` with the instance labels as
    hard targets; ``Instances`` has already checked that they are 0 or 1."""

    def test_saturated_correct_predictions_cost_nothing(self):
        # Large weight drives sigmoid to the clamp; correct labels then
        # contribute about -log(1 - eps) each.
        params = ClassifierParams((1, 1), np.array([50.0, 0.0]))
        X = np.array([[10.0], [-10.0]])
        loss, _ = m_step_loss(forward(params, X), [1.0, 0.0])
        # Loss bottoms out at -2 log(1 - clamp_eps), about 2e-7.
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_rejects_non_binary_labels(self):
        # A label of 2 never reaches the loss: Instances refuses it.
        with pytest.raises(UsageError):
            Instances(np.zeros((1, 1)), labels=[2])

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params((2, 5, 1), seed=30)
        X = rng.standard_normal((5, 2))
        labels = rng.integers(0, 2, size=5).astype(np.float64)
        check_loss_gradient(
            through_network(X, lambda probs: m_step_loss(probs, labels)), params
        )


class TestCountLogLikelihood:
    def test_single_symmetric_bag(self):
        dataset = bags_of(np.zeros((2, 2)), [2], [1])
        assert e_step(zero_params(dim=2), dataset).log_likelihood == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_additive_over_bags(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((3, 2))
        single = bags_of(feats, [3], [2])
        double = bags_of(np.vstack([feats, feats]), [3, 3], [2, 2])
        params = init_params((2, 6, 1), seed=9)
        assert e_step(params, double).log_likelihood == pytest.approx(
            2.0 * e_step(params, single).log_likelihood, rel=1e-12
        )


def amle_one_bag(probs, y):
    return amle_batch_loss(probs, [len(probs)], [y])


def dllp_one_bag(probs, y):
    return dllp_batch_loss(probs, [len(probs)], [y])


class TestBagMoments:
    """amle matches the count's mean sum(p) and variance sum(p (1 - p)),
    floored at VARIANCE_FLOOR: loss = (y - mean)^2 / variance + log(variance)."""

    def test_symmetric_pair(self):
        probs = np.full(2, 0.5)
        assert amle_one_bag(probs, 1)[0] == pytest.approx(math.log(0.5), abs=1e-12)
        assert amle_one_bag(probs, 0)[0] == pytest.approx(
            1.0 / 0.5 + math.log(0.5), abs=1e-12
        )

    def test_hand_values(self):
        probs = np.array([0.2, 0.5, 0.7])
        for y in (1, 2):
            loss, _ = amle_one_bag(probs, y)
            assert loss == pytest.approx(
                (y - 1.4) ** 2 / 0.62 + math.log(0.62), abs=1e-12
            )

    def test_variance_floor(self):
        loss, _ = amle_one_bag(np.full(2, 1.0 - 1e-9), 1)
        mean = 2.0 * (1.0 - 1e-7)  # both outputs clamped
        assert loss == pytest.approx((1.0 - mean) ** 2 / 1e-4 + math.log(1e-4), rel=1e-12)


class TestAmleLoss:
    def test_symmetric_pair_value(self):
        # mu = y = 1, var = 0.5: the residual term vanishes.
        loss, _ = amle_one_bag(np.full(2, 0.5), 1)
        assert loss == pytest.approx(math.log(0.5), abs=1e-12)

    def test_zero_residual_leaves_variance_gradient(self):
        loss, grads = amle_one_bag(np.array([0.3, 0.7]), 1)  # mu = 1.0 = y
        var = 0.3 * 0.7 + 0.7 * 0.3
        assert loss == pytest.approx(math.log(var), abs=1e-9)
        expected = (1.0 / var) * (1.0 - 2.0 * np.array([0.3, 0.7]))
        np.testing.assert_allclose(grads, expected, atol=1e-9)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            params = init_params((2, 6, 1), seed=40 + trial)
            n = int(rng.integers(1, 6))
            X = rng.standard_normal((n, 2))
            y = int(rng.integers(0, n + 1))
            check_loss_gradient(
                through_network(X, lambda probs: amle_one_bag(probs, y)), params
            )


class TestDllpLoss:
    def test_matched_proportion_is_stationary(self):
        loss, grads = dllp_one_bag(np.full(4, 0.25), 1)
        entropy = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert loss == pytest.approx(entropy, abs=1e-9)
        np.testing.assert_allclose(grads, 0.0, atol=1e-9)

    def test_log_two_at_half(self):
        loss, _ = dllp_one_bag(np.full(2, 0.5), 1)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            params = init_params((2, 6, 1), seed=50 + trial)
            n = int(rng.integers(1, 6))
            X = rng.standard_normal((n, 2))
            y = int(rng.integers(0, n + 1))
            check_loss_gradient(
                through_network(X, lambda probs: dllp_one_bag(probs, y)), params
            )


class TestBatchedBagLosses:
    """The multi-bag losses must match per-bag oracles computed in Python
    floats (``helpers.amle_loss``, ``helpers.dllp_loss``)."""

    def make_batch(self, rng, num_bags=7):
        sizes, counts, blocks = [], [], []
        for _ in range(num_bags):
            n = int(rng.integers(1, 6))
            sizes.append(n)
            counts.append(int(rng.integers(0, n + 1)))
            blocks.append(rng.standard_normal((n, 2)))
        return sizes, counts, blocks

    @pytest.mark.parametrize(
        "single,batched", [(amle_loss, amle_batch_loss), (dllp_loss, dllp_batch_loss)]
    )
    def test_matches_per_bag_evaluation(self, single, batched):
        rng = np.random.default_rng(77)
        params = init_params((2, 6, 1), seed=78)
        sizes, counts, blocks = self.make_batch(rng)
        total_loss, grads = batched(forward(params, np.vstack(blocks)), sizes, counts)
        expected_loss = 0.0
        expected_grads = []
        for block, y in zip(blocks, counts):
            loss, g = single(forward(params, block), y)
            expected_loss += loss
            expected_grads.append(g)
        assert total_loss == pytest.approx(expected_loss, rel=1e-12)
        np.testing.assert_allclose(
            grads, np.concatenate(expected_grads), rtol=1e-10, atol=1e-12
        )

    def test_variance_floor_matches(self):
        params = ClassifierParams((1, 1), np.array([60.0, 0.0]))
        X = np.array([[5.0], [5.0], [0.0]])  # first bag saturated, second not
        probs = forward(params, X)
        total, grads = amle_batch_loss(probs, [2, 1], [2, 0])
        loss_a, grads_a = amle_one_bag(probs[:2], 2)
        loss_b, grads_b = amle_one_bag(probs[2:], 0)
        assert total == pytest.approx(loss_a + loss_b, rel=1e-12)
        np.testing.assert_allclose(
            grads, np.concatenate([grads_a, grads_b]), rtol=1e-10
        )

    @pytest.mark.parametrize(
        "batched", [amle_batch_loss, dllp_batch_loss], ids=["amle", "dllp"]
    )
    def test_size_mismatch_rejected(self, batched):
        with pytest.raises(UsageError, match="sizes do not cover the outputs"):
            batched(np.full(3, 0.5), [2, 2], [1, 1])
        # One count for two bags is not broadcast.
        with pytest.raises(UsageError, match=r"\(1,\) counts for \(2,\) bag sizes"):
            batched(np.full(4, 0.5), [2, 2], [1])
        # An empty bag or a negative size is not a bag.
        with pytest.raises(UsageError, match="bag sizes must be at least 1"):
            batched([0.5, 0.5, 0.9], [2, 0, 1], [1, 0, 1])
        with pytest.raises(UsageError, match="bag sizes must be at least 1"):
            batched([0.5, 0.5, 0.9], [3, -1, 1], [1, 0, 1])


class TestPredict:
    def test_tie_goes_to_positive(self):
        labels = predict(zero_params(dim=2), np.zeros((3, 2)))
        np.testing.assert_array_equal(labels, [1, 1, 1])

    def test_just_below_threshold_is_negative(self):
        features = probs_as_features([0.4999])
        assert predict(identity_params(), features)[0] == 0

    def test_monotone_reparametrization_preserves_labels(self):
        rng = np.random.default_rng(11)
        params = init_params((2, 6, 1), seed=12)
        X = rng.standard_normal((40, 2))
        probs = forward(params, X)
        base = predict(params, X, 0.5)
        # Any strictly monotone map applied to both sides of the comparison
        # keeps the decision: compare squashed probabilities to the squashed
        # threshold.
        squashed = 1.0 / (1.0 + np.exp(-(probs - 0.5)))
        np.testing.assert_array_equal(base, (squashed >= 0.5).astype(int))

    def test_threshold_validation(self):
        with pytest.raises(UsageError, match="threshold"):
            predict(zero_params(dim=2), np.zeros((1, 2)), 0.0)
        with pytest.raises(UsageError, match="threshold"):
            predict(zero_params(dim=2), np.zeros((1, 2)), 1.0)


class TestLowerBound:
    def test_tight_at_posterior(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = clamp_probabilities(rng.random(n))
            y = int(rng.integers(0, n + 1))
            alpha = configuration_posterior(p, y)
            assert bag_lower_bound(p, y, alpha) == pytest.approx(
                bag_log_likelihood(p, y), abs=1e-9
            )

    def test_any_other_distribution_is_worse(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = clamp_probabilities(rng.random(n))
            y = int(rng.integers(0, n + 1))
            alpha = configuration_posterior(p, y)
            tight = bag_lower_bound(p, y, alpha)
            configs = list(alpha)
            weights = rng.dirichlet(np.ones(len(configs)))
            perturbed = dict(zip(configs, weights))
            assert bag_lower_bound(p, y, perturbed) <= tight + 1e-9

    def test_dataset_bound_matches_log_likelihood(self):
        rng = np.random.default_rng(14)
        dataset = random_bag_dataset(rng, num_bags=8, max_size=6)
        params = init_params((2, 8, 1), seed=15)
        assert em_lower_bound(params, dataset) == pytest.approx(
            e_step(params, dataset).log_likelihood, abs=1e-8
        )

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(UsageError):
            bag_lower_bound([0.5, 0.5], 1, {(1, 0): 0.7})


class TestDegenerateBags:
    def test_zero_count_targets_equal_all_negative_labels(self):
        rng = np.random.default_rng(15)
        params = init_params((2, 6, 1), seed=16)
        probs = forward(params, rng.standard_normal((4, 2)))
        phi = instance_posteriors(clamp_probabilities(rng.random(4)), 0)
        soft = m_step_loss(probs, phi)
        hard = m_step_loss(probs, np.zeros(4))
        assert soft[0] == hard[0]
        np.testing.assert_array_equal(soft[1], hard[1])

    def test_full_count_targets_equal_all_positive_labels(self):
        rng = np.random.default_rng(16)
        params = init_params((2, 6, 1), seed=17)
        probs = forward(params, rng.standard_normal((3, 2)))
        phi = instance_posteriors(clamp_probabilities(rng.random(3)), 3)
        soft = m_step_loss(probs, phi)
        hard = m_step_loss(probs, np.ones(3))
        assert soft[0] == hard[0]
        np.testing.assert_array_equal(soft[1], hard[1])


class TestSingleInstanceConsistency:
    def test_gradient_signs_match_for_both_counts(self):
        # For one-instance bags, both the exact-count loss and the Gaussian
        # approximation must push the output toward the label.
        grid = np.concatenate(
            [np.linspace(1e-6, 1 - 1e-6, 201), [1e-7, 1 - 1e-7]]
        )
        for y in (0, 1):
            for f in grid:
                _, exact = m_step_loss(np.array([f]), np.array([float(y)]))
                _, approx = amle_one_bag(np.array([f]), y)
                expected = math.copysign(1.0, f - y)
                assert math.copysign(1.0, exact[0]) == expected
                assert math.copysign(1.0, approx[0]) == expected
