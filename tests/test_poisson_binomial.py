"""Unit and property tests for the Poisson binomial machinery.

The library's pmf and posteriors come from the batched product-tree
kernel.  The oracles in ``helpers`` check it: enumeration and the
convolution DP (which are checked against each other) for the pmf, the
configuration posterior and the leave-one-out DP for the posteriors, and
the log-space sweep for both wherever the linear-space oracles underflow.
Hand-checkable values are frozen in the assertions.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    configuration_posterior,
    enumerate_configurations,
    log_sweep,
    loo_posteriors,
    pb_dp,
    pb_enumerated,
)
from llpkit import network, poisson_binomial
from llpkit.data import BagDataset, Instances
from llpkit.errors import NumericalError, UsageError
from llpkit.network import init_params
from llpkit.objectives import e_step
from llpkit.poisson_binomial import (
    _LINEAR_FLOOR,
    CLAMP_EPS,
    PosteriorPlan,
    _windows,
    bag_log_likelihood,
    batch_posteriors,
    clamp_probabilities,
    instance_posteriors,
)


@st.composite
def bag_probabilities(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    y = draw(st.integers(min_value=0, max_value=n))
    return p, y


class TestEnumerateConfigurations:
    def test_three_choose_two(self):
        assert enumerate_configurations(3, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_zero_positives(self):
        assert enumerate_configurations(4, 0) == [(0, 0, 0, 0)]

    def test_count_matches_binomial_coefficient(self):
        configs = enumerate_configurations(12, 6)
        assert len(configs) == math.comb(12, 6) == 924
        assert len(set(configs)) == len(configs)
        assert all(sum(h) == 6 for h in configs)

    def test_lexicographic_order(self):
        configs = enumerate_configurations(6, 3)
        assert configs == sorted(configs)

    def test_bad_count(self):
        with pytest.raises(UsageError):
            enumerate_configurations(3, 4)


class TestPmf:
    def test_symmetric_pair(self):
        assert pb_enumerated([0.5, 0.5], 1) == pytest.approx(0.5, abs=1e-12)
        assert pb_dp([0.5, 0.5], 1) == pytest.approx(0.5, abs=1e-12)

    def test_single_bernoulli(self):
        assert pb_enumerated([0.3], 0) == pytest.approx(0.7, abs=1e-12)

    def test_hand_enumeration(self):
        # Configurations for y=2: (1,1,0) -> 0.03, (1,0,1) -> 0.07,
        # (0,1,1) -> 0.28; total 0.38.
        assert pb_enumerated([0.2, 0.5, 0.7], 2) == pytest.approx(0.38, abs=1e-12)
        assert pb_dp([0.2, 0.5, 0.7], 2) == pytest.approx(0.38, abs=1e-12)

    def test_large_bag_binomial_closed_form(self):
        p = [0.5] * 128
        expected = math.comb(128, 64) * 0.5**128
        assert math.exp(bag_log_likelihood(p, 64)) == pytest.approx(expected, rel=1e-10)

    def test_dp_has_no_size_limit(self):
        assert math.exp(bag_log_likelihood([0.1] * 200, 0)) > 0.0

    @given(bag_probabilities())
    @settings(max_examples=120, deadline=None)
    def test_dp_matches_enumeration(self, case):
        p, y = case
        assert abs(pb_dp(p, y) - pb_enumerated(p, y)) <= 1e-12

    @given(bag_probabilities())
    @settings(max_examples=60, deadline=None)
    def test_pmf_normalizes(self, case):
        p, _ = case
        total = sum(pb_dp(p, y) for y in range(len(p) + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_p_reduces_to_binomial(self, n, p):
        clamped = float(clamp_probabilities([p])[0])
        for y in range(n + 1):
            expected = (
                math.comb(n, y) * clamped**y * (1.0 - clamped) ** (n - y)
            )
            assert pb_dp([p] * n, y) == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(UsageError):
            bag_log_likelihood([1.2], 0)
        with pytest.raises(UsageError):
            bag_log_likelihood([float("nan")], 0)
        with pytest.raises(UsageError):
            bag_log_likelihood([0.5], 2)
        with pytest.raises(UsageError, match="probability vector must be 1-d"):
            clamp_probabilities(np.full((2, 2), 0.5))


class TestClamp:
    def test_clamp_is_np_clip_bit_for_bit(self):
        hi = 1.0 - CLAMP_EPS
        edges = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0]
        for edge in (CLAMP_EPS, hi):
            edges += [np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)]
        p = np.array(edges)
        want = np.clip(p, CLAMP_EPS, hi)
        assert poisson_binomial._clamp(p).tobytes() == want.tobytes()


class TestConfigurationPosterior:
    def test_symmetric_pair(self):
        post = configuration_posterior([0.5, 0.5], 1)
        assert post[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert post[(0, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_hand_normalization(self):
        post = configuration_posterior([0.2, 0.5, 0.7], 2)
        assert post[(1, 1, 0)] == pytest.approx(0.03 / 0.38, abs=1e-12)
        assert post[(1, 0, 1)] == pytest.approx(0.07 / 0.38, abs=1e-12)
        assert post[(0, 1, 1)] == pytest.approx(0.28 / 0.38, abs=1e-12)

    def test_all_positive_bag_is_deterministic(self):
        post = configuration_posterior([0.2, 0.9, 0.4], 3)
        assert post == {(1, 1, 1): pytest.approx(1.0, abs=1e-12)}

    @given(bag_probabilities(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_weights_sum_to_one(self, case):
        p, y = case
        post = configuration_posterior(p, y)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(sum(h) == y for h in post)


class TestInstancePosteriors:
    def test_symmetry_forces_uniform_targets(self):
        phi = instance_posteriors([0.5, 0.5, 0.5, 0.5], 2)
        np.testing.assert_allclose(phi, 0.5, atol=1e-12)

    def test_hand_leave_one_out(self):
        # 0.2 * 0.5 / 0.38, 0.5 * 0.62 / 0.38, 0.7 * 0.5 / 0.38.
        phi = instance_posteriors([0.2, 0.5, 0.7], 2)
        np.testing.assert_allclose(
            phi, [0.1 / 0.38, 0.31 / 0.38, 0.35 / 0.38], atol=1e-12
        )

    def test_degenerate_counts(self):
        np.testing.assert_array_equal(instance_posteriors([0.3, 0.9], 0), [0.0, 0.0])
        np.testing.assert_array_equal(instance_posteriors([0.3, 0.9], 2), [1.0, 1.0])

    @given(bag_probabilities())
    @settings(max_examples=80, deadline=None)
    def test_sum_equals_count_and_bounds(self, case):
        p, y = case
        phi = instance_posteriors(p, y)
        assert phi.sum() == pytest.approx(y, abs=1e-10)
        assert np.all(phi >= 0.0) and np.all(phi <= 1.0)

    @given(bag_probabilities())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_marginals(self, case):
        p, y = case
        phi = instance_posteriors(p, y)
        post = configuration_posterior(p, y)
        marginals = np.zeros(len(p))
        for config, weight in post.items():
            marginals += weight * np.asarray(config)
        np.testing.assert_allclose(phi, marginals, atol=1e-10)


@st.composite
def mixed_bags(draw, max_bags=6, max_n=70):
    """Bags of 1..70 instances, across the power-of-two size buckets up to
    128, with counts that often sit at 0 or n."""
    bags = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_bags))):
        n = draw(st.integers(min_value=1, max_value=max_n))
        p = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        y = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
        bags.append((clamp_probabilities(p), y))
    return bags


def split_rows(values, sizes):
    return np.split(values, np.cumsum(sizes)[:-1])


class TestBatchPosteriors:
    @given(mixed_bags())
    @settings(max_examples=40, deadline=None)
    def test_matches_leave_one_out_oracle(self, bags):
        sizes = [p.size for p, _ in bags]
        counts = [y for _, y in bags]
        # A small table budget splits every bucket above width 8 into
        # chunks of one bag.
        with mock.patch.object(poisson_binomial, "_TABLE_BUDGET", 256):
            phi, log_pb = batch_posteriors(
                np.concatenate([p for p, _ in bags]), sizes, counts
            )
        for (p, y), got, log_value in zip(bags, split_rows(phi, sizes), log_pb):
            assert got.min() >= 0.0 and got.max() <= 1.0
            assert abs(got.sum() - y) <= 1e-10
            pb = pb_dp(p, y)
            # The linear-space oracles lose precision once pb underflows.
            if pb > 1e-300:
                np.testing.assert_allclose(got, loo_posteriors(p, y), rtol=0, atol=1e-10)
                assert abs(log_value - math.log(pb)) <= 1e-12 * max(1.0, -math.log(pb))

    def test_chunks_at_the_real_budget(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(40, 65, size=300)
        counts = rng.integers(0, sizes + 1)
        # Chunks are sized by the bound of 64 * (log2 64 + 9) floats per bag.
        assert sizes.size * 64 * (6 + 9) > 2 * poisson_binomial._TABLE_BUDGET
        probs = clamp_probabilities(rng.random(int(sizes.sum())))
        phi, log_pb = batch_posteriors(probs, sizes, counts)
        pairs = zip(split_rows(probs, sizes), split_rows(phi, sizes))
        for j, (p, got) in enumerate(pairs):
            alone, alone_log = batch_posteriors(p, [p.size], [counts[j]])
            np.testing.assert_allclose(got, alone, rtol=0, atol=1e-14)
            assert log_pb[j] == alone_log[0]
            assert abs(got.sum() - counts[j]) <= 1e-10

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(UsageError):
            batch_posteriors([0.5, 0.5], [3], [1])
        with pytest.raises(UsageError, match="bag 1"):
            batch_posteriors([0.5, 0.5, 0.5], [1, 2], [1, 3])
        with pytest.raises(UsageError, match="1-d"):
            batch_posteriors([[0.5, 0.5]], [2], [1])
        with pytest.raises(UsageError, match="nonnegative"):
            batch_posteriors([0.5], [-1, 2], [0, 1])


def plan_cases(rng):
    """Bags of 1-4, 40-47 and 64 instances, on both sides of the largest
    bag that is never tilted, and 16 bags of 128."""
    sizes = np.concatenate([
        rng.integers(1, 5, size=30), np.arange(40, 48), [64, 64], np.full(16, 128)
    ])
    counts = rng.integers(0, sizes + 1)
    return sizes, counts


def plan_probabilities(rng, sizes):
    """Clamped probabilities for :func:`plan_cases`, with up to 60% of each
    bag of 128 on a clamp edge, so that some of their floors lie below
    _LINEAR_FLOOR and some above."""
    p = rng.random(int(sizes.sum()))
    share = np.repeat(np.where(sizes == 128, rng.uniform(0.0, 0.6, sizes.size), 0.0), sizes)
    edge = rng.random(p.size) < share
    p[edge] = rng.integers(0, 2, size=int(edge.sum()))
    return clamp_probabilities(p)


class TestPosteriorPlan:
    def test_reused_plan_matches_fresh_calls(self):
        # Bags of up to 43 instances are planned as never tilted.
        assert poisson_binomial._ALWAYS_LINEAR == 43
        rng = np.random.default_rng(11)
        sizes, counts = plan_cases(rng)
        plan = PosteriorPlan(sizes, counts)
        tilted = 0
        for _ in range(4):
            probs = plan_probabilities(rng, sizes)
            floors = [bag_floor(p) for p in split_rows(probs, sizes)]
            tilted += sum(f < _LINEAR_FLOOR for f in floors)
            phi, log_pb = plan.run(probs)
            want, want_log = batch_posteriors(probs, sizes, counts)
            assert phi.tobytes() == want.tobytes()
            assert log_pb.tobytes() == want_log.tobytes()
        assert 0 < tilted < 4 * 16

    def test_nan_stays_in_its_bag(self, monkeypatch):
        rng = np.random.default_rng(12)
        sizes, counts = plan_cases(rng)
        probs = plan_probabilities(rng, sizes)
        plan = PosteriorPlan(sizes, counts)
        phi, log_pb = plan.run(probs)
        starts = np.cumsum(sizes) - sizes
        for bag in (3, 31, 40):
            broken = probs.copy()
            broken[starts[bag] + sizes[bag] // 2] = np.nan
            got, got_log = plan.run(broken)
            rows = np.arange(starts[bag], starts[bag] + sizes[bag])
            others = np.setdiff1d(np.arange(probs.size), rows)
            assert not np.isfinite(got_log[bag])
            assert not np.isfinite(got[rows]).all()
            assert np.delete(got_log, bag).tobytes() == np.delete(log_pb, bag).tobytes()
            assert got[others].tobytes() == phi[others].tobytes()

            # e_step clamps the network's outputs, which keeps the NaN.
            dataset = BagDataset(
                Instances(np.zeros((probs.size, 1))), np.append(starts, probs.size), counts
            )
            monkeypatch.setattr(network, "forward", lambda params, x: broken)
            with pytest.raises(NumericalError, match=f"bag {bag}$"):
                e_step(init_params((1, 2, 1), seed=0), dataset)


class TestUnderflow:
    """One confident instance among near-certain negatives, y = n/2: pb(y)
    lies far below the smallest float64 at these sizes."""

    @pytest.mark.parametrize("n", [100, 128, 200, 1000])
    def test_saturated_bag(self, n):
        p = np.full(n, 1e-9)
        p[0] = 0.9
        y = n // 2
        phi = instance_posteriors(p, y)
        assert phi.min() >= 0.0 and phi.max() <= 1.0
        assert abs(phi.sum() - y) <= 1e-10
        log_pb = bag_log_likelihood(p, y)
        assert math.isfinite(log_pb)

        # Closed form: the other n - 1 instances share one clamped p.
        s = CLAMP_EPS
        log_with = (
            math.log(0.9) + math.lgamma(n) - math.lgamma(y) - math.lgamma(n - y + 1)
            + (y - 1) * math.log(s) + (n - y) * math.log1p(-s)
        )
        log_without = (
            math.log(0.1) + math.lgamma(n) - math.lgamma(y + 1) - math.lgamma(n - y)
            + y * math.log(s) + (n - 1 - y) * math.log1p(-s)
        )
        top = max(log_with, log_without)
        log_total = top + math.log(
            math.exp(log_with - top) + math.exp(log_without - top)
        )
        assert phi[0] == pytest.approx(math.exp(log_with - log_total), abs=1e-12)
        np.testing.assert_allclose(phi[1:], (y - phi[0]) / (n - 1), rtol=0, atol=1e-12)
        assert log_pb == pytest.approx(log_total, rel=1e-12)


def two_level_log_pmf(a, size_a, b, size_b, y):
    """log P(y positives) among size_a instances at p = a and size_b at
    p = b, by summing over the count among the first group."""
    terms = [
        math.lgamma(size_a + 1) - math.lgamma(j + 1) - math.lgamma(size_a - j + 1)
        + j * math.log(a) + (size_a - j) * math.log1p(-a)
        + math.lgamma(size_b + 1) - math.lgamma(y - j + 1)
        - math.lgamma(size_b - y + j + 1)
        + (y - j) * math.log(b) + (size_b - y + j) * math.log1p(-b)
        for j in range(max(0, y - size_b), min(size_a, y) + 1)
    ]
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def bag_floor(p):
    """The routing floor: sum_i log min(p_i, 1 - p_i)."""
    return float(np.minimum(np.log(p), np.log1p(-p)).sum())


@st.composite
def straddling_bags(draw):
    """Up to four bags of 1..256 instances, each with a drawn share of its
    probabilities on either clamp edge and the rest uniform, so that bag
    floors fall on both sides of _LINEAR_FLOOR; counts often at 0 or n."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    bags = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = draw(st.integers(min_value=1, max_value=256))
        p = rng.random(n)
        edge = rng.random(n) < draw(st.floats(min_value=0.0, max_value=1.0))
        p[edge] = rng.integers(0, 2, size=int(edge.sum()))
        y = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
        bags.append((clamp_probabilities(p), y))
    return bags


class TestLinearRoute:
    """Every bag runs through one linear-space sweep; a bag whose floor is
    below _LINEAR_FLOOR is tilted first.  The log-space sweep in helpers
    is the oracle on both sides of the floor."""

    @given(straddling_bags())
    @settings(max_examples=80, deadline=None)
    def test_linear_sweep_matches_log_sweep(self, bags):
        sizes = [p.size for p, _ in bags]
        counts = [y for _, y in bags]
        # A small table budget splits every bucket above width 8 into
        # chunks of one bag.
        with mock.patch.object(poisson_binomial, "_TABLE_BUDGET", 256):
            phi, log_pb = batch_posteriors(
                np.concatenate([p for p, _ in bags]), sizes, counts
            )
        for (p, y), got, got_log in zip(bags, split_rows(phi, sizes), log_pb):
            want, want_log = log_sweep(
                np.log(p)[None], np.log1p(-p)[None], np.array([y])
            )
            # Past 1e-14, the log sweep's own rounding: its terms are as
            # large as |floor|, each rounded to a relative eps.
            atol = 1e-14 + abs(bag_floor(p)) * np.finfo(float).eps
            np.testing.assert_allclose(got, want[0], rtol=0, atol=atol)
            # Relative, except where log pb is near 0: there pb is near 1
            # and the linear sweep holds it to an absolute eps.
            assert abs(got_log - want_log[0]) <= 1e-13 * max(1.0, -want_log[0])

    @pytest.mark.parametrize("y", [0, 64])
    def test_tilted_bag_degenerate_counts(self, y):
        p = np.tile([CLAMP_EPS, 1.0 - CLAMP_EPS], 32)
        assert bag_floor(p) < _LINEAR_FLOOR
        phi, log_pb = batch_posteriors(p, [64], [y])
        np.testing.assert_array_equal(phi, np.full(64, y / 64))
        expected = np.log(p).sum() if y else np.log1p(-p).sum()
        assert log_pb[0] == pytest.approx(expected, rel=1e-12)

    def test_routes_share_a_bucket(self):
        rng = np.random.default_rng(3)
        linear_bag = clamp_probabilities(rng.uniform(0.2, 0.8, size=50))
        # Alternating clamp edges: floor 64 log(1e-7), about -1031.6,
        # although the count 32 is the most likely one.
        edge_bag = np.tile([CLAMP_EPS, 1.0 - CLAMP_EPS], 32)
        assert bag_floor(linear_bag) >= _LINEAR_FLOOR > bag_floor(edge_bag)
        bags, sizes, counts = [linear_bag, edge_bag], [50, 64], [23, 32]
        phi, log_pb = batch_posteriors(np.concatenate(bags), sizes, counts)
        for j, (p, got) in enumerate(zip(bags, split_rows(phi, sizes))):
            alone, alone_log = batch_posteriors(p, [p.size], [counts[j]])
            np.testing.assert_array_equal(got, alone)
            assert log_pb[j] == alone_log[0]

        s = CLAMP_EPS
        log_total = two_level_log_pmf(1.0 - s, 32, s, 32, 32)
        assert log_pb[1] == pytest.approx(log_total, rel=1e-12)
        log_high = two_level_log_pmf(1.0 - s, 31, s, 32, 31) - log_total
        high = (1.0 - s) * math.exp(log_high)
        got = split_rows(phi, sizes)[1]
        np.testing.assert_allclose(got[1::2], high, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[0::2], 1.0 - high, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n, expected", [(32, -222.25), (43, -295.40), (64, None)]
    )
    def test_worst_case_bag(self, n, expected):
        # One instance at 1 - 1e-7 and n - 1 at 1e-7, y = n/2: floor
        # n log(1e-7), untilted at n = 32 and 43, tilted at 64.
        s = CLAMP_EPS
        p = np.full(n, s)
        p[0] = 1.0 - s
        y = n // 2
        assert (bag_floor(p) >= _LINEAR_FLOOR) == (n <= 43)
        phi, log_pb = batch_posteriors(p, [n], [y])
        log_total = two_level_log_pmf(1.0 - s, 1, s, n - 1, y)
        if expected is not None:
            assert log_total == pytest.approx(expected, abs=5e-3)
        assert log_pb[0] == pytest.approx(log_total, rel=1e-12)
        log_first = two_level_log_pmf(1.0 - s, 0, s, n - 1, y - 1) - log_total
        first = (1.0 - s) * math.exp(log_first)
        assert phi[0] == pytest.approx(first, abs=1e-12)
        np.testing.assert_allclose(phi[1:], (y - first) / (n - 1), rtol=0, atol=1e-12)


# Sizes at and just past powers of two, where the tree gains a level or
# pads a bag to twice its size.
TREE_SIZES = [1, 2, 63, 64, 65, 128, 129, 256, 257]


def tree_cases(n):
    """(p, y) at the tree's edge counts y in {0, 1, n - 1, n} and at n // 3,
    whose tree alone is cut off below the chunk's cut-off at n: a bag with
    probabilities in [0.2, 0.8], whose floor lies above _LINEAR_FLOOR, and,
    from 63 instances up, a bag with most probabilities on a clamp edge,
    whose floor lies below it."""
    rng = np.random.default_rng(n)
    bags = [clamp_probabilities(rng.uniform(0.2, 0.8, size=n))]
    if n >= 63:
        p = rng.random(n)
        edge = rng.random(n) < 0.8
        p[edge] = rng.integers(0, 2, size=int(edge.sum()))
        bags.append(clamp_probabilities(p))
        assert bag_floor(bags[0]) >= _LINEAR_FLOOR > bag_floor(bags[1])
    counts = sorted({0, 1, n // 3, n - 1, n})
    return [(p, y) for p in bags for y in counts]


class TestTreeEdges:
    """The product tree at the sizes where its shape changes, against the
    oracles on both sides of the floor."""

    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_edge_counts_match_the_oracles(self, n):
        cases = tree_cases(n)
        sizes = [p.size for p, _ in cases]
        counts = [y for _, y in cases]
        phi, log_pb = batch_posteriors(
            np.concatenate([p for p, _ in cases]), sizes, counts
        )
        for j, ((p, y), got) in enumerate(zip(cases, split_rows(phi, sizes))):
            # Alone, the bag's tree is cut off at its own count, not at n.
            alone, alone_log = batch_posteriors(p, [n], [y])
            assert got.tobytes() == alone.tobytes()
            assert log_pb[j].tobytes() == alone_log[0].tobytes()
            if y == 0:
                np.testing.assert_array_equal(got, np.zeros(n))
            if y == n:
                np.testing.assert_array_equal(got, np.ones(n))
            assert abs(got.sum() - y) <= 1e-10

            want, want_log = log_sweep(
                np.log(p)[None], np.log1p(-p)[None], np.array([y])
            )
            atol = 1e-14 + abs(bag_floor(p)) * np.finfo(float).eps
            np.testing.assert_allclose(got, want[0], rtol=0, atol=atol)
            assert abs(log_pb[j] - want_log[0]) <= 1e-13 * max(1.0, -want_log[0])
            if bag_floor(p) >= _LINEAR_FLOOR:
                pb = pb_dp(p, y)
                assert abs(log_pb[j] - math.log(pb)) <= 1e-12 * max(1.0, -math.log(pb))
                if n <= 65:
                    np.testing.assert_allclose(
                        got, loo_posteriors(p, y), rtol=0, atol=1e-10
                    )

    def test_large_bag_in_bounded_memory(self):
        # 2048 instances at 0.3 and 2048 at 0.6 with y = 2048: a tilted bag
        # with a closed form.  A width * (y + 2) table would take 64 MiB.
        n, y = 4096, 2048
        p = np.repeat([0.3, 0.6], n // 2)
        assert bag_floor(p) < _LINEAR_FLOOR
        tracemalloc.start()
        try:
            phi, log_pb = batch_posteriors(p, [n], [y])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

        log_total = two_level_log_pmf(0.3, n // 2, 0.6, n // 2, y)
        assert log_pb[0] == pytest.approx(log_total, rel=1e-12)
        low = 0.3 * math.exp(two_level_log_pmf(0.3, n // 2 - 1, 0.6, n // 2, y - 1) - log_total)
        high = 0.6 * math.exp(two_level_log_pmf(0.3, n // 2, 0.6, n // 2 - 1, y - 1) - log_total)
        np.testing.assert_allclose(phi[: n // 2], low, rtol=0, atol=1e-12)
        np.testing.assert_allclose(phi[n // 2 :], high, rtol=0, atol=1e-12)
        assert abs(phi.sum() - y) <= 1e-10


    @pytest.mark.parametrize("length", [1, 3, 10])
    def test_windows_match_sliding_window_view(self, length):
        x = np.arange(60.0).reshape(2, 3, 10)[:, ::2]
        got = _windows(x, length)
        want = np.lib.stride_tricks.sliding_window_view(x, length, axis=-1)
        assert got.shape == want.shape
        assert got.strides == want.strides
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)


class TestBagLogLikelihood:
    def test_symmetric_pair(self):
        assert bag_log_likelihood([0.5, 0.5], 1) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_hand_value(self):
        assert bag_log_likelihood([0.2, 0.5, 0.7], 2) == pytest.approx(
            math.log(0.38), abs=1e-12
        )

    def test_finite_even_for_saturated_outputs(self):
        value = bag_log_likelihood([0.0, 0.0, 0.0], 3)
        assert math.isfinite(value)
        assert value == pytest.approx(3 * math.log(CLAMP_EPS), rel=1e-9)


class TestClamping:
    def test_interior_values_untouched(self):
        p = np.array([0.2, 0.5, 0.7])
        np.testing.assert_array_equal(clamp_probabilities(p), p)

    def test_boundaries_pulled_inside(self):
        clamped = clamp_probabilities([0.0, 1.0])
        assert clamped[0] == CLAMP_EPS
        assert clamped[1] == 1.0 - CLAMP_EPS

    def test_same_clamping_on_both_pmf_paths(self):
        p = [0.0, 1.0, 0.5]
        for y in range(4):
            assert abs(pb_dp(p, y) - pb_enumerated(p, y)) <= 1e-15
