"""Tests for the dense network, its analytic gradients, Adam, checkpoints."""

import json
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    adam_step,
    backward_blocks,
    finite_difference_gradient,
    max_relative_error,
    network_gradient,
    sigmoid_masked,
    sigmoid_two_branch,
)
from llpkit import objectives
from llpkit.errors import FormatError, NumericalError, UsageError
from llpkit.network import (
    BLOCK_ROWS,
    ClassifierParams,
    TrainingStep,
    _STREAM_FLOATS,
    _chunk_rows,
    _sigmoid,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)


class TestInit:
    def test_parameter_count(self):
        assert param_count((2, 8, 1)) == 2 * 8 + 8 + 8 * 1 + 1 == 33
        assert init_params((2, 8, 1), seed=0).theta.size == 33

    def test_deterministic(self):
        a = init_params((3, 16, 1), seed=7)
        b = init_params((3, 16, 1), seed=7)
        np.testing.assert_array_equal(a.theta, b.theta)
        c = init_params((3, 16, 1), seed=8)
        assert not np.array_equal(a.theta, c.theta)

    def test_biases_start_at_zero(self):
        params = init_params((4, 8, 1), seed=1)
        # Layout is W0, b0, W1, b1; biases are the tail of each block.
        w0 = 4 * 8
        assert np.all(params.theta[w0 : w0 + 8] == 0.0)
        assert params.theta[-1] == 0.0

    def test_rejects_zero_width(self):
        with pytest.raises(UsageError):
            init_params((4, 0, 1), seed=0)
        with pytest.raises(UsageError, match="needs at least an input and an output layer"):
            init_params((3,), 0)

    def test_rejects_wrong_output_width(self):
        with pytest.raises(UsageError):
            init_params((4, 8, 2), seed=0)

    @pytest.mark.parametrize("layer_sizes", [(2, 1), (2, 32, 32, 1), (3, 7, 1)])
    def test_theta_is_64_byte_aligned(self, layer_sizes):
        # Kept alive together, so that no two share an address.
        params = [init_params(layer_sizes, seed) for seed in range(8)]
        assert [p.theta.ctypes.data % 64 for p in params] == [0] * 8

    @pytest.mark.parametrize(
        "make",
        [
            lambda: init_params((2, 2.5, 1), 0),
            lambda: ClassifierParams((2.9, 2, 1), np.zeros(9)),
            lambda: ClassifierParams((2, 2, float("nan")), np.zeros(9)),
        ],
        ids=["init_params", "ClassifierParams", "nan"],
    )
    def test_rejects_a_layer_size_that_is_not_whole(self, make):
        with pytest.raises(UsageError, match="layer sizes must be a whole number"):
            make()

    def test_whole_layer_sizes_of_any_type_load_as_ints(self):
        sizes = (2.0, np.int64(2), np.uint8(1))
        for params in (init_params(sizes, 0), ClassifierParams(sizes, np.zeros(9))):
            assert params.layer_sizes == (2, 2, 1)
            assert all(type(w) is int for w in params.layer_sizes)

    def test_rejects_mismatched_theta(self):
        with pytest.raises(UsageError):
            ClassifierParams((2, 1), np.zeros(7))
        with pytest.raises(UsageError, match="non-finite"):
            ClassifierParams((2, 1), np.array([0.0, np.nan, 0.0]))


class TestForward:
    def test_zero_parameters_give_half(self):
        params = ClassifierParams((3, 4, 1), np.zeros(param_count((3, 4, 1))))
        X = np.random.default_rng(0).standard_normal((6, 3))
        np.testing.assert_array_equal(forward(params, X), np.full(6, 0.5))

    def test_sigmoid_is_the_masked_form_bit_for_bit(self):
        # Signed zeros, both infinities, NaN of either sign, exp(-36.8) near
        # half an ulp of 1.0, exp(-745) at the smallest subnormal, and tiny
        # arguments.
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 36.8, -36.8]
        edges += [745.0, -745.0, 1e-300, -1e-300]
        rng = np.random.default_rng(11)
        draws = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3, 3, 10_000)
        z = np.concatenate([edges, draws])
        assert _sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()

    def test_sigmoid_is_the_two_branch_form_bit_for_bit(self):
        # The one division of the selected numerator gives the bits of the
        # two divisions it replaced, in both tails and on NaN.
        edges = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 745.0, -745.0]
        edges += [1e308, -1e308]
        draws = np.random.default_rng(12).standard_normal(100_000) * 20.0
        z = np.concatenate([edges, draws])
        assert _sigmoid(z).tobytes() == sigmoid_two_branch(z).tobytes()

    def test_outputs_strictly_inside_unit_interval(self):
        params = init_params((3, 8, 1), seed=3)
        X = np.random.default_rng(1).standard_normal((50, 3))
        probs = forward(params, X)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_single_vs_batched_bitwise(self):
        # Past two full blocks, so rows come from full blocks and the tail.
        n = 2 * BLOCK_ROWS + 33
        params = init_params((4, 16, 16, 1), seed=5)
        X = np.random.default_rng(2).standard_normal((n, 4))
        full = forward(params, X)
        singles = np.array([forward(params, X[i : i + 1])[0] for i in range(n)])
        np.testing.assert_array_equal(full, singles)

    @given(
        layer_sizes=st.sampled_from(
            [
                (2, 32, 32, 1),
                (3, 64, 64, 1),
                (5, 8, 1),
                (2, 1),
                (3, 300, 1),
                # A width-1 first hidden layer fed by 3 features.
                (3, 1, 1),
                (3, 1, 4, 1),
            ]
        ),
        # Around one 256-row chunk of (2, 32, 32, 1), and four chunks plus
        # a tail; (3, 300, 1) streams one block per chunk.
        n=st.sampled_from([1, 63, 64, 65, 255, 256, 257, 1000, 4 * 256 + 77]),
        layout=st.sampled_from(["contiguous", "offset", "fortran"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_match_the_full_batch_bitwise(self, layer_sizes, n, layout, seed):
        """Any subset of rows, in any order and at any position, scores
        exactly as in the full batch, whatever the batch's memory layout."""
        rng = np.random.default_rng(seed)
        params = init_params(layer_sizes, seed=seed)
        base = 3.0 * rng.standard_normal((n + 1, layer_sizes[0]))
        X = {
            "contiguous": base[:n],
            "offset": base[1:],
            "fortran": np.asfortranarray(base[:n]),
        }[layout]
        full = forward(params, X)
        rows = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        np.testing.assert_array_equal(forward(params, X[rows]), full[rows])
        i = int(rng.integers(n))
        assert forward(params, X[i : i + 1])[0] == full[i]
        assert forward(params, X[i:])[0] == full[i]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_output_is_numerical_error(self):
        # Both hidden units overflow to +inf; the output adds inf and -inf.
        theta = np.array([1e200, 1e200, 1e200, 1e200, 0.0, 0.0, 1e200, -1e200, 0.0])
        params = ClassifierParams((2, 2, 1), theta)
        with pytest.raises(NumericalError, match="not finite"):
            forward(params, np.array([[1e200, 1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_output_in_the_last_chunk(self):
        # The network of the test above: zero rows score 0.5, and only the
        # last row, in the tail of the stream, overflows.
        theta = np.array([1e200, 1e200, 1e200, 1e200, 0.0, 0.0, 1e200, -1e200, 0.0])
        params = ClassifierParams((2, 2, 1), theta)
        X = np.zeros((3 * _chunk_rows(params.layer_sizes) + 5, 2))
        X[-1] = [1e200, 1.0]
        np.testing.assert_array_equal(forward(params, X[:-1]), 0.5)
        with pytest.raises(NumericalError, match="not finite"):
            forward(params, X)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_output_in_the_last_sigmoid_block(self):
        # The same network; the overflowing row is alone in the last block
        # of _STREAM_FLOATS rows that the sigmoid runs over.
        theta = np.array([1e200, 1e200, 1e200, 1e200, 0.0, 0.0, 1e200, -1e200, 0.0])
        params = ClassifierParams((2, 2, 1), theta)
        X = np.zeros((2 * _STREAM_FLOATS + 1, 2))
        X[-1] = [1e200, 1.0]
        np.testing.assert_array_equal(forward(params, X[:-1]), 0.5)
        with pytest.raises(NumericalError, match="not finite"):
            forward(params, X)

    def test_rows_across_a_sigmoid_block_boundary(self):
        """Past _STREAM_FLOATS rows, where a sigmoid block ends inside a
        chunk, every row scores as it does alone and in other batches."""
        params = init_params((3, 5, 1), seed=4)
        chunk = _chunk_rows(params.layer_sizes)
        assert _STREAM_FLOATS % chunk
        n = _STREAM_FLOATS + chunk + 3
        X = 3.0 * np.random.default_rng(6).standard_normal((n, 3))
        full = forward(params, X)
        singles = np.array([forward(params, X[i : i + 1])[0] for i in range(n)])
        assert full.tobytes() == singles.tobytes()
        for lo, hi in [(1, n), (0, _STREAM_FLOATS + 1), (chunk + 7, n - 2), (5, 70)]:
            assert forward(params, X[lo:hi]).tobytes() == full[lo:hi].tobytes()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_output_in_the_first_chunk(self):
        # The same network; the overflowing row opens the stream, and the
        # chunks after it score 0.5.
        theta = np.array([1e200, 1e200, 1e200, 1e200, 0.0, 0.0, 1e200, -1e200, 0.0])
        params = ClassifierParams((2, 2, 1), theta)
        X = np.zeros((3 * _chunk_rows(params.layer_sizes) + 5, 2))
        X[0] = [1e200, 1.0]
        np.testing.assert_array_equal(forward(params, X[1:]), 0.5)
        with pytest.raises(NumericalError, match="not finite"):
            forward(params, X)

    def test_memory_is_bounded_by_the_chunk(self):
        """Scoring 50 000 rows allocates a chunk's activations and the
        output vector, not every layer's activations for the batch."""
        params = init_params((2, 32, 32, 1), seed=0)
        X = np.random.default_rng(0).standard_normal((50_000, 2))
        forward(params, X[:10])
        tracemalloc.start()
        try:
            forward(params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_row_permutation_permutes_outputs(self):
        params = init_params((2, 8, 1), seed=9)
        X = np.random.default_rng(3).standard_normal((20, 2))
        perm = np.random.default_rng(4).permutation(20)
        np.testing.assert_array_equal(forward(params, X)[perm], forward(params, X[perm]))

    def test_dimension_mismatch(self):
        params = init_params((3, 4, 1), seed=0)
        with pytest.raises(UsageError):
            forward(params, np.zeros((5, 2)))
        with pytest.raises(UsageError, match="batch must be a 2-d matrix"):
            forward(params, np.zeros(3))


def weighted_sum(weights):
    """Loss sum_i w_i f_i: its output gradient is ``weights`` itself."""
    return lambda probs: (float(weights @ probs), weights)


class TestBackward:
    def test_zero_output_grads(self):
        params = init_params((3, 8, 1), seed=2)
        X = np.random.default_rng(5).standard_normal((7, 3))
        _, grad = network_gradient(params, X, weighted_sum(np.zeros(7)))
        np.testing.assert_array_equal(grad, np.zeros_like(params.theta))

    def test_linear_in_output_grads(self):
        params = init_params((3, 8, 1), seed=2)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((7, 3))
        g1 = rng.standard_normal(7)
        g2 = rng.standard_normal(7)
        _, combined = network_gradient(params, X, weighted_sum(g1 + g2))
        _, first = network_gradient(params, X, weighted_sum(g1))
        _, second = network_gradient(params, X, weighted_sum(g2))
        np.testing.assert_allclose(combined, first + second, rtol=1e-12, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params((4, 8, 1), seed=11)
        X = rng.standard_normal((5, 4))
        weights = rng.standard_normal(5)

        def value(theta):
            return float(weights @ forward(params.with_theta(theta), X))

        loss, analytic = network_gradient(params, X, weighted_sum(weights))
        assert loss == value(params.theta)
        numeric = finite_difference_gradient(value, params.theta)
        assert max_relative_error(analytic, numeric) <= 1e-5

    def test_loss_sees_the_forward_outputs(self):
        params = init_params((4, 8, 8, 1), seed=12)
        X = np.random.default_rng(8).standard_normal((9, 4))
        seen = []

        def loss(probs):
            seen.append(probs)
            return 0.0, np.zeros_like(probs)

        network_gradient(params, X, loss)
        np.testing.assert_array_equal(seen[0], forward(params, X))

    def test_shape_mismatch(self):
        params = init_params((3, 4, 1), seed=0)
        with pytest.raises(UsageError):
            network_gradient(params, np.zeros((5, 3)), lambda probs: (0.0, np.zeros(4)))

    @given(
        layer_sizes=st.sampled_from(
            [(2, 32, 32, 1), (5, 8, 1), (2, 1), (2, 1, 1), (3, 1, 4, 1)]
        ),
        n=st.sampled_from([1, 63, 64, 65, 185, 257, 290, 1000]),
        loss_name=st.sampled_from(["m_step_loss", "amle", "dllp"]),
        layout=st.sampled_from(["contiguous", "offset", "fortran"]),
        zero_output_weights=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradient_match_the_block_oracle(
        self, layer_sizes, n, loss_name, layout, zero_output_weights, seed
    ):
        """The padded pass gives the value and gradient bytes of separate
        products per block, signed zeros included; a Fortran-ordered batch
        gives those of its C-ordered copy."""
        rng = np.random.default_rng(seed)
        params = init_params(layer_sizes, seed=seed)
        if zero_output_weights:
            theta = params.theta.copy()
            theta[-layer_sizes[-2] - 1 : -1] = 0.0
            params = params.with_theta(theta)
        base = 3.0 * rng.standard_normal((n + 1, layer_sizes[0]))
        X = {
            "contiguous": base[:n],
            "offset": base[1:],
            "fortran": np.asfortranarray(base[:n]),
        }[layout]
        if loss_name == "m_step_loss":
            targets = rng.random(n)

            def loss(probs):
                return objectives.m_step_loss(probs, targets)

        else:
            cuts = rng.integers(1, n + 1, n // 3)
            sizes = np.diff(np.unique(np.concatenate(([0, n], cuts))))
            counts = rng.integers(0, sizes + 1)
            batch_loss = getattr(objectives, f"{loss_name}_batch_loss")

            def loss(probs):
                return batch_loss(probs, sizes, counts)

        value, grad = network_gradient(params, X, loss)
        want_value, want_grad = backward_blocks(params, np.ascontiguousarray(X), loss)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def adam_buffers(params):
    """A copy of ``params.theta`` and two zero moment vectors: the state of
    a fresh step, for the out-of-place Adam formula."""
    theta = params.theta.copy()
    return theta, np.zeros_like(theta), np.zeros_like(theta)


def adam_update(step, grad):
    """Write ``grad`` into ``step``'s gradient and run its Adam update, under
    the ``errstate`` that a step's call runs it in."""
    np.copyto(step.grad, grad)
    with np.errstate(over="ignore", invalid="ignore"):
        step.update()


def adam_state(step):
    """The bytes of ``step``'s parameters and moments."""
    return [a.tobytes() for a in (step.params.theta, step.first_moment, step.second_moment)]


class TestOptimizer:
    def test_zero_gradient_leaves_parameters(self):
        params = init_params((2, 4, 1), seed=0)
        before = params.theta.tobytes()
        step = TrainingStep(params, 1e-3)
        adam_update(step, np.zeros_like(params.theta))
        assert params.theta.tobytes() == before
        assert not step.first_moment.any() and not step.second_moment.any()

    def test_first_step_is_bounded_by_learning_rate(self):
        params = init_params((2, 4, 1), seed=0)
        theta = params.theta.copy()
        grad = np.random.default_rng(8).standard_normal(theta.size)
        adam_update(TrainingStep(params, 1e-3), grad)
        delta = params.theta - theta
        # At step one bias corrections cancel: delta = -lr * g / (|g| + eps).
        assert np.all(np.abs(delta) <= 1e-3 * (1.0 + 1e-9))
        moved = np.abs(grad) > 1e-12
        assert np.all(np.sign(delta[moved]) == -np.sign(grad[moved]))

    def test_rejects_non_finite_gradient(self):
        step = TrainingStep(init_params((2, 4, 1), seed=0), 1e-3)
        rng = np.random.default_rng(4)
        adam_update(step, rng.standard_normal(step.grad.size))
        before = adam_state(step)
        grad = rng.standard_normal(step.grad.size)
        grad[3] = np.nan
        with pytest.raises(NumericalError, match="index 3"):
            adam_update(step, grad)
        assert adam_state(step) == before
        assert step.steps == 1

    def test_rejects_non_finite_update(self):
        params = init_params((2, 4, 1), seed=0)
        before = params.theta.tobytes()
        step = TrainingStep(params, float("inf"))
        with pytest.raises(NumericalError, match="update is not finite"):
            adam_update(step, np.ones_like(params.theta))
        assert params.theta.tobytes() == before
        assert step.steps == 0

    def test_trajectory_is_deterministic(self):
        def run():
            params = init_params((2, 4, 1), seed=1)
            step = TrainingStep(params, 1e-2)
            rng = np.random.default_rng(9)
            for _ in range(25):
                adam_update(step, rng.standard_normal(params.theta.size))
            return params.theta

        np.testing.assert_array_equal(run(), run())

    def test_in_place_step_is_the_out_of_place_formula(self):
        # Gradients over 12 decades, so that a reassociated product rounds
        # differently somewhere.
        params = init_params((3, 8, 1), seed=5)
        expected = adam_buffers(params)
        step = TrainingStep(params, 2e-3)
        rng = np.random.default_rng(6)
        for k in range(1, 41):
            scale = 10.0 ** rng.uniform(-6, 6, params.theta.size)
            grad = rng.standard_normal(params.theta.size) * scale
            adam_update(step, grad)
            expected = adam_step(*expected, k, 2e-3, grad)
            assert adam_state(step) == [a.tobytes() for a in expected]
        assert step.steps == 40


class TestTrainingStep:
    """One step object driven over batches of changing size is the chain of
    the block oracle's gradients (``helpers.backward_blocks``) and the
    out-of-place Adam formula (``helpers.adam_step``)."""

    SIZES = (2, 32, 32, 1)

    def batches(self, loss_name):
        """(batch, loss, items) for batches of 1, 63, 64, 65 and 298 rows,
        in that order, so that the step's buffers serve shrinking and
        growing batches."""
        rng = np.random.default_rng(21)
        for n in (1, 63, 64, 65, 298):
            X = 2.0 * rng.standard_normal((n, self.SIZES[0]))
            if loss_name == "m_step_loss":
                targets = rng.random(n)
                yield X, partial(objectives.m_step_loss, soft_targets=targets), n
                continue
            cuts = rng.integers(1, n + 1, n // 3)
            sizes = np.diff(np.unique(np.concatenate(([0, n], cuts))))
            counts = rng.integers(0, sizes + 1)
            batch_loss = getattr(objectives, f"{loss_name}_batch_loss")
            loss = partial(batch_loss, sizes=sizes, positive_counts=counts)
            yield X, loss, sizes.size

    @pytest.mark.parametrize("loss_name", ["m_step_loss", "amle", "dllp"])
    def test_steps_match_backward_and_out_of_place_adam(self, loss_name):
        params = init_params(self.SIZES, seed=3)
        theta, m, v = adam_buffers(params)
        step = TrainingStep(params, 2e-3)
        for k, (X, loss, items) in enumerate(self.batches(loss_name), start=1):
            value = step(X, loss, items)
            want_value, grad = backward_blocks(ClassifierParams(self.SIZES, theta), X, loss)
            theta, m, v = adam_step(theta, m, v, k, 2e-3, grad / items)
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
            assert [a.tobytes() for a in (params.theta, step.first_moment)] == [
                a.tobytes() for a in (theta, m)
            ]
            assert step.second_moment.tobytes() == v.tobytes()
        assert step.steps == 5

    def test_non_finite_update_keeps_the_last_parameters(self):
        params = init_params(self.SIZES, seed=4)
        step = TrainingStep(params, 1e-3)
        batches = self.batches("m_step_loss")
        for _ in range(2):
            step(*next(batches))
        before = adam_state(step)
        step.learning_rate = float("inf")
        with pytest.raises(NumericalError, match="parameter update is not finite"):
            step(*next(batches))
        assert adam_state(step) == before
        assert step.steps == 2

    def test_non_finite_gradient_writes_nothing(self):
        params = init_params(self.SIZES, seed=5)
        step = TrainingStep(params, 1e-3)
        batches = self.batches("m_step_loss")
        step(*next(batches))
        state = (params.theta, step.first_moment, step.second_moment)
        before = [a.tobytes() for a in state]
        X, _, items = next(batches)

        def loss(probs):
            g = np.zeros_like(probs)
            g[0] = np.nan
            return 0.0, g

        with pytest.raises(NumericalError, match="non-finite gradient entry"):
            step(X, loss, items)
        assert [a.tobytes() for a in state] == before
        assert step.steps == 1

    @pytest.mark.parametrize("shape", [(5, 3), (5,), (5, 2, 1)])
    def test_rejects_a_batch_of_the_wrong_shape(self, shape):
        params = init_params(self.SIZES, seed=7)
        step = TrainingStep(params, 1e-3)
        before = params.theta.tobytes()
        with pytest.raises(UsageError, match=r"batch has shape .*, not \(n, 2\)"):
            step(np.zeros(shape), lambda probs: (0.0, np.zeros_like(probs)), 5)
        assert params.theta.tobytes() == before
        assert step.steps == 0

    def test_non_finite_loss(self):
        params = init_params(self.SIZES, seed=6)
        step = TrainingStep(params, 1e-3)
        X = np.zeros((3, self.SIZES[0]))
        before = params.theta.tobytes()
        with pytest.raises(NumericalError, match="non-finite loss"):
            step(X, lambda probs: (float("nan"), np.zeros_like(probs)), 3)
        assert params.theta.tobytes() == before
        assert step.steps == 0


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params((3, 8, 1), seed=13)
        grad = np.random.default_rng(10).standard_normal(params.theta.size)
        adam_update(TrainingStep(params, 2e-3), grad)

        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert loaded.layer_sizes == params.layer_sizes
        assert loaded.theta.tobytes() == params.theta.tobytes()
        assert path.read_text().endswith('"optimizer": null}\n')

    @pytest.mark.parametrize("layer_sizes", [(2, 1), (2, 32, 32, 1), (3, 7, 1)])
    def test_loaded_theta_is_64_byte_aligned(self, tmp_path, layer_sizes):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(layer_sizes, seed=2))
        # Kept alive together, so that no two share an address.
        params = [load_checkpoint(path)[0] for _ in range(8)]
        assert [p.theta.ctypes.data % 64 for p in params] == [0] * 8

    def test_round_trip_without_optimizer(self, tmp_path):
        params = init_params((2, 4, 1), seed=3)
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        loaded, state = load_checkpoint(path)
        assert state is None
        assert loaded.theta.tobytes() == params.theta.tobytes()

    def test_checkpoint_with_optimizer_state_still_loads(self, tmp_path):
        # The layout that checkpoints carrying Adam state were written in.
        params = init_params((3, 8, 1), seed=13)
        size = params.theta.size
        record = {
            "format": "llpkit-checkpoint",
            "version": 1,
            "layer_sizes": list(params.layer_sizes),
            "theta": params.theta.tolist(),
            "optimizer": {
                "first_moment": [-0.0125] * size,
                "second_moment": [3.5e-4] * size,
                "step": 1,
                "learning_rate": 2e-3,
                "beta1": 0.9,
                "beta2": 0.999,
                "eps": 1e-8,
            },
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(record) + "\n")
        loaded, loaded_state = load_checkpoint(path)
        assert loaded_state is None
        assert loaded.layer_sizes == params.layer_sizes
        assert loaded.theta.tobytes() == params.theta.tobytes()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError):
            load_checkpoint(path)
        path.write_text("not json")
        with pytest.raises(FormatError):
            load_checkpoint(path)
        path.write_text('{"format": "llpkit-checkpoint", "version": 2}')
        with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    def test_non_object_json_is_format_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.pop("layer_sizes"),
            lambda r: r.update(layer_sizes="2,4,1"),
            lambda r: r.update(layer_sizes=[2.5, 4, 1]),
            lambda r: r.pop("theta"),
            lambda r: r.update(theta={"0": 1.0}),
            lambda r: r.update(theta=r["theta"][:-1]),
            # An integer beyond float range.
            lambda r: r["theta"].__setitem__(0, 10**400),
        ],
    )
    def test_missing_or_mistyped_field_is_format_error(self, tmp_path, edit):
        params = init_params((2, 4, 1), seed=3)
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))
        with pytest.raises(FormatError):
            load_checkpoint(path)
