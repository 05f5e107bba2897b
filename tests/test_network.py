"""Tests for the dense network, its analytic gradients, Adam, checkpoints."""

import json

import numpy as np
import pytest

from helpers import finite_difference_gradient, max_relative_error
from llpkit.errors import FormatError, NumericalError, UsageError
from llpkit.network import (
    ClassifierParams,
    backward,
    forward,
    init_optimizer,
    init_params,
    load_checkpoint,
    optimizer_step,
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

    def test_rejects_wrong_output_width(self):
        with pytest.raises(UsageError):
            init_params((4, 8, 2), seed=0)

    def test_rejects_mismatched_theta(self):
        with pytest.raises(UsageError):
            ClassifierParams((2, 1), np.zeros(7))


class TestForward:
    def test_zero_parameters_give_half(self):
        params = ClassifierParams((3, 4, 1), np.zeros(param_count((3, 4, 1))))
        X = np.random.default_rng(0).standard_normal((6, 3))
        np.testing.assert_array_equal(forward(params, X), np.full(6, 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        params = init_params((3, 8, 1), seed=3)
        X = np.random.default_rng(1).standard_normal((50, 3))
        probs = forward(params, X)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_single_vs_batched_bitwise(self):
        params = init_params((4, 16, 16, 1), seed=5)
        X = np.random.default_rng(2).standard_normal((33, 4))
        full = forward(params, X)
        singles = np.array([forward(params, X[i : i + 1])[0] for i in range(33)])
        np.testing.assert_array_equal(full, singles)

    def test_row_permutation_permutes_outputs(self):
        params = init_params((2, 8, 1), seed=9)
        X = np.random.default_rng(3).standard_normal((20, 2))
        perm = np.random.default_rng(4).permutation(20)
        np.testing.assert_array_equal(forward(params, X)[perm], forward(params, X[perm]))

    def test_dimension_mismatch(self):
        params = init_params((3, 4, 1), seed=0)
        with pytest.raises(UsageError):
            forward(params, np.zeros((5, 2)))


def weighted_sum(weights):
    """Loss sum_i w_i f_i: its output gradient is ``weights`` itself."""
    return lambda probs: (float(weights @ probs), weights)


class TestBackward:
    def test_zero_output_grads(self):
        params = init_params((3, 8, 1), seed=2)
        X = np.random.default_rng(5).standard_normal((7, 3))
        _, grad = backward(params, X, weighted_sum(np.zeros(7)))
        np.testing.assert_array_equal(grad, np.zeros_like(params.theta))

    def test_linear_in_output_grads(self):
        params = init_params((3, 8, 1), seed=2)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((7, 3))
        g1 = rng.standard_normal(7)
        g2 = rng.standard_normal(7)
        _, combined = backward(params, X, weighted_sum(g1 + g2))
        _, first = backward(params, X, weighted_sum(g1))
        _, second = backward(params, X, weighted_sum(g2))
        np.testing.assert_allclose(combined, first + second, rtol=1e-12, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params((4, 8, 1), seed=11)
        X = rng.standard_normal((5, 4))
        weights = rng.standard_normal(5)

        def value(theta):
            return float(weights @ forward(params.with_theta(theta), X))

        loss, analytic = backward(params, X, weighted_sum(weights))
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

        backward(params, X, loss)
        np.testing.assert_array_equal(seen[0], forward(params, X))

    def test_shape_mismatch(self):
        params = init_params((3, 4, 1), seed=0)
        with pytest.raises(UsageError):
            backward(params, np.zeros((5, 3)), lambda probs: (0.0, np.zeros(4)))


class TestOptimizer:
    def test_zero_gradient_leaves_parameters(self):
        params = init_params((2, 4, 1), seed=0)
        state = init_optimizer(params)
        updated, new_state = optimizer_step(params, state, np.zeros_like(params.theta))
        np.testing.assert_array_equal(updated.theta, params.theta)
        assert new_state.step == 1

    def test_first_step_is_bounded_by_learning_rate(self):
        params = init_params((2, 4, 1), seed=0)
        state = init_optimizer(params, learning_rate=1e-3)
        grad = np.random.default_rng(8).standard_normal(params.theta.size)
        updated, _ = optimizer_step(params, state, grad)
        delta = updated.theta - params.theta
        # At step one bias corrections cancel: delta = -lr * g / (|g| + eps).
        assert np.all(np.abs(delta) <= 1e-3 * (1.0 + 1e-9))
        moved = np.abs(grad) > 1e-12
        assert np.all(np.sign(delta[moved]) == -np.sign(grad[moved]))

    def test_rejects_non_finite_gradient(self):
        params = init_params((2, 4, 1), seed=0)
        state = init_optimizer(params)
        grad = np.zeros_like(params.theta)
        grad[3] = np.nan
        with pytest.raises(NumericalError):
            optimizer_step(params, state, grad)

    def test_trajectory_is_deterministic(self):
        def run():
            params = init_params((2, 4, 1), seed=1)
            state = init_optimizer(params, learning_rate=1e-2)
            rng = np.random.default_rng(9)
            for _ in range(25):
                grad = rng.standard_normal(params.theta.size)
                params, state = optimizer_step(params, state, grad)
            return params.theta

        np.testing.assert_array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params((3, 8, 1), seed=13)
        grad = np.random.default_rng(10).standard_normal(params.theta.size)
        state = init_optimizer(params, learning_rate=2e-3)
        params, _ = optimizer_step(params, state, grad)

        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert loaded.layer_sizes == params.layer_sizes
        assert loaded.theta.tobytes() == params.theta.tobytes()
        assert path.read_text().endswith('"optimizer": null}\n')

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
        state = init_optimizer(params, learning_rate=2e-3)
        grad = np.random.default_rng(10).standard_normal(params.theta.size)
        params, state = optimizer_step(params, state, grad)
        record = {
            "format": "llpkit-checkpoint",
            "version": 1,
            "layer_sizes": list(params.layer_sizes),
            "theta": params.theta.tolist(),
            "optimizer": {
                "first_moment": state.first_moment.tolist(),
                "second_moment": state.second_moment.tolist(),
                "step": state.step,
                "learning_rate": state.learning_rate,
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
