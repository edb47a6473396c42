"""Unit tests for Sequential, metrics and the training loop."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import (
    Adam,
    CrossEntropy,
    Dense,
    ReLU,
    Sequential,
    Softmax,
    accuracy,
    confusion_matrix,
    iterate_minibatches,
    train_model,
)
from repro.nn.stacked import stack_candidates
from repro.nn.training import train_stack


def small_model(rng):
    return Sequential(
        [Dense(2, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng), Softmax()]
    )


def xor_like_data(rng, n=200):
    x = rng.uniform(-1, 1, (n, 2))
    labels = ((x[:, 0] * x[:, 1]) > 0).astype(int)
    y = np.eye(2)[labels]
    return x, y


class TestSequential:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_param_collection(self, rng):
        model = small_model(rng)
        assert len(model.parameters()) == 4  # two Dense layers x (W, b)
        assert model.param_count == 2 * 8 + 8 + 8 * 2 + 2

    def test_forward_backward_shapes(self, rng):
        model = small_model(rng)
        x = rng.standard_normal((5, 2))
        out = model.forward(x, training=True)
        assert out.shape == (5, 2)
        grad_in = model.backward(np.ones_like(out) / 5)
        assert grad_in.shape == (5, 2)

    def test_zero_grads(self, rng):
        model = small_model(rng)
        x = rng.standard_normal((3, 2))
        model.forward(x, training=True)
        model.backward(np.ones((3, 2)))
        model.zero_grads()
        assert all(not g.any() for g in model.gradients())

    def test_summary_contains_layers_and_total(self, rng):
        text = small_model(rng).summary()
        assert "Dense" in text and "total" in text

    def test_len_and_iter(self, rng):
        model = small_model(rng)
        assert len(model) == 4
        assert len(list(model)) == 4

    def test_evaluate_accuracy(self, rng):
        model = small_model(rng)
        x, y = xor_like_data(rng, 50)
        acc = model.evaluate_accuracy(x, y)
        assert 0.0 <= acc <= 1.0


class TestMetrics:
    def test_accuracy_with_labels_and_onehot(self):
        y_true = np.array([0, 1, 2, 1])
        probs = np.eye(3)[[0, 1, 1, 1]]
        assert accuracy(y_true, probs) == pytest.approx(0.75)
        assert accuracy(np.eye(3)[y_true], probs) == pytest.approx(0.75)

    def test_accuracy_shape_errors(self):
        with pytest.raises(ShapeError):
            accuracy(np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeError):
            accuracy(np.zeros((2, 2, 2)), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            accuracy(np.zeros(0), np.zeros(0))

    def test_confusion_matrix(self):
        cm = confusion_matrix(np.array([0, 0, 1]), np.array([0, 1, 1]), 2)
        assert cm.tolist() == [[1, 1], [0, 1]]


class TestMinibatches:
    def test_covers_all_indices(self, rng):
        batches = list(iterate_minibatches(10, 3, rng))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(10))
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_no_shuffle_is_ordered(self, rng):
        batches = list(iterate_minibatches(6, 2, rng, shuffle=False))
        assert np.concatenate(batches).tolist() == list(range(6))

    def test_invalid_batch_size(self, rng):
        with pytest.raises(ConfigurationError):
            list(iterate_minibatches(4, 0, rng))


class TestTrainModel:
    def test_learns_separable_problem(self, rng):
        x, y = xor_like_data(rng, 240)
        model = small_model(rng)
        history = train_model(
            model,
            x[:200],
            y[:200],
            x[200:],
            y[200:],
            epochs=60,
            batch_size=16,
            optimizer=Adam(learning_rate=0.01),
            rng=rng,
        )
        assert history.max_train_accuracy > 0.9
        assert history.epochs_run == 60
        assert len(history.train_loss) == 60
        # loss should broadly decrease
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stop(self, rng):
        x, y = xor_like_data(rng, 120)
        model = small_model(rng)
        history = train_model(
            model,
            x[:100],
            y[:100],
            x[100:],
            y[100:],
            epochs=200,
            batch_size=16,
            optimizer=Adam(learning_rate=0.02),
            rng=rng,
            early_stop_threshold=0.8,
        )
        assert history.stopped_early
        assert history.epochs_run < 200
        assert history.meets_threshold(0.8)

    def test_max_accuracy_is_max_over_epochs(self, rng):
        x, y = xor_like_data(rng, 80)
        model = small_model(rng)
        history = train_model(
            model, x[:60], y[:60], x[60:], y[60:], epochs=5, batch_size=8,
            rng=rng,
        )
        assert history.max_train_accuracy == max(history.train_accuracy)
        assert history.max_val_accuracy == max(history.val_accuracy)

    def test_validation_inputs_checked(self, rng):
        x, y = xor_like_data(rng, 20)
        model = small_model(rng)
        with pytest.raises(ShapeError):
            train_model(model, x, y[:10], x, y, epochs=1)
        with pytest.raises(ShapeError):
            train_model(model, x, np.argmax(y, axis=1), x, y, epochs=1)
        with pytest.raises(ConfigurationError):
            train_model(model, x, y, x, y, epochs=0)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_scalar_and_stacked_loops_reject_batch_size(
        self, rng, batch_size
    ):
        x, y = xor_like_data(rng, 20)
        kw = dict(epochs=1, batch_size=batch_size)
        with pytest.raises(ConfigurationError):
            train_model(small_model(rng), x, y, x, y, rng=rng, **kw)
        stack = stack_candidates([[small_model(rng) for _ in range(2)]])
        with pytest.raises(ConfigurationError):
            train_stack(stack, x, y, x, y, **kw)

    def test_wall_time_recorded(self, rng):
        x, y = xor_like_data(rng, 40)
        model = small_model(rng)
        history = train_model(
            model, x, y, x, y, epochs=2, batch_size=8, rng=rng
        )
        assert history.wall_time_s > 0
