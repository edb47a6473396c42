"""Tests for run-stacked model training: one candidate's run set as a
one-candidate group (``stack_candidates([models])`` + ``train_stack``).

The contract mirrors the engine's: training R stacked models in
lockstep must be bit-identical — histories *and* final parameters — to
R scalar :func:`train_model` calls on the same RNG streams, including
when some runs freeze early.
"""

import numpy as np
import pytest

from repro.data import make_spiral, stratified_split
from repro.exceptions import TrainingCancelled
from repro.hybrid.builders import build_classical_model, build_hybrid_model
from repro.hybrid.quantum_layer import QuantumLayer, StackedQuantumLayer
from repro.nn.layers import Dense, Dropout, ReLU, Softmax
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam, StackedAdam
from repro.nn.stacked import StackedDense, stack_candidates
from repro.nn.training import train_model, train_stack


@pytest.fixture(scope="module")
def split():
    ds = make_spiral(4, n_points=90, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def train_scalar(builder, split, runs, **kw):
    histories, params = [], []
    for r in range(runs):
        rng = np.random.default_rng((0, 1, r))
        model = builder(rng)
        histories.append(
            train_model(
                model,
                split.x_train,
                split.y_train,
                split.x_val,
                split.y_val,
                optimizer=Adam(learning_rate=0.001),
                rng=rng,
                **kw,
            )
        )
        params.append([p.copy() for p in model.parameters()])
    return histories, params


def train_stacked(builder, split, runs, **kw):
    rngs = [np.random.default_rng((0, 1, r)) for r in range(runs)]
    models = [builder(rng) for rng in rngs]
    stack = stack_candidates([models])
    assert stack is not None
    histories = train_stack(
        stack,
        split.x_train,
        split.y_train,
        split.x_val,
        split.y_val,
        learning_rate=0.001,
        rngs=rngs,
        **kw,
    )
    return histories, [[p.copy() for p in m.parameters()] for m in models]


def assert_bit_identical(ref, got):
    ref_h, ref_p = ref
    got_h, got_p = got
    for rh, gh in zip(ref_h, got_h):
        assert rh.train_loss == gh.train_loss
        assert rh.train_accuracy == gh.train_accuracy
        assert rh.val_accuracy == gh.val_accuracy
        assert rh.epochs_run == gh.epochs_run
        assert rh.stopped_early == gh.stopped_early
    for rp, gp in zip(ref_p, got_p):
        for a, b in zip(rp, gp):
            assert np.array_equal(a, b)


class TestRunStackDifferential:
    @pytest.mark.parametrize("ansatz", ["sel", "bel"])
    def test_hybrid_bit_identical(self, split, ansatz):
        def builder(rng):
            return build_hybrid_model(4, 3, 2, ansatz=ansatz, rng=rng)

        kw = dict(epochs=4, batch_size=8)
        assert_bit_identical(
            train_scalar(builder, split, 3, **kw),
            train_stacked(builder, split, 3, **kw),
        )

    def test_classical_bit_identical(self, split):
        def builder(rng):
            return build_classical_model(4, (8, 4), rng=rng)

        kw = dict(epochs=5, batch_size=8)
        assert_bit_identical(
            train_scalar(builder, split, 4, **kw),
            train_stacked(builder, split, 4, **kw),
        )

    def test_early_stop_freezes_runs_in_stack(self, split):
        """Runs that hit the threshold freeze (params, optimizer state,
        history) and leave the fused sweep while the rest keep training
        — exactly like their scalar loops breaking out at different
        epochs, bit for bit."""

        def builder(rng):
            return build_hybrid_model(4, 3, 1, ansatz="sel", rng=rng)

        kw = dict(epochs=25, batch_size=8, early_stop_threshold=0.5)
        ref = train_scalar(builder, split, 3, **kw)
        got = train_stacked(builder, split, 3, **kw)
        assert_bit_identical(ref, got)
        # the scenario is only meaningful if early stopping actually
        # fired for a strict subset of the runs (compaction mid-sweep)
        assert any(h.stopped_early for h in ref[0])
        assert len({h.epochs_run for h in ref[0]}) > 1

    def test_remainder_minibatch(self, split):
        """batch_size not dividing n exercises the short (even size-1)
        trailing minibatch in the fused stack."""

        def builder(rng):
            return build_hybrid_model(4, 3, 1, ansatz="sel", rng=rng)

        kw = dict(epochs=3, batch_size=7)
        assert_bit_identical(
            train_scalar(builder, split, 2, **kw),
            train_stacked(builder, split, 2, **kw),
        )

    def test_cancel_check_raises(self, split):
        def builder(rng):
            return build_classical_model(4, (4,), rng=rng)

        rngs = [np.random.default_rng((0, 1, r)) for r in range(2)]
        stack = stack_candidates([[builder(r) for r in rngs]])
        calls = []

        def cancel():
            calls.append(1)
            return len(calls) > 2

        with pytest.raises(TrainingCancelled):
            train_stack(
                stack,
                split.x_train,
                split.y_train,
                split.x_val,
                split.y_val,
                epochs=50,
                batch_size=16,
                rngs=rngs,
                cancel_check=cancel,
            )


class TestStackOneCandidate:
    def test_quantum_layer_stacks(self):
        rngs = [np.random.default_rng(i) for i in range(3)]
        models = [
            build_hybrid_model(4, 3, 2, ansatz="sel", rng=rng) for rng in rngs
        ]
        stack = stack_candidates([models])
        assert stack is not None
        kinds = [type(lay) for lay in stack.layers]
        assert StackedDense in kinds and StackedQuantumLayer in kinds

    def test_single_model_not_stacked(self):
        m = build_classical_model(4, (4,), rng=np.random.default_rng(0))
        assert stack_candidates([[m]]) is None

    def test_parameter_shift_falls_back(self):
        models = [
            build_hybrid_model(
                4, 3, 1, gradient_method="parameter_shift",
                rng=np.random.default_rng(i),
            )
            for i in range(2)
        ]
        assert stack_candidates([models]) is None

    def test_unknown_layer_falls_back(self):
        def build(i):
            rng = np.random.default_rng(i)
            return Sequential(
                [
                    Dense(4, 4, rng=rng),
                    Dropout(0.5, rng=rng),
                    Dense(4, 3, rng=rng),
                    Softmax(),
                ]
            )

        assert stack_candidates([[build(0), build(1)]]) is None

    def test_mismatched_structures_fall_back(self):
        a = build_classical_model(4, (4,), rng=np.random.default_rng(0))
        b = build_classical_model(4, (8,), rng=np.random.default_rng(1))
        c = build_classical_model(4, (4, 4), rng=np.random.default_rng(2))
        assert stack_candidates([[a, b]]) is None  # widths differ
        assert stack_candidates([[a, c]]) is None  # different depth

    def test_subclassed_quantum_layer_falls_back(self):
        class CustomLayer(QuantumLayer):
            pass

        def build(i):
            rng = np.random.default_rng(i)
            return Sequential(
                [
                    Dense(3, 3, rng=rng),
                    CustomLayer(3, 1, rng=rng),
                    Dense(3, 3, rng=rng),
                    Softmax(),
                ]
            )

        assert stack_candidates([[build(0), build(1)]]) is None


class TestStackedAdam:
    def test_unmasked_matches_lockstep_scalar_adams(self):
        rng = np.random.default_rng(0)
        runs = 3
        params = [rng.normal(size=(runs, 4, 2)), rng.normal(size=(runs, 2))]
        scalars = [
            [p[r].copy() for p in params] for r in range(runs)
        ]
        stacked_opt = StackedAdam(learning_rate=0.01)
        scalar_opts = [Adam(learning_rate=0.01) for _ in range(runs)]
        for step in range(5):
            grads = [
                rng.normal(size=params[0].shape),
                rng.normal(size=params[1].shape),
            ]
            stacked_opt.step(params, grads)
            for r in range(runs):
                scalar_opts[r].step(
                    scalars[r], [g[r].copy() for g in grads]
                )
        for r in range(runs):
            for p, s in zip(params, scalars[r]):
                assert np.array_equal(p[r], s)
