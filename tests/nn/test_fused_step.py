"""Tests for the fused stacked training step.

One training step of a stack is a handful of whole-stack calls: batched
dense gemms, one fused loss over every slice, and one Adam update over
the parameter arena.  Each must stay bit-identical to the per-slice,
per-parameter arithmetic it replaces.
"""

import numpy as np
import pytest

from repro.data import make_spiral, stratified_split
from repro.hybrid.builders import build_classical_model, build_hybrid_model
from repro.nn.losses import CrossEntropy, MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.optimizers import Adam, StackedAdam
from repro.nn.stacked import stack_candidates, stack_models
from repro.nn.training import VectorizedTrainer, train_model


@pytest.fixture(scope="module")
def split():
    ds = make_spiral(4, n_points=90, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def classical(rng):
    return build_classical_model(4, (8, 4), rng=rng)


class TestClassicalRemainderMinibatch:
    @pytest.mark.parametrize("n_train,batch_size", [(65, 8), (72, 7), (9, 4)])
    def test_stacked_equals_scalar(self, split, n_train, batch_size):
        """A short trailing minibatch — one row per slice when
        ``n_train % batch_size == 1`` — through the batched gemms and the
        fused loss."""
        x, y = split.x_train[:n_train], split.y_train[:n_train]
        kw = dict(epochs=3, batch_size=batch_size)
        runs = 3
        scalar_h, scalar_p = [], []
        for r in range(runs):
            rng = np.random.default_rng((2, r))
            model = classical(rng)
            scalar_h.append(
                train_model(
                    model, x, y, split.x_val, split.y_val,
                    optimizer=Adam(learning_rate=0.001), rng=rng, **kw,
                )
            )
            scalar_p.append([p.copy() for p in model.parameters()])
        rngs = [np.random.default_rng((2, r)) for r in range(runs)]
        models = [classical(rng) for rng in rngs]
        stacked_h = VectorizedTrainer(models).train(
            x, y, split.x_val, split.y_val, rngs=rngs, **kw
        )
        for ref, got in zip(scalar_h, stacked_h):
            assert ref.train_loss == got.train_loss
            assert ref.train_accuracy == got.train_accuracy
            assert ref.val_accuracy == got.val_accuracy
        for ref, model in zip(scalar_p, models):
            for a, b in zip(ref, model.parameters()):
                assert np.array_equal(a, b)


def build_group(runs=2, heads=((), (4,), (6, 4))):
    groups = []
    for c, head in enumerate(heads):
        groups.append(
            [
                build_hybrid_model(
                    4, 3, 1, hidden=head, rng=np.random.default_rng((5, c, r))
                )
                for r in range(runs)
            ]
        )
    return stack_candidates(groups)


def build_runs(runs=4):
    return stack_models(
        [classical(np.random.default_rng((3, r))) for r in range(runs)]
    )


def assert_arena_backed(stack):
    arena = stack.arena
    params, grads = stack.parameters(), stack.gradients()
    assert sum(p.size for p in params) == arena.values.size
    assert arena.grads.size == arena.values.size
    for p, g in zip(params, grads):
        assert np.shares_memory(p, arena.values)
        assert np.shares_memory(g, arena.grads)
    # The arena is laid out in parameters() order.
    flat = np.concatenate([p.reshape(-1) for p in params])
    assert np.array_equal(flat, arena.values)
    for layer in stack.layers:
        if hasattr(layer, "weight"):
            assert layer.params[0] is layer.weight
            assert layer.params[1] is layer.bias
        if hasattr(layer, "weights"):
            assert layer.params[0] is layer.weights


class TestParameterArena:
    def test_run_stack_bound_through_compactions(self):
        stack = build_runs()
        assert_arena_backed(stack)
        stack.compact(np.array([0, 2, 3]))
        assert_arena_backed(stack)
        stack.compact(np.array([1]))
        assert_arena_backed(stack)
        one_model = classical(np.random.default_rng(0)).parameters()
        assert stack.arena.values.size == sum(p.size for p in one_model)

    def test_grouped_stack_with_heterogeneous_middles(self):
        stack = build_group()
        # the head-less variant lies entirely in the shared tail
        assert stack.members[0].middle is None
        assert all(m.middle is not None for m in stack.members[1:])
        for keep in (None, np.array([0, 1, 4, 5]), np.array([0, 3])):
            if keep is not None:
                stack.compact(keep)
            assert_arena_backed(stack)
            offset = sum(p.size for lay in stack.head for p in lay.params)
            for member in stack.members:
                middle = member.middle
                if middle is None:
                    continue
                # each middle owns the next section of the group arena
                size = sum(p.size for p in middle.parameters())
                assert np.shares_memory(
                    middle.arena.values, stack.arena.values
                )
                assert np.array_equal(
                    middle.arena.values,
                    stack.arena.values[offset : offset + size],
                )
                offset += size
                for p, g in zip(middle.parameters(), middle.gradients()):
                    assert np.shares_memory(p, middle.arena.values)
                    assert np.shares_memory(g, middle.arena.grads)

    def test_zero_grads_is_one_fill(self):
        stack = build_group()
        stack.arena.grads[...] = 1.0
        stack.zero_grads()
        assert all(not g.any() for g in stack.gradients())

    def test_compaction_keeps_surviving_rows(self):
        stack = build_group()
        before = [p.copy() for p in stack.parameters()]
        maps = stack.row_maps()
        keep = np.array([0, 1, 4])
        active = np.zeros(stack.runs, dtype=bool)
        active[keep] = True
        kept = [
            p[keep] if rows is None else p[np.flatnonzero(active[rows])]
            for p, rows in zip(before, maps)
        ]
        stack.compact(keep)
        after = stack.parameters()
        assert len(after) == len([k for k in kept if k.shape[0]])
        for a, b in zip([k for k in kept if k.shape[0]], after):
            assert np.array_equal(a, b)


class TestArenaAdam:
    """The arena update against the per-parameter path, bitwise, over
    unmasked, masked and compacted steps."""

    @pytest.mark.parametrize("build", [build_runs, build_group])
    def test_arena_step_equals_per_parameter_step(self, build):
        stack = build()
        rng = np.random.default_rng(11)
        arena_opt = StackedAdam(learning_rate=0.01)
        loose_opt = StackedAdam(learning_rate=0.01)
        loose = [p.copy() for p in stack.parameters()]
        maps = stack.row_maps()
        active = np.ones(stack.runs, dtype=bool)

        def step():
            grads = [rng.normal(size=p.shape) for p in loose]
            for g, view in zip(grads, stack.gradients()):
                view[...] = g
            arena_opt.step(
                stack.parameters(), stack.gradients(), active,
                row_maps=maps, arena=stack.arena,
            )
            loose_opt.step(loose, grads, active, row_maps=maps)
            for a, b in zip(loose, stack.parameters()):
                assert np.array_equal(a, b)

        for _ in range(3):
            step()
        # In the group, slices 2 and 3 are the second candidate's runs:
        # its middle stack (and its moments) leave on compaction.
        active[[2, 3]] = False
        for _ in range(3):
            step()
        keep = np.flatnonzero(active)
        row_keeps = [
            keep if rows is None else np.flatnonzero(active[rows])
            for rows in maps
        ]
        arena_opt.compact(row_keeps)
        loose_opt.compact(row_keeps)
        loose = [p[k] for p, k in zip(loose, row_keeps) if k.size]
        stack.compact(keep)
        maps = stack.row_maps()
        active = np.ones(stack.runs, dtype=bool)
        for a, b in zip(loose, stack.parameters()):
            assert np.array_equal(a, b)
        for _ in range(3):
            step()
        assert arena_opt._m.size == stack.arena.values.size


@pytest.mark.parametrize(
    "loss", [CrossEntropy(), SoftmaxCrossEntropy(), MeanSquaredError()]
)
@pytest.mark.parametrize("slices,per", [(1, 8), (3, 8), (4, 1), (2, 5)])
def test_stacked_loss_equals_per_slice(loss, slices, per):
    rng = np.random.default_rng((slices, per))
    logits = rng.normal(size=(slices * per, 3))
    output = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    if isinstance(loss, SoftmaxCrossEntropy):
        output = logits
    output[0, 0] = 0.0  # exercises CrossEntropy's clip
    targets = np.eye(3)[rng.integers(0, 3, size=slices * per)]
    values, grad = loss.stacked(output, targets, slices)
    assert values.shape == (slices,)
    for s in range(slices):
        sl = slice(s * per, (s + 1) * per)
        assert values[s] == loss.value(output[sl], targets[sl])
        assert np.array_equal(grad[sl], loss.gradient(output[sl], targets[sl]))
