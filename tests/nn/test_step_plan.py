"""Tests for the compiled training step (:class:`repro.nn.stacked.StepPlan`).

One step through a group's plan must equal the layer-by-layer
``GroupedStack.forward(training=True)`` + ``backward`` bit for bit —
the model output, the loss values and every arena gradient, down to
the sign of zero — for every layout the plan compiles: dense steps
with fused ReLUs, opaque steps (Softmax, the quantum layer), members
without a middle, groups without a head or a tail, and remainder
minibatches.  The plan cache builds
one plan per batch shape and starts over after a compaction, and
``train_stack`` steps only through the plan.
"""

import numpy as np
import pytest

from repro.hybrid.builders import build_classical_model, build_hybrid_model
from repro.hybrid.quantum_layer import StackedQuantumLayer
from repro.nn import stacked
from repro.nn.layers import Dense, ReLU, Sigmoid, Softmax
from repro.nn.losses import CrossEntropy
from repro.nn.model import Sequential
from repro.nn.stacked import stack_candidates
from repro.nn.training import train_stack


def classical(hidden, n_features):
    return lambda rng: build_classical_model(n_features, hidden, rng=rng)


def hybrid(depth, head=()):
    return lambda rng: build_hybrid_model(
        4, 3, depth, hidden=head, ansatz="sel", rng=rng
    )


def build(builders, runs=2):
    return stack_candidates(
        [
            [builder(np.random.default_rng((0, c, r))) for r in range(runs)]
            for c, builder in enumerate(builders)
        ]
    )


def kinds(layers):
    return [type(getattr(lay, "_layer", lay)).__name__ for lay in layers]


def layout(stack):
    return (
        kinds(stack.head),
        [m.middle and kinds(m.middle.layers) for m in stack.members],
        kinds(stack.tail),
    )


#: The empty-head group the classical search trains at 110 features.
CLASSICAL_SEQ = [
    classical(h, 110) for h in ((2, 10, 8), (2, 8, 10), (2, 10, 10), (4,))
]
#: A member without a middle beside one with a middle; Dense in the tail.
MIDDLE_LESS = [classical((2,), 4), classical((2, 2), 4)]
#: A depth-padded quantum layer: an opaque step in a shared head.
SEL_DEPTHS = [hybrid(depth) for depth in (1, 2, 3, 4)]
#: No head, and a middle-less member whose block is the minibatch.
HEAD_VARIANTS = [hybrid(2, head) for head in ((), (4,), (6, 4))]


def mlp(last):
    return lambda rng: Sequential(
        [Dense(4, 3, rng=rng), ReLU(), Dense(3, 3, rng=rng), last()]
    )


#: No tail: the middles' re-fused block is the output.
NO_TAIL = [mlp(Softmax), mlp(Sigmoid)]

D, Q = "StackedDense", "StackedQuantumLayer"
LAYOUTS = {
    "classical-seq": (
        CLASSICAL_SEQ,
        ([], [[D, "ReLU"] * 3 + [D]] * 3 + [[D, "ReLU", D]], ["Softmax"]),
    ),
    "middle-less": (
        MIDDLE_LESS,
        ([D, "ReLU"], [None, [D, "ReLU"]], [D, "Softmax"]),
    ),
    "sel-depths": (SEL_DEPTHS, ([D, Q, D, "Softmax"], [None] * 4, [])),
    "no-tail": (NO_TAIL, ([D, "ReLU", D], [["Softmax"], ["Sigmoid"]], [])),
    "head-variants": (
        HEAD_VARIANTS,
        ([], [None, [D, "ReLU"], [D, "ReLU"] * 2], [D, Q, D, "Softmax"]),
    ),
}


def minibatch(stack, per, seed=0):
    rng = np.random.default_rng(seed)
    rows = stack.runs * per
    width = stack.members[0].models[0].layers[0].in_features
    return rng.normal(size=(rows, width)), np.eye(3)[rng.integers(0, 3, rows)]


def layer_by_layer(stack, xb, yb):
    stack.zero_grads()
    out = np.array(stack.forward(xb, training=True))
    values, grad = CrossEntropy().stacked(out, yb, stack.runs)
    stack.backward(grad)
    return out, values, stack.arena.grads.copy()


def planned(stack, xb, yb):
    plan = stack.step_plan(xb.shape[0] // stack.runs)
    stack.zero_grads()
    plan.inputs[...] = xb
    out = plan.forward().copy()
    values, grad = CrossEntropy().stacked(out, yb, stack.runs)
    plan.backward(grad)
    return out, values, stack.arena.grads.copy()


def assert_bits(ref, got):
    for a, b in zip(ref, got):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestPlanEqualsLayerByLayer:
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    @pytest.mark.parametrize("per", [8, 1, 3])
    def test_one_step(self, name, per):
        """``per`` 1 and 3 are remainder minibatches of a batch of 8."""
        builders, expected = LAYOUTS[name]
        stack = build(builders)
        assert layout(stack) == expected
        xb, yb = minibatch(stack, per)
        assert_bits(layer_by_layer(stack, xb, yb), planned(stack, xb, yb))
        # A second step through the same plan reuses its buffers.
        xb, yb = minibatch(stack, per, seed=1)
        assert_bits(layer_by_layer(stack, xb, yb), planned(stack, xb, yb))

    @pytest.mark.parametrize("name", ["classical-seq", "middle-less"])
    def test_relu_zeroes_nan_like_the_layer(self, name):
        """A NaN input makes its row's first pre-activations NaN; the
        layer's ReLU maps them to +0.0, and the plan's must too."""
        stack = build(LAYOUTS[name][0])
        xb, yb = minibatch(stack, 8)
        xb[0, 0] = np.nan
        ref, got = layer_by_layer(stack, xb, yb), planned(stack, xb, yb)
        assert np.isfinite(ref[0]).all()
        assert_bits(ref, got)

    def test_quantum_layer_is_an_opaque_step(self):
        stack = build(SEL_DEPTHS)
        assert isinstance(stack.head[1], StackedQuantumLayer)
        assert stack.head[1].depths is not None

    def test_after_compaction(self):
        stack = build(CLASSICAL_SEQ)
        planned(stack, *minibatch(stack, 8))
        stack.compact(np.array([0, 3, 6, 7]))
        xb, yb = minibatch(stack, 8, seed=2)
        assert_bits(layer_by_layer(stack, xb, yb), planned(stack, xb, yb))


@pytest.fixture
def builds(monkeypatch):
    """Every plan build's rows per slice, in order."""
    built = []

    class Spy(stacked.StepPlan):
        def __init__(self, stack, per):
            built.append(per)
            super().__init__(stack, per)

    monkeypatch.setattr(stacked, "StepPlan", Spy)
    return built


class TestPlanCache:
    def test_ragged_epochs_build_two_plans(self, builds):
        stack = build(MIDDLE_LESS)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(65, 4))
        y = np.eye(3)[rng.integers(0, 3, 65)]
        train_stack(stack, x, y, x, y, epochs=3, batch_size=8)
        assert builds == [8, 1]

    def test_compaction_rebuilds_once(self, builds):
        stack = build(MIDDLE_LESS)
        first = stack.step_plan(8)
        assert stack.step_plan(8) is first
        stack.compact(np.array([0, 1, 3]))
        second = stack.step_plan(8)
        assert stack.step_plan(8) is second
        assert second is not first
        assert builds == [8, 8]
        assert second.inputs.shape == (3 * 8, 4)


class TestTrainingStepsOnlyThroughThePlan:
    """``GroupedStack.forward``/``backward`` are the reference the plan
    is compared against above; training never calls them, and only
    ``predict_shared`` evaluates."""

    @pytest.mark.parametrize("name", ["classical-seq", "sel-depths"])
    def test_train_stack_never_walks_the_layers(self, name, monkeypatch):
        stack = build(LAYOUTS[name][0])
        calls = []

        def spy(method):
            original = getattr(stacked.GroupedStack, method)

            def record(self, *args, **kwargs):
                calls.append(method)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(stacked.GroupedStack, method, record)

        for method in ("forward", "backward", "predict_shared"):
            spy(method)
        x, y = minibatch(stack, 5, seed=4)
        x, y = x[:21], y[:21]
        train_stack(stack, x, y, x[:9], y[:9], epochs=2, batch_size=8)
        assert calls == ["predict_shared"] * 4
