"""Tests for cross-candidate stacks (stack_candidates + GroupedStack).

The contract mirrors the run-stacked one, one level up: training C
candidates' run sets as a single fused sweep must be bit-identical —
histories *and* final parameters — to training each candidate's run set
in its own stack (or, for a single run, in the scalar loop), including
when frozen slices are compacted out mid-training.  The structure tests
pin the shared-head / per-candidate-middle / shared-tail layout and the
cases where no fused batch can feed the group.
"""

import numpy as np
import pytest

from repro.core.grid_search import rank_by_flops
from repro.core.search_space import classical_search_space
from repro.data import make_spiral, stratified_split
from repro.hybrid.builders import build_classical_model, build_hybrid_model
from repro.hybrid.quantum_layer import QuantumLayer, StackedQuantumLayer
from repro.nn.layers import Dense, Dropout, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.stacked import GroupedStack, stack_candidates
from repro.nn.training import train_model, train_stack


@pytest.fixture(scope="module")
def split():
    ds = make_spiral(4, n_points=90, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


@pytest.fixture(scope="module")
def wide_split():
    ds = make_spiral(10, n_points=90, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


HEADS = ((), (4,), (6, 4))


def hybrid(n_qubits, depth, head=(), ansatz="sel"):
    return lambda rng: build_hybrid_model(
        4, n_qubits, depth, hidden=head, ansatz=ansatz, rng=rng
    )


def classical(hidden, n_features=4):
    return lambda rng: build_classical_model(n_features, hidden, rng=rng)


def build_candidates(builders, runs):
    """One run set per builder; run ``r`` of candidate ``c`` draws from
    its own ``(0, c, r)`` stream, as in a grid search."""
    groups, rngs = [], []
    for c, builder in enumerate(builders):
        group_rngs = [np.random.default_rng((0, c, r)) for r in range(runs)]
        groups.append([builder(rng) for rng in group_rngs])
        rngs.append(group_rngs)
    return groups, rngs


def build_group(runs, heads=HEADS, n_layers=2):
    """One run set per head variant, every variant sharing one tape."""
    return build_candidates([hybrid(3, n_layers, h) for h in heads], runs)


def snapshot(groups):
    return [
        [[p.copy() for p in m.parameters()] for m in group]
        for group in groups
    ]


def train_groups(split, groups, rngs, **kw):
    stack = stack_candidates(groups)
    assert isinstance(stack, GroupedStack)
    histories = train_stack(
        stack,
        split.x_train,
        split.y_train,
        split.x_val,
        split.y_val,
        rngs=[rng for group in rngs for rng in group],
        **kw,
    )
    return histories, snapshot(groups)


def train_each(split, groups, rngs, **kw):
    """Each candidate on its own: a one-candidate group, or the scalar
    loop for a single run."""
    histories = []
    for group, group_rngs in zip(groups, rngs):
        if len(group) == 1:
            histories.append(
                train_model(
                    group[0],
                    split.x_train,
                    split.y_train,
                    split.x_val,
                    split.y_val,
                    optimizer=Adam(learning_rate=0.001),
                    rng=group_rngs[0],
                    **kw,
                )
            )
            continue
        stack = stack_candidates([group])
        assert stack is not None
        histories.extend(
            train_stack(
                stack,
                split.x_train,
                split.y_train,
                split.x_val,
                split.y_val,
                rngs=group_rngs,
                **kw,
            )
        )
    return histories, snapshot(groups)


def train_grouped(split, runs, **kw):
    return train_groups(split, *build_group(runs), **kw)


def train_per_candidate(split, runs, **kw):
    return train_each(split, *build_group(runs), **kw)


def assert_bit_identical(ref, got):
    ref_h, ref_p = ref
    got_h, got_p = got
    assert len(ref_h) == len(got_h)
    for rh, gh in zip(ref_h, got_h):
        assert rh.train_loss == gh.train_loss
        assert rh.train_accuracy == gh.train_accuracy
        assert rh.val_accuracy == gh.val_accuracy
        assert rh.epochs_run == gh.epochs_run
        assert rh.stopped_early == gh.stopped_early
    for rc, gc in zip(ref_p, got_p):
        for rm, gm in zip(rc, gc):
            for a, b in zip(rm, gm):
                assert np.array_equal(a, b)


def assert_groups_like_per_candidate(split, builders, runs, **kw):
    """Grouped training of ``builders`` equals per-candidate training."""
    assert_bit_identical(
        train_each(split, *build_candidates(builders, runs), **kw),
        train_groups(split, *build_candidates(builders, runs), **kw),
    )


def kinds(layers):
    """Layer type names, passthroughs by the scalar layer they wrap."""
    return [type(getattr(lay, "_layer", lay)).__name__ for lay in layers]


def layout(stack):
    return (
        kinds(stack.head),
        [m.middle and kinds(m.middle.layers) for m in stack.members],
        kinds(stack.tail),
    )


class TestGroupedDifferential:
    def test_heterogeneous_heads_bit_identical(self, split):
        kw = dict(epochs=3, batch_size=8)
        assert_bit_identical(
            train_per_candidate(split, 2, **kw),
            train_grouped(split, 2, **kw),
        )

    def test_single_run_per_candidate(self, split):
        """runs=1 candidates cannot run-stack alone but do group."""
        groups, rngs = build_group(1)
        stack = stack_candidates(groups)
        assert stack is not None
        assert stack.runs == len(HEADS)

    def test_early_stop_with_compaction_bit_identical(self, split):
        kw = dict(epochs=20, batch_size=8, early_stop_threshold=0.5)
        ref = train_per_candidate(split, 2, **kw)
        got = train_grouped(split, 2, **kw)
        assert_bit_identical(ref, got)
        # the scenario is only meaningful if some slice actually froze
        # before the rest (compaction fired mid-training)
        epochs = sorted(h.epochs_run for h in ref[0])
        assert epochs[0] < epochs[-1]
        assert any(h.stopped_early for h in ref[0])

    @pytest.mark.parametrize("data", ["split", "wide_split"])
    def test_first_ranked_classical_specs_bit_identical(self, request, data):
        """The classical search's eight cheapest candidates as one group
        (at both feature counts, C[4] keeps the head empty)."""
        data = request.getfixturevalue(data)
        n_features = data.x_train.shape[1]
        specs = rank_by_flops(classical_search_space(n_features))[:8]
        builders = [classical(s.hidden, n_features) for s in specs]
        head, middles, tail = layout(
            stack_candidates(build_candidates(builders, 2)[0])
        )
        assert head == [] and tail == ["Softmax"]
        assert all(middle is not None for middle in middles)
        assert_groups_like_per_candidate(
            data, builders, 2, epochs=4, batch_size=8, early_stop_threshold=0.5
        )

    def test_classical_shared_head_bit_identical(self, wide_split):
        """The six cheapest at 10 features all start with Dense(10->2) +
        ReLU: one shared first gemm stack."""
        specs = rank_by_flops(classical_search_space(10))[:6]
        builders = [classical(s.hidden, 10) for s in specs]
        head, _, tail = layout(
            stack_candidates(build_candidates(builders, 2)[0])
        )
        assert head == ["StackedDense", "ReLU"] and tail == ["Softmax"]
        assert_groups_like_per_candidate(
            wide_split, builders, 2, epochs=4, batch_size=8
        )

    @pytest.mark.parametrize(
        "cells",
        [
            ((3, 1), (3, 2), (3, 3), (3, 4)),
            ((3, 1), (3, 2), (4, 1), (5, 2)),
        ],
        ids=["mixed-depth", "mixed-qubits"],
    )
    def test_mixed_sel_group_bit_identical(self, split, cells):
        builders = [hybrid(q, depth) for q, depth in cells]
        assert_groups_like_per_candidate(
            split, builders, 2, epochs=3, batch_size=8
        )
        assert_groups_like_per_candidate(
            split,
            builders,
            2,
            epochs=12,
            batch_size=8,
            early_stop_threshold=0.5,
        )

    def test_bel_depth_group_bit_identical(self, split):
        """BEL(3,1)..BEL(3,4): one shared head whose quantum layer runs
        every member at its own depth."""
        builders = [hybrid(3, depth, ansatz="bel") for depth in (1, 2, 3, 4)]
        stack = stack_candidates(build_candidates(builders, 2)[0])
        assert layout(stack) == (
            ["StackedDense", "StackedQuantumLayer", "StackedDense", "Softmax"],
            [None] * 4,
            [],
        )
        assert stack.head[1].depths.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]
        assert_groups_like_per_candidate(
            split, builders, 2, epochs=3, batch_size=8
        )
        assert_groups_like_per_candidate(
            split,
            builders,
            2,
            epochs=12,
            batch_size=8,
            early_stop_threshold=0.5,
        )

    def test_compaction_dropping_deepest_member_bit_identical(
        self, split, monkeypatch
    ):
        """SEL(3,4)'s runs freeze first: the shallow member keeps
        training on the depth-4 engine, its layers still padded."""
        depths = []
        compact = GroupedStack.compact

        def spy(stack, keep):
            compact(stack, keep)
            # The per-candidate references are one-candidate groups
            # too; their uniform-depth layers carry no depths array.
            if stack.head[1].depths is not None:
                depths.append(stack.head[1].depths.tolist())

        monkeypatch.setattr(GroupedStack, "compact", spy)
        kw = dict(epochs=20, batch_size=8, early_stop_threshold=0.5)
        assert_groups_like_per_candidate(
            split, [hybrid(3, 1), hybrid(3, 4)], 2, **kw
        )
        assert [1, 1] in depths

    def test_empty_middle_bit_identical(self, split):
        """C[2] sits entirely in the head and tail it shares with
        C[2,2]: its rows skip the middle."""
        builders = [classical((2,)), classical((2, 2))]
        stack = stack_candidates(build_candidates(builders, 2)[0])
        assert layout(stack) == (
            ["StackedDense", "ReLU"],
            [None, ["StackedDense", "ReLU"]],
            ["StackedDense", "Softmax"],
        )
        for kw in (
            dict(epochs=4, batch_size=8),
            dict(epochs=20, batch_size=8, early_stop_threshold=0.5),
        ):
            assert_groups_like_per_candidate(split, builders, 2, **kw)

    def test_compaction_dropping_a_member_bit_identical(
        self, split, monkeypatch
    ):
        builders = [
            classical(h) for h in ((2,), (8,), (4, 4), (10,))
        ]
        members = []
        compact = GroupedStack.compact

        def spy(stack, keep):
            compact(stack, keep)
            members.append(len(stack.members))

        monkeypatch.setattr(GroupedStack, "compact", spy)
        kw = dict(epochs=20, batch_size=8, early_stop_threshold=0.5)
        assert_groups_like_per_candidate(split, builders, 2, **kw)
        # a whole member left while others kept training
        assert 3 in members


class TestGroupedStackStructure:
    def test_segmented_build(self):
        """Head variants of one tape: nothing is shared at the input end,
        the head-less variant lies entirely in the shared tail (input
        layer, quantum layer, output layer), and each head is its
        candidate's middle."""
        groups, _ = build_group(2)
        stack = stack_candidates(groups)
        assert isinstance(stack, GroupedStack)
        assert stack.runs == 2 * len(HEADS)
        assert layout(stack) == (
            [],
            [
                None,
                ["StackedDense", "ReLU"],
                ["StackedDense", "ReLU", "StackedDense", "ReLU"],
            ],
            ["StackedDense", "StackedQuantumLayer", "StackedDense", "Softmax"],
        )
        assert isinstance(stack.tail[1], StackedQuantumLayer)
        assert all(layer.runs == stack.runs for layer in stack.tail)
        assert [m.middle.runs for m in stack.members[1:]] == [2, 2]

    def test_fully_aligned_build_has_no_segments(self):
        models = [
            build_hybrid_model(4, 3, 1, rng=np.random.default_rng(i))
            for i in range(4)
        ]
        stack = stack_candidates([models[:2], models[2:]])
        assert isinstance(stack, GroupedStack)
        assert all(m.middle is None for m in stack.members)
        assert len(stack.head) == len(models[0].layers)
        assert stack.tail == []

    def test_row_maps_cover_group_layout(self):
        groups, _ = build_group(2)
        stack = stack_candidates(groups)
        maps = stack.row_maps()
        assert len(maps) == len(stack.parameters())
        # middle params map to their candidate's slice block; head and
        # tail params are identity (None)
        offsets = {1: [2, 3], 2: [4, 5]}
        seen_none = 0
        for rows, param in zip(maps, stack.parameters()):
            if rows is None:
                seen_none += 1
                assert param.shape[0] == stack.runs
            else:
                assert list(rows) in offsets.values()
                assert param.shape[0] == len(rows)
        assert seen_none == sum(
            len(lay.params) for lay in stack.head + stack.tail
        )

    def test_compact_drops_candidate_entirely(self, split):
        groups, _ = build_group(2)
        stack = stack_candidates(groups)
        # drop both slices of the middle candidate and one of the last
        stack.compact(np.array([0, 1, 4]))
        assert stack.runs == 3
        assert len(stack.members) == 2
        assert [m.size for m in stack.members] == [2, 1]
        assert stack.members[1].middle.runs == 1
        assert stack.tail[1].weights.shape[0] == 3
        assert [p.shape[0] for p in stack.parameters()] == [1] * 4 + [3] * 5
        # the survivors predict exactly what their source models do
        x = split.x_val
        fresh, _ = build_group(2)
        ref = np.concatenate(
            [stack_candidates([fresh[0]]).forward(np.tile(x, (2, 1)))]
            + [fresh[2][0].predict(x)]
        )
        assert np.array_equal(stack.forward(np.tile(x, (3, 1))), ref)
        assert np.array_equal(stack.predict_shared(x), ref)

    def test_mismatched_tapes_group(self, split):
        """SEL(3,1) beside SEL(3,2): the quantum layers differ only in
        depth, so every position, the quantum layer included, is one
        shared head and nothing is left for per-candidate middles."""
        builders = [hybrid(3, 1), hybrid(3, 2)]
        groups, _ = build_candidates(builders, 2)
        stack = stack_candidates(groups)
        assert layout(stack) == (
            ["StackedDense", "StackedQuantumLayer", "StackedDense", "Softmax"],
            [None, None],
            [],
        )
        assert stack.head[1].depths.tolist() == [1, 1, 2, 2]
        assert_groups_like_per_candidate(
            split, builders, 2, epochs=3, batch_size=8
        )

    def test_sync_restores_each_members_weight_shape(self, split):
        builders = [hybrid(3, depth) for depth in (1, 2, 3, 4)]
        groups, rngs = build_candidates(builders, 2)
        stack = stack_candidates(groups)
        layer = stack.head[1]
        assert layer.weights.shape == (8, 4 * 3 * 3)
        train_stack(
            stack,
            split.x_train,
            split.y_train,
            split.x_val,
            split.y_val,
            epochs=2,
            batch_size=8,
            rngs=[rng for group in rngs for rng in group],
        )
        for s, model in enumerate(m for group in groups for m in group):
            quantum = model.layers[1]
            own = quantum.n_layers * 3 * 3
            assert quantum.weights.shape == (quantum.n_layers, 3, 3)
            assert np.array_equal(
                quantum.weights.reshape(-1), layer.weights[s, :own]
            )
            assert not layer.weights[s, own:].any()

    @pytest.mark.parametrize("cells", [((3, 1), (4, 1))], ids=["qubits"])
    def test_quantum_layers_stay_per_member(self, split, cells):
        """Mixed register widths cannot share an engine: the quantum
        layers stay in per-member middles."""
        builders = [hybrid(q, depth) for q, depth in cells]
        stack = stack_candidates(build_candidates(builders, 2)[0])
        head, middles, tail = layout(stack)
        assert "StackedQuantumLayer" not in head + tail
        assert all("StackedQuantumLayer" in middle for middle in middles)
        assert_groups_like_per_candidate(
            split, builders, 2, epochs=2, batch_size=8
        )

    def test_n6_groups_decline_stacking(self, split):
        """Six-qubit tapes do not compile, so their quantum layers stack
        neither across candidates nor across runs: the group declines
        and each candidate trains run by run on the reference executor,
        exactly as the scalar per-run loop does."""
        from repro.core.grid_search import TrainingSettings
        from repro.core.search_space import HybridSpec
        from repro.runtime.jobs import (
            TrainingJob,
            execute_candidates,
            execute_job,
            execute_runs,
        )

        groups, _ = build_candidates([hybrid(6, 1), hybrid(6, 2)], 2)
        assert stack_candidates(groups) is None
        assert all(stack_candidates([group]) is None for group in groups)

        specs = [
            HybridSpec(n_features=4, n_qubits=6, n_layers=depth)
            for depth in (1, 2)
        ]
        settings = TrainingSettings(
            epochs=2, batch_size=8, runs=2, return_histories=True
        )
        group = [(spec, c, [0, 1]) for c, spec in enumerate(specs)]
        assert execute_candidates(group, 0, split, settings) is None
        for c, spec in enumerate(specs):
            got = execute_runs(spec, 0, c, [0, 1], split, settings)
            for run, result in enumerate(got):
                ref = execute_job(
                    TrainingJob(spec, 0, c, run), split, settings
                )
                assert result.history.train_loss == ref.history.train_loss
                assert result.val_accuracy == ref.val_accuracy
                assert result.epochs_run == ref.epochs_run

    def test_classical_models_group_across_shapes(self, split):
        builders = [classical((4,)), classical((8,))]
        groups, _ = build_candidates(builders, 2)
        assert layout(stack_candidates(groups)) == (
            [],
            [["StackedDense", "ReLU", "StackedDense"]] * 2,
            ["Softmax"],
        )
        assert_groups_like_per_candidate(
            split, builders, 2, epochs=3, batch_size=8
        )

    def test_two_quantum_layers_group(self, split):
        """Single-run candidates with two quantum layers each, differing
        in the second's depth: both join the shared head."""

        def two_quantum(depth):
            def build(rng):
                return Sequential(
                    [
                        Dense(4, 3, rng=rng),
                        QuantumLayer(3, 1, rng=rng),
                        QuantumLayer(3, depth, rng=rng),
                        Dense(3, 3, rng=rng),
                        Softmax(),
                    ]
                )

            return build

        builders = [two_quantum(1), two_quantum(2)]
        groups, _ = build_candidates(builders, 1)
        stack = stack_candidates(groups)
        assert layout(stack) == (
            [
                "StackedDense",
                "StackedQuantumLayer",
                "StackedQuantumLayer",
                "StackedDense",
                "Softmax",
            ],
            [None, None],
            [],
        )
        assert stack.head[1].depths is None
        assert stack.head[2].depths.tolist() == [1, 2]
        assert_groups_like_per_candidate(
            split, builders, 1, epochs=2, batch_size=8
        )

    def test_empty_or_single_slice_groups_rejected(self):
        m = build_hybrid_model(4, 3, 1, rng=np.random.default_rng(0))
        assert stack_candidates([[m]]) is None
        assert stack_candidates([[m], []]) is None


def _pair(first, second):
    rng = np.random.default_rng(0)
    return stack_candidates(
        [[Sequential(first(rng))], [Sequential(second(rng))]]
    )


class TestGroupDeclines:
    """Groups no single fused batch can feed fall back per candidate."""

    def test_input_widths_differ(self):
        assert (
            _pair(
                lambda rng: [Dense(4, 2, rng=rng), ReLU(), Softmax()],
                lambda rng: [Dense(5, 2, rng=rng), ReLU(), Softmax()],
            )
            is None
        )

    def test_nothing_shared_at_either_end(self):
        assert (
            _pair(
                lambda rng: [Dense(4, 3, rng=rng), Tanh()],
                lambda rng: [
                    Dense(4, 2, rng=rng),
                    ReLU(),
                    Dense(2, 3, rng=rng),
                    Sigmoid(),
                ],
            )
            is None
        )

    def test_layer_without_stacker(self):
        assert (
            _pair(
                lambda rng: [
                    Dense(4, 4, rng=rng),
                    Dropout(0.5, rng=rng),
                    Dense(4, 3, rng=rng),
                    Softmax(),
                ],
                lambda rng: [
                    Dense(4, 4, rng=rng),
                    Dropout(0.5, rng=rng),
                    Dense(4, 4, rng=rng),
                    ReLU(),
                    Dense(4, 3, rng=rng),
                    Softmax(),
                ],
            )
            is None
        )

    def test_middles_end_at_different_widths(self):
        assert (
            _pair(
                lambda rng: [Dense(4, 3, rng=rng), ReLU()],
                lambda rng: [Dense(4, 2, rng=rng), ReLU()],
            )
            is None
        )
