"""Differential tests for the engine's run-stacked execution mode.

The contract: ``execute(inputs, weights_2d, runs=R)`` over a run-major
fused batch is **bit-identical** — not merely 1e-12-close — to R
independent executions with each run's weight row.  Bit-identity is what
lets run-stacked grid searches reproduce per-run training
trajectories exactly (training is chaotic; a ulp would amplify).
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.hybrid.quantum_layer import StackedQuantumLayer
from repro.quantum.adjoint import adjoint_gradients
from repro.quantum.circuit import Operation, run
from repro.quantum.engine import CompiledTape
from repro.quantum.templates import (
    angle_embedding,
    basic_entangler_layers,
    random_bel_weights,
    random_sel_weights,
    strongly_entangling_layers,
)


def make_tape(ansatz: str, n_qubits: int, n_layers: int, rng):
    x0 = np.zeros((1, n_qubits))
    if ansatz == "sel":
        w0 = random_sel_weights(n_layers, n_qubits, rng)
        ops = angle_embedding(x0, n_qubits) + strongly_entangling_layers(
            w0, n_qubits
        )
    else:
        w0 = random_bel_weights(n_layers, n_qubits, rng)
        ops = angle_embedding(x0, n_qubits) + basic_entangler_layers(
            w0, n_qubits
        )
    return ops, w0.size


CASES = [
    ("sel", 3, 1, 2, 1),
    ("sel", 4, 3, 5, 8),
    ("sel", 5, 2, 4, 6),
    ("sel", 4, 2, 5, 1),
    ("bel", 3, 1, 2, 1),
    ("bel", 4, 3, 5, 8),
    ("bel", 5, 2, 4, 6),
    ("bel", 4, 10, 3, 8),
    ("sel", 1, 4, 2, 3),
    ("bel", 2, 1, 3, 2),
    ("sel", 3, 10, 2, 8),
    ("bel", 5, 10, 2, 8),
    ("sel", 5, 10, 3, 1),
]

#: (ansatz, n_qubits, n_layers, rotation, n_features, custom SEL ranges,
#: weights shared by every run): encoding axes, fewer encoded features
#: than qubits, non-default SEL ranges and 1-D weights broadcast over
#: runs, each also measured on a subset of wires.
VARIANT_CASES = [
    ("sel", 1, 4, "X", 1, False, False),
    ("bel", 2, 10, "Z", 1, False, False),
    ("sel", 3, 10, "Y", 2, True, False),
    ("bel", 4, 4, "X", 3, False, True),
    ("sel", 5, 4, "Z", 4, True, False),
    ("sel", 5, 10, "Y", 5, False, True),
    ("bel", 5, 1, "Y", 5, False, False),
    ("sel", 3, 1, "Z", 3, False, True),
]


def variant_tape(case, x, w):
    ansatz, n_qubits, n_layers, rotation, _, custom, _ = case
    ops = angle_embedding(x, n_qubits, rotation=rotation)
    if ansatz == "bel":
        return ops + basic_entangler_layers(
            w.reshape(n_layers, n_qubits), n_qubits, rotation=rotation
        )
    ranges = (
        tuple((2 * l) % (n_qubits - 1) + 1 for l in range(n_layers))
        if custom
        else None
    )
    return ops + strongly_entangling_layers(
        w.reshape(n_layers, n_qubits, 3), n_qubits, ranges=ranges
    )


class TestStackedForward:
    @pytest.mark.parametrize("ansatz,n_q,n_l,runs,batch", CASES)
    def test_bitwise_equal_to_per_run(self, ansatz, n_q, n_l, runs, batch):
        rng = np.random.default_rng((hash(ansatz) & 0xFFFF, n_q, n_l))
        ops, n_w = make_tape(ansatz, n_q, n_l, rng)
        stacked = CompiledTape(ops, n_q)
        scalar = CompiledTape(ops, n_q)
        weights = rng.normal(size=(runs, n_w))
        inputs = rng.normal(size=(runs * batch, n_q))

        state = stacked.execute(inputs=inputs, weights=weights, runs=runs)
        state = state.copy()
        ev = stacked.expvals(state, runs=runs)
        for r in range(runs):
            sl = slice(r * batch, (r + 1) * batch)
            ref = scalar.execute(inputs=inputs[sl], weights=weights[r])
            assert np.array_equal(ref, state[sl])
            assert np.array_equal(scalar.expvals(ref), ev[sl])

    def test_shared_1d_weights_broadcast_across_runs(self):
        """1-D weights with runs= mean 'same parameters every run'."""
        rng = np.random.default_rng(5)
        ops, n_w = make_tape("sel", 3, 2, rng)
        engine = CompiledTape(ops, 3)
        w = rng.normal(size=n_w)
        x = rng.normal(size=(6, 3))
        fused = engine.execute(inputs=x, weights=w, runs=2).copy()
        ref = engine.execute(inputs=x, weights=w)
        assert np.array_equal(fused, ref)


class TestStackedAdjoint:
    @pytest.mark.parametrize("ansatz,n_q,n_l,runs,batch", CASES)
    def test_gradients_bitwise_equal(self, ansatz, n_q, n_l, runs, batch):
        rng = np.random.default_rng((n_q, n_l, runs, batch))
        ops, n_w = make_tape(ansatz, n_q, n_l, rng)
        stacked = CompiledTape(ops, n_q)
        scalar = CompiledTape(ops, n_q)
        weights = rng.normal(size=(runs, n_w))
        inputs = rng.normal(size=(runs * batch, n_q))
        grad = rng.normal(size=(runs * batch, n_q))

        stacked.execute(inputs=inputs, weights=weights, runs=runs, record=True)
        ig, wg = stacked.adjoint_gradients(grad, n_inputs=n_q, n_weights=n_w)
        assert ig.shape == (runs * batch, n_q)
        assert wg.shape == (runs, n_w)
        for r in range(runs):
            sl = slice(r * batch, (r + 1) * batch)
            scalar.execute(
                inputs=inputs[sl], weights=weights[r], record=True
            )
            rig, rwg = scalar.adjoint_gradients(
                grad[sl], n_inputs=n_q, n_weights=n_w
            )
            assert np.array_equal(rig, ig[sl])
            assert np.array_equal(rwg, wg[r])

    @pytest.mark.parametrize("case", VARIANT_CASES, ids=str)
    def test_variants_equal_per_run_and_reference(self, case):
        _, n_q, n_l, _, n_f, _, shared = case
        rng = np.random.default_rng(VARIANT_CASES.index(case))
        runs, batch = 3, 4
        n_w = n_q * n_l * (3 if case[0] == "sel" else 1)
        ops = variant_tape(case, np.zeros((1, n_f)), np.zeros(n_w))
        stacked = CompiledTape(ops, n_q)
        scalar = CompiledTape(ops, n_q)
        weights = rng.normal(size=n_w if shared else (runs, n_w))
        inputs = rng.normal(size=(runs * batch, n_f))
        wires = [q for q in range(n_q) if q != n_q // 2] or [0]
        grad = rng.normal(size=(runs * batch, len(wires)))

        state = stacked.execute(
            inputs=inputs, weights=weights, runs=runs, record=True
        ).copy()
        ev = stacked.expvals(state, wires=wires, runs=runs)
        ig, wg = stacked.adjoint_gradients(
            grad, n_inputs=n_f, n_weights=n_w, measure_wires=wires
        )
        assert wg.shape == (runs, n_w)
        for r in range(runs):
            sl = slice(r * batch, (r + 1) * batch)
            w_r = weights if shared else weights[r]
            ref = scalar.execute(inputs=inputs[sl], weights=w_r, record=True)
            assert np.array_equal(ref, state[sl])
            assert np.array_equal(scalar.expvals(ref, wires=wires), ev[sl])
            rig, rwg = scalar.adjoint_gradients(
                grad[sl], n_inputs=n_f, n_weights=n_w, measure_wires=wires
            )
            assert np.array_equal(rig, ig[sl])
            assert np.array_equal(rwg, wg[r])

            bound = variant_tape(case, inputs[sl], w_r)
            final = run(bound, n_q, batch)
            np.testing.assert_allclose(
                state[sl].reshape(final.shape), final, atol=1e-12, rtol=0
            )
            ref_ig, ref_wg = adjoint_gradients(
                bound, final, grad[sl], n_f, n_w, measure_wires=wires
            )
            np.testing.assert_allclose(rig, ref_ig, atol=1e-12, rtol=0)
            np.testing.assert_allclose(rwg, ref_wg, atol=1e-12, rtol=0)

    def test_record_released_after_backward(self):
        rng = np.random.default_rng(9)
        ops, n_w = make_tape("bel", 3, 2, rng)
        engine = CompiledTape(ops, 3)
        engine.execute(
            inputs=rng.normal(size=(6, 3)),
            weights=rng.normal(size=(2, n_w)),
            runs=2,
            record=True,
        )
        assert engine.has_record
        engine.adjoint_gradients(
            np.ones((6, 3)), n_inputs=3, n_weights=n_w
        )
        assert not engine.has_record


class TestStackedValidation:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.ops, self.n_w = make_tape("sel", 3, 1, rng)
        self.engine = CompiledTape(self.ops, 3)
        self.rng = rng

    def test_batch_must_be_multiple_of_runs(self):
        with pytest.raises(ShapeError, match="multiple of runs"):
            self.engine.execute(
                inputs=self.rng.normal(size=(7, 3)),
                weights=self.rng.normal(size=(3, self.n_w)),
                runs=3,
            )

    def test_weight_rows_must_match_runs(self):
        with pytest.raises(ShapeError, match="rows"):
            self.engine.execute(
                inputs=self.rng.normal(size=(6, 3)),
                weights=self.rng.normal(size=(2, self.n_w)),
                runs=3,
            )

    def test_too_few_weights_per_run(self):
        with pytest.raises(ShapeError, match="weights per run"):
            self.engine.execute(
                inputs=self.rng.normal(size=(4, 3)),
                weights=self.rng.normal(size=(2, 1)),
                runs=2,
            )

    def test_nonpositive_runs_rejected(self):
        with pytest.raises(ShapeError, match="runs"):
            self.engine.execute(
                inputs=self.rng.normal(size=(4, 3)),
                weights=self.rng.normal(size=self.n_w),
                runs=0,
            )

    def test_expvals_batch_not_multiple_of_runs(self):
        state = self.engine.execute(
            inputs=self.rng.normal(size=(4, 3)),
            weights=self.rng.normal(size=(2, self.n_w)),
            runs=2,
        )
        with pytest.raises(ShapeError, match="multiple of runs"):
            self.engine.expvals(state[:3], runs=2)


class TestExpvalBlocks:
    """``expvals`` forms probabilities a few runs' rows at a time; every
    block size gives the one-gemm-per-run result bit for bit."""

    @pytest.mark.parametrize("wires", [None, [2, 0]])
    @pytest.mark.parametrize("block_rows", [1, 7, 14, 10**6])
    def test_blocked_equals_unblocked(self, monkeypatch, wires, block_rows):
        import repro.quantum.engine as engine_mod

        rng = np.random.default_rng(11)
        ops, n_w = make_tape("sel", 3, 2, rng)
        engine = CompiledTape(ops, 3)
        runs, batch = 5, 7
        state = engine.execute(
            inputs=rng.normal(size=(runs * batch, 3)),
            weights=rng.normal(size=(runs, n_w)),
            runs=runs,
        ).copy()
        signs = engine._z_signs if wires is None else engine._z_signs[wires]
        probs = state.real**2 + state.imag**2
        unblocked = np.matmul(
            probs.reshape(runs, batch, -1), signs.T
        ).reshape(runs * batch, -1)
        monkeypatch.setattr(engine_mod, "_BLOCK_ROWS", block_rows)
        got = engine.expvals(state, wires=wires, runs=runs)
        assert np.array_equal(got, unblocked)


class TestSliceCompaction:
    """Dropping run rows (frozen-run compaction) keeps the surviving
    slices bit-identical: the engine's per-run kernels never mix
    slices, so executing a row-subset equals slicing the full sweep."""

    @pytest.mark.parametrize("ansatz,batch", [("sel", 4), ("bel", 1)])
    def test_subset_execution_bitwise_equal(self, ansatz, batch):
        rng = np.random.default_rng((batch, 17))
        ops, n_w = make_tape(ansatz, 4, 2, rng)
        full = CompiledTape(ops, 4)
        compacted = CompiledTape(ops, 4)
        runs = 5
        keep = np.array([0, 2, 4])
        weights = rng.normal(size=(runs, n_w))
        inputs = rng.normal(size=(runs * batch, 4))
        rows = (
            keep[:, None] * batch + np.arange(batch)[None, :]
        ).reshape(-1)

        state = full.execute(inputs=inputs, weights=weights, runs=runs)
        state = state.copy()
        ev = full.expvals(state, runs=runs)
        sub = compacted.execute(
            inputs=inputs[rows], weights=weights[keep], runs=keep.size
        )
        assert np.array_equal(sub, state[rows])
        assert np.array_equal(
            compacted.expvals(sub, runs=keep.size), ev[rows]
        )

    def test_subset_adjoint_bitwise_equal(self):
        rng = np.random.default_rng(23)
        ops, n_w = make_tape("sel", 3, 2, rng)
        full = CompiledTape(ops, 3)
        compacted = CompiledTape(ops, 3)
        runs, batch = 4, 8
        keep = np.array([1, 3])
        weights = rng.normal(size=(runs, n_w))
        inputs = rng.normal(size=(runs * batch, 3))
        grad = rng.normal(size=(runs * batch, 3))
        rows = (
            keep[:, None] * batch + np.arange(batch)[None, :]
        ).reshape(-1)

        full.execute(inputs=inputs, weights=weights, runs=runs, record=True)
        ig, wg = full.adjoint_gradients(grad, n_inputs=3, n_weights=n_w)
        compacted.execute(
            inputs=inputs[rows],
            weights=weights[keep],
            runs=keep.size,
            record=True,
        )
        sig, swg = compacted.adjoint_gradients(
            grad[rows], n_inputs=3, n_weights=n_w
        )
        assert np.array_equal(sig, ig[rows])
        assert np.array_equal(swg, wg[keep])


class TestRaggedDepth:
    """``execute(..., depths=...)``: one sweep of the deepest tape runs
    every member at its own depth.  Each member's slices must equal the
    member's own run-stacked execute and adjoint bit for bit, and the
    weights past a member's depth must get exact zero gradients."""

    RUNS = 2
    BATCH = 4

    @pytest.mark.parametrize("ansatz", ["bel", "sel"])
    @pytest.mark.parametrize("n_q", [3, 4, 5])
    @pytest.mark.parametrize(
        "member_depths", [(1, 2, 3, 4), (2, 2, 5), (3, 1, 2)], ids=str
    )
    def test_equals_per_member_executes(self, ansatz, n_q, member_depths):
        rng = np.random.default_rng((n_q, len(member_depths), 53))
        runs, batch = self.RUNS, self.BATCH
        deepest = max(member_depths)
        ops, n_max = make_tape(ansatz, n_q, deepest, rng)
        engine = CompiledTape(ops, n_q)
        per_layer = n_max // deepest
        depths = np.repeat(member_depths, runs)
        slices = depths.size
        weights = np.zeros((slices, n_max))
        for s, depth in enumerate(depths):
            weights[s, : depth * per_layer] = rng.normal(
                size=depth * per_layer
            )
        inputs = rng.normal(size=(slices * batch, n_q))
        grad = rng.normal(size=(slices * batch, n_q))

        state = engine.execute(
            inputs=inputs,
            weights=weights,
            runs=slices,
            record=True,
            depths=depths,
        ).copy()
        ev = engine.expvals(state, runs=slices)
        ig, wg = engine.adjoint_gradients(
            grad, n_inputs=n_q, n_weights=n_max
        )
        assert wg.shape == (slices, n_max)
        for m, depth in enumerate(member_depths):
            own_ops, n_w = make_tape(ansatz, n_q, depth, rng)
            member = CompiledTape(own_ops, n_q)
            assert member.is_layer_prefix(engine)
            slots = slice(m * runs, (m + 1) * runs)
            rows = slice(m * runs * batch, (m + 1) * runs * batch)
            ref = member.execute(
                inputs=inputs[rows],
                weights=weights[slots, :n_w],
                runs=runs,
                record=True,
            ).copy()
            assert np.array_equal(ref, state[rows])
            assert np.array_equal(member.expvals(ref, runs=runs), ev[rows])
            rig, rwg = member.adjoint_gradients(
                grad[rows], n_inputs=n_q, n_weights=n_w
            )
            assert np.array_equal(rig, ig[rows])
            assert np.array_equal(rwg, wg[slots, :n_w])
            padded = wg[slots, n_w:]
            assert np.array_equal(padded, np.zeros_like(padded))
            assert not np.signbit(padded).any()

    def test_layer_prefix_requires_matching_structure(self):
        rng = np.random.default_rng(59)

        def engine(ansatz, n_q, n_l):
            return CompiledTape(make_tape(ansatz, n_q, n_l, rng)[0], n_q)

        deep = engine("sel", 3, 3)
        assert engine("sel", 3, 2).is_layer_prefix(deep)
        assert deep.is_layer_prefix(deep)
        assert not deep.is_layer_prefix(engine("sel", 3, 2))
        assert not engine("bel", 3, 1).is_layer_prefix(deep)
        assert not engine("sel", 4, 1).is_layer_prefix(deep)
        # CZ rings: a ring's signs must match as well as its rows.
        ops, _ = make_tape("bel", 3, 2, rng)
        cz = [
            Operation("CZ", op.wires) if op.name == "CNOT" else op
            for op in ops
        ]
        plain = [op for op in cz if op.name != "CZ"]
        cz_deep = CompiledTape(cz, 3)
        assert CompiledTape(cz[:-6], 3).is_layer_prefix(cz_deep)
        assert not CompiledTape(plain, 3).is_layer_prefix(cz_deep)
        assert not cz_deep.is_layer_prefix(engine("bel", 3, 2))

    @pytest.fixture
    def ragged(self):
        rng = np.random.default_rng(61)
        ops, n_w = make_tape("sel", 3, 3, rng)
        engine = CompiledTape(ops, 3)
        return engine, rng.normal(size=(6, 3)), rng.normal(size=(3, n_w))

    def test_rejects_non_dense_tape(self):
        """Six qubits are outside the compiled shape: the tape does not
        compile, so no engine can run it at ragged depths."""
        rng = np.random.default_rng(67)
        ops, _ = make_tape("sel", 6, 2, rng)
        with pytest.raises(ConfigurationError, match="at most 5 qubits"):
            CompiledTape(ops, 6)

    def test_rejects_1d_weights(self, ragged):
        engine, x, w = ragged
        with pytest.raises(ShapeError, match="2-D"):
            engine.execute(inputs=x, weights=w[0], runs=3, depths=[1, 2, 3])

    def test_rejects_length_mismatch(self, ragged):
        engine, x, w = ragged
        with pytest.raises(ShapeError, match="shape"):
            engine.execute(inputs=x, weights=w, runs=3, depths=[1, 2])

    @pytest.mark.parametrize("bad", [[1, 2, 4], [0, 2, 3]])
    def test_rejects_depth_out_of_range(self, ragged, bad):
        engine, x, w = ragged
        with pytest.raises(ShapeError, match="1..3"):
            engine.execute(inputs=x, weights=w, runs=3, depths=bad)


class TestSignedRingStack:
    """Rings with CZs (the custom-ansatz example's) fold into the layer
    unitaries as sign flips, which keep every run's arithmetic its own:
    stacked and ragged sweeps equal per-run executes bit for bit."""

    def test_stacked_layer_equals_per_run(self, cz_ring_layer):
        runs, batch, n_q = 3, 4, 3
        layers = [
            cz_ring_layer(n_q, 2, rng=np.random.default_rng(r))
            for r in range(runs)
        ]
        engine = CompiledTape(layers[0].representative_tape(), n_q)
        stacked = StackedQuantumLayer(runs, layers, engine)
        rng = np.random.default_rng(71)
        x = rng.normal(size=(runs * batch, n_q))
        grad = rng.normal(size=x.shape)
        out = stacked.forward(x, training=True)
        dx = stacked.backward(grad)
        for r, layer in enumerate(layers):
            rows = slice(r * batch, (r + 1) * batch)
            own = layer.forward(x[rows], training=True)
            assert np.array_equal(own, out[rows])
            assert layer._engine is not None
            assert np.array_equal(layer.backward(grad[rows]), dx[rows])
            assert np.array_equal(layer.grads[0].ravel(), stacked.grads[0][r])

    def test_ragged_depths_equal_per_member(self, cz_ring_layer):
        n_q, batch = 3, 4
        depths = np.array([1, 3, 2])
        layers = [
            cz_ring_layer(n_q, int(d), rng=np.random.default_rng(d))
            for d in depths
        ]
        engine = CompiledTape(layers[1].representative_tape(), n_q)
        weights = np.zeros((depths.size, engine.weight_columns.size))
        for s, layer in enumerate(layers):
            weights[s, : layer.n_weights] = layer.weights.ravel()
        rng = np.random.default_rng(73)
        x = rng.normal(size=(depths.size * batch, n_q))
        grad = rng.normal(size=x.shape)
        state = engine.execute(
            inputs=x, weights=weights, runs=depths.size, record=True,
            depths=depths,
        ).copy()
        ig, wg = engine.adjoint_gradients(grad, n_q, weights.shape[1])
        for s, layer in enumerate(layers):
            member = CompiledTape(layer.representative_tape(), n_q)
            assert member.is_layer_prefix(engine)
            rows = slice(s * batch, (s + 1) * batch)
            ref = member.execute(
                inputs=x[rows], weights=layer.weights.ravel(), record=True
            )
            assert np.array_equal(ref, state[rows])
            rig, rwg = member.adjoint_gradients(
                grad[rows], n_q, layer.n_weights
            )
            assert np.array_equal(rig, ig[rows])
            assert np.array_equal(rwg, wg[s, : layer.n_weights])
            assert not wg[s, layer.n_weights :].any()


class TestEvaluationSizedRuns:
    """An evaluation execute carries about 1200 rows per run (a slice's
    whole training split), where OpenBLAS blocks a gemm differently than
    at a training minibatch's few rows.  Stacked ``execute``,
    ``adjoint_gradients`` and ``expvals`` still equal the per-run calls
    bit for bit, with per-run depths and after slice compaction."""

    ROWS = 1200

    def _ragged(self, ansatz, n_q, depths, seed):
        """The deepest member's engine, zero-padded per-run weights and
        run-major inputs and output gradients."""
        rng = np.random.default_rng(seed)
        deepest = int(max(depths))
        ops, n_max = make_tape(ansatz, n_q, deepest, rng)
        per_layer = n_max // deepest
        weights = np.zeros((len(depths), n_max))
        for r, depth in enumerate(depths):
            own = depth * per_layer
            weights[r, :own] = rng.normal(size=own)
        inputs = rng.normal(size=(len(depths) * self.ROWS, n_q))
        grad = rng.normal(size=inputs.shape)
        return CompiledTape(ops, n_q), weights, inputs, grad, per_layer

    def _stacked(self, engine, weights, inputs, grad, depths):
        runs = len(depths)
        state = engine.execute(
            inputs=inputs, weights=weights, runs=runs, record=True,
            depths=np.asarray(depths),
        ).copy()
        ev = engine.expvals(state, runs=runs)
        n_q = engine.n_qubits
        ig, wg = engine.adjoint_gradients(grad, n_q, weights.shape[1])
        return state, ev, ig, wg

    @pytest.mark.parametrize("ansatz", ["sel", "bel"])
    @pytest.mark.parametrize("n_q", [3, 5])
    def test_equals_per_run_calls(self, ansatz, n_q):
        depths = (1, 3, 2)
        engine, weights, inputs, grad, per_layer = self._ragged(
            ansatz, n_q, depths, (n_q, self.ROWS, 1)
        )
        state, ev, ig, wg = self._stacked(
            engine, weights, inputs, grad, depths
        )
        rng = np.random.default_rng(0)
        for r, depth in enumerate(depths):
            member = CompiledTape(make_tape(ansatz, n_q, depth, rng)[0], n_q)
            n_w = depth * per_layer
            rows = slice(r * self.ROWS, (r + 1) * self.ROWS)
            ref = member.execute(
                inputs=inputs[rows], weights=weights[r, :n_w], record=True
            ).copy()
            assert np.array_equal(ref, state[rows])
            assert np.array_equal(member.expvals(ref), ev[rows])
            rig, rwg = member.adjoint_gradients(grad[rows], n_q, n_w)
            assert np.array_equal(rig, ig[rows])
            assert np.array_equal(rwg, wg[r, :n_w])
            assert not wg[r, n_w:].any()

    @pytest.mark.parametrize("ansatz", ["sel", "bel"])
    @pytest.mark.parametrize("n_q", [3, 5])
    def test_compacted_equals_full_sweep(self, ansatz, n_q):
        depths = np.array([2, 1, 3, 1])
        keep = np.array([0, 2, 3])
        engine, weights, inputs, grad, _ = self._ragged(
            ansatz, n_q, depths, (n_q, self.ROWS, 2)
        )
        full = self._stacked(engine, weights, inputs, grad, depths)
        rows = (
            keep[:, None] * self.ROWS + np.arange(self.ROWS)[None, :]
        ).reshape(-1)
        compacted = self._stacked(
            engine.clone(), weights[keep], inputs[rows], grad[rows],
            depths[keep],
        )
        state, ev, ig, wg = full
        sub_state, sub_ev, sub_ig, sub_wg = compacted
        assert np.array_equal(sub_state, state[rows])
        assert np.array_equal(sub_ev, ev[rows])
        assert np.array_equal(sub_ig, ig[rows])
        assert np.array_equal(sub_wg, wg[keep])
