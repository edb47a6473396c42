"""Differential tests: the compiled engine vs the reference executor.

The reference implementations (:func:`repro.quantum.circuit.run`,
:func:`repro.quantum.adjoint.adjoint_gradients`,
:func:`repro.quantum.parameter_shift.parameter_shift_gradients`) are the
semantics oracle; :class:`repro.quantum.engine.CompiledTape` must match
them to 1e-12 on randomized tapes covering every gate in ``GATE_SET``,
shared and per-sample ``(B,)`` parameters, and both of the paper's
ansatze.
"""

import numpy as np
import pytest

from repro.exceptions import GateError, ShapeError
from repro.quantum import (
    GATE_SET,
    CompiledTape,
    Operation,
    adjoint_gradients,
    angle_embedding,
    angle_embedding_structure,
    basic_entangler_layers,
    compiled_parameter_shift_gradients,
    expval_z,
    input_ref,
    parameter_shift_gradients,
    random_bel_weights,
    random_sel_weights,
    run,
    strongly_entangling_layers,
    weight_ref,
)

ATOL = 1e-12

#: Gates the adjoint backend can differentiate.
_ADJOINT_GATES = ("RX", "RY", "RZ", "Rot")


def random_tape(rng, n_qubits, batch, n_ops=12, with_refs=False):
    """A random tape drawing every gate type, mixing shared and (B,) params.

    With ``with_refs`` the differentiable single-qubit rotations get
    input/weight refs; returns ``(ops, n_inputs, n_weights)``.
    """
    names = list(GATE_SET)
    ops = []
    n_inputs = n_qubits
    next_weight = 0
    for _ in range(n_ops):
        name = names[rng.integers(len(names))]
        info = GATE_SET[name]
        wires = tuple(
            rng.choice(n_qubits, size=info.n_wires, replace=False).tolist()
        )
        params = []
        refs = []
        for _ in range(info.n_params):
            if rng.random() < 0.5:
                params.append(rng.uniform(-np.pi, np.pi, size=batch))
            else:
                params.append(rng.uniform(-np.pi, np.pi))
            refs.append(None)
        if with_refs and name in _ADJOINT_GATES:
            for p in range(info.n_params):
                roll = rng.random()
                if roll < 0.4:
                    refs[p] = input_ref(int(rng.integers(n_inputs)))
                elif roll < 0.8:
                    refs[p] = weight_ref(next_weight)
                    next_weight += 1
        ops.append(Operation(name, wires, tuple(params), tuple(refs)))
    return ops, n_inputs, max(next_weight, 1)


def covering_tape(batch):
    """A fixed 3-qubit tape that applies every gate in GATE_SET once."""
    ops = []
    for name, info in GATE_SET.items():
        wires = (0,) if info.n_wires == 1 else (0, 1)
        params = tuple(
            np.linspace(0.3, 0.9, info.n_params) + 0.1 * len(ops)
        ) if info.n_params else ()
        ops.append(Operation(name, wires, params))
        # Exercise the other wire orderings / batched params too.
        if info.n_wires == 2:
            ops.append(
                Operation(
                    name,
                    (2, 0),
                    tuple(
                        np.full(batch, 0.4 + 0.05 * k)
                        for k in range(info.n_params)
                    ),
                )
            )
    return ops


def dense_tape(case, x, w):
    """Encoding + ansatz tape of a dense-path case (see DENSE_CASES)."""
    ansatz, n_qubits, _, rotation, _, custom_ranges = case
    ops = angle_embedding(x, n_qubits, rotation=rotation)
    if ansatz == "bel":
        return ops + basic_entangler_layers(w, n_qubits, rotation=rotation)
    ranges = None
    if custom_ranges:
        # Ranges a default SEL never picks: every other offset.
        ranges = tuple((2 * l) % (n_qubits - 1) + 1 for l in range(w.shape[0]))
    return ops + strongly_entangling_layers(w, n_qubits, ranges=ranges)


def dense_case_data(case, rng, batch):
    """Random ``(x, w, measure_wires)`` for a dense-path case."""
    ansatz, n_qubits, n_layers, _, n_features, _ = case
    shape = (
        (n_layers, n_qubits) if ansatz == "bel" else (n_layers, n_qubits, 3)
    )
    x = rng.uniform(-np.pi, np.pi, (batch, n_features))
    w = rng.uniform(0, 2 * np.pi, shape)
    wires = rng.choice(n_qubits, size=max(1, n_qubits - 1), replace=False)
    wires = sorted(wires)
    return x, w, [int(q) for q in wires]


#: (ansatz, n_qubits, n_layers, rotation, n_features, custom SEL ranges):
#: every width the dense path serves, depths 1/4/10, every encoding axis,
#: fewer encoded features than qubits, and non-default SEL ranges.
DENSE_CASES = [
    (
        ansatz,
        n,
        layers,
        "XYZ"[(n + layers) % 3],
        max(1, n - (n + layers) % 2),
        custom,
    )
    for ansatz in ("bel", "sel")
    for n in range(1, 6)
    for layers in (1, 4, 10)
    for custom in ((False, True) if ansatz == "sel" and n > 2 else (False,))
]


class TestForwardDifferential:
    @pytest.mark.parametrize("case", DENSE_CASES, ids=str)
    def test_dense_tapes(self, case):
        rng = np.random.default_rng(DENSE_CASES.index(case))
        batch = 5
        x, w, wires = dense_case_data(case, rng, batch)
        tape = dense_tape(case, x, w)
        engine = CompiledTape(tape, case[1])
        assert engine.dense
        ref = run(tape, case[1], batch)
        np.testing.assert_allclose(
            engine.run(inputs=x, weights=w.ravel()), ref, atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(engine.run(), ref, atol=ATOL, rtol=0)
        state = engine.execute(inputs=x, weights=w.ravel())
        np.testing.assert_allclose(
            engine.expvals(state, wires=wires),
            expval_z(ref, wires=wires),
            atol=ATOL,
            rtol=0,
        )

    def test_every_gate_once(self):
        batch = 5
        ops = covering_tape(batch)
        assert set(op.name for op in ops) == set(GATE_SET)
        ref = run(ops, 3, batch)
        got = CompiledTape(ops, 3).run(batch=batch)
        np.testing.assert_allclose(got, ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_tapes(self, seed):
        rng = np.random.default_rng(seed)
        n_qubits = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 7))
        ops, _, _ = random_tape(rng, n_qubits, batch)
        ref = run(ops, n_qubits, batch)
        got = CompiledTape(ops, n_qubits).run(batch=batch)
        np.testing.assert_allclose(got, ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("ansatz", ["bel", "sel"])
    def test_paper_ansatze(self, ansatz, rng):
        n_qubits, batch, layers = 4, 6, 3
        x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        if ansatz == "bel":
            w = random_bel_weights(layers, n_qubits, rng)
            tape = angle_embedding(x, n_qubits) + basic_entangler_layers(
                w, n_qubits
            )
        else:
            w = random_sel_weights(layers, n_qubits, rng)
            tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
                w, n_qubits
            )
        ref = run(tape, n_qubits, batch)
        engine = CompiledTape(tape, n_qubits)
        # Default-bound execution and explicit rebinding must both match.
        np.testing.assert_allclose(engine.run(), ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(
            engine.run(inputs=x, weights=w.ravel()), ref, atol=ATOL, rtol=0
        )

    def test_structural_compile_then_bind(self, rng):
        """Compile from placeholder angles, bind real data afterwards."""
        n_qubits, batch = 3, 4
        w = random_sel_weights(2, n_qubits, rng)
        structure = angle_embedding_structure(
            n_qubits, n_qubits
        ) + strongly_entangling_layers(w, n_qubits)
        engine = CompiledTape(structure, n_qubits)
        for _ in range(3):
            x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
            w2 = random_sel_weights(2, n_qubits, rng)
            tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
                w2, n_qubits
            )
            ref = run(tape, n_qubits, batch)
            got = engine.run(inputs=x, weights=w2.ravel())
            np.testing.assert_allclose(got, ref, atol=ATOL, rtol=0)

    def test_fusion_shrinks_program(self, rng):
        w = random_sel_weights(2, 4, rng)
        x = rng.uniform(-1, 1, (8, 4))
        tape = angle_embedding(x, 4) + strongly_entangling_layers(w, 4)
        engine = CompiledTape(tape, 4)
        # Encoding RY fuses with the first layer's Rot on each wire.
        assert engine.n_instructions < engine.n_ops

    def test_expvals_match_measurements(self, rng):
        batch = 5
        ops = covering_tape(batch)
        engine = CompiledTape(ops, 3)
        state = engine.execute(batch=batch)
        ref_state = run(ops, 3, batch)
        np.testing.assert_allclose(
            engine.expvals(state), expval_z(ref_state), atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            engine.expvals(state, wires=[2, 0]),
            expval_z(ref_state, wires=[2, 0]),
            atol=ATOL,
            rtol=0,
        )


class TestAdjointDifferential:
    @pytest.mark.parametrize("case", DENSE_CASES, ids=str)
    def test_dense_tapes(self, case):
        rng = np.random.default_rng(1000 + DENSE_CASES.index(case))
        n_qubits, n_features, batch = case[1], case[4], 5
        x, w, wires = dense_case_data(case, rng, batch)
        tape = dense_tape(case, x, w)
        final = run(tape, n_qubits, batch)
        engine = CompiledTape(tape, n_qubits)
        for measured in (None, wires):
            width = n_qubits if measured is None else len(measured)
            grad = rng.standard_normal((batch, width))
            ig_ref, wg_ref = adjoint_gradients(
                tape, final, grad, n_features, w.size, measure_wires=measured
            )
            engine.execute(inputs=x, weights=w.ravel(), record=True)
            ig, wg = engine.adjoint_gradients(
                grad, n_features, w.size, measure_wires=measured
            )
            np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
            np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_tapes(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_qubits = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 7))
        ops, n_inputs, n_weights = random_tape(
            rng, n_qubits, batch, with_refs=True
        )
        grad = rng.standard_normal((batch, n_qubits))
        final = run(ops, n_qubits, batch)
        ig_ref, wg_ref = adjoint_gradients(
            ops, final, grad, n_inputs, n_weights
        )
        engine = CompiledTape(ops, n_qubits)
        engine.execute(batch=batch, record=True)
        ig, wg = engine.adjoint_gradients(grad, n_inputs, n_weights)
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("ansatz", ["bel", "sel"])
    def test_paper_ansatze(self, ansatz, rng):
        n_qubits, batch, layers = 3, 5, 2
        x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        if ansatz == "bel":
            w = random_bel_weights(layers, n_qubits, rng)
            tape = angle_embedding(x, n_qubits) + basic_entangler_layers(
                w, n_qubits
            )
        else:
            w = random_sel_weights(layers, n_qubits, rng)
            tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
                w, n_qubits
            )
        grad = rng.standard_normal((batch, n_qubits))
        final = run(tape, n_qubits, batch)
        ig_ref, wg_ref = adjoint_gradients(
            tape, final, grad, n_qubits, w.size
        )
        engine = CompiledTape(tape, n_qubits)
        engine.execute(inputs=x, weights=w.ravel(), record=True)
        ig, wg = engine.adjoint_gradients(grad, n_qubits, w.size)
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    def test_record_released_after_backward(self, rng):
        x = rng.uniform(-1, 1, (3, 2))
        w = random_bel_weights(1, 2, rng)
        tape = angle_embedding(x, 2) + basic_entangler_layers(w, 2)
        engine = CompiledTape(tape, 2)
        engine.execute(record=True)
        assert engine.has_record
        engine.adjoint_gradients(np.ones((3, 2)), 2, w.size)
        assert not engine.has_record
        with pytest.raises(ShapeError):
            engine.adjoint_gradients(np.ones((3, 2)), 2, w.size)

    def test_record_survives_intervening_execute(self, rng):
        """An inference execute between a recorded forward and backward
        (e.g. a metric callback) must not corrupt the recorded state."""
        x = rng.uniform(-1, 1, (3, 2))
        w = random_bel_weights(1, 2, rng)
        tape = angle_embedding(x, 2) + basic_entangler_layers(w, 2)
        grad = rng.standard_normal((3, 2))
        final = run(tape, 2, 3)
        ig_ref, wg_ref = adjoint_gradients(tape, final, grad, 2, w.size)

        engine = CompiledTape(tape, 2)
        engine.execute(record=True)
        other = rng.uniform(-1, 1, (3, 2))
        engine.execute(inputs=other)  # same batch: would reuse buffers
        engine.execute(inputs=rng.uniform(-1, 1, (5, 2)))  # different batch
        ig, wg = engine.adjoint_gradients(grad, 2, w.size)
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    def test_multi_qubit_trainable_rejected(self):
        ops = [Operation("CRX", (0, 1), (0.3,), (weight_ref(0),))]
        engine = CompiledTape(ops, 2)
        engine.execute(batch=1, record=True)
        with pytest.raises(GateError):
            engine.adjoint_gradients(np.ones((1, 2)), 1, 1)


class TestCompiledParameterShift:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_qubits, batch = 3, 4
        ops, n_inputs, n_weights = random_tape(
            rng, n_qubits, batch, n_ops=8, with_refs=True
        )
        grad = rng.standard_normal((batch, n_qubits))
        ig_ref, wg_ref = parameter_shift_gradients(
            ops, n_qubits, batch, grad, n_inputs, n_weights
        )
        engine = CompiledTape(ops, n_qubits)
        ig, wg = compiled_parameter_shift_gradients(
            engine, grad, n_inputs, n_weights, batch=batch
        )
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    def test_with_bindings(self, rng):
        n_qubits, batch = 3, 5
        x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        w = random_sel_weights(2, n_qubits, rng)
        tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
            w, n_qubits
        )
        grad = rng.standard_normal((batch, n_qubits))
        ig_ref, wg_ref = parameter_shift_gradients(
            tape, n_qubits, batch, grad, n_qubits, w.size
        )
        structure = angle_embedding_structure(
            n_qubits, n_qubits
        ) + strongly_entangling_layers(w, n_qubits)
        engine = CompiledTape(structure, n_qubits)
        ig, wg = compiled_parameter_shift_gradients(
            engine,
            grad,
            n_qubits,
            w.size,
            inputs=x,
            weights=w.ravel(),
        )
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)


class TestValidation:
    def test_bad_wire(self):
        with pytest.raises(ShapeError):
            CompiledTape([Operation("H", (2,))], 2)

    def test_bad_batch(self):
        engine = CompiledTape([Operation("H", (0,))], 1)
        with pytest.raises(ShapeError):
            engine.execute(batch=0)

    def test_too_few_input_features(self):
        ops = [Operation("RY", (0,), (0.0,), (input_ref(3),))]
        engine = CompiledTape(ops, 1)
        with pytest.raises(ShapeError):
            engine.execute(inputs=np.zeros((2, 2)))

    def test_too_few_weights(self):
        ops = [Operation("RY", (0,), (0.0,), (weight_ref(5),))]
        engine = CompiledTape(ops, 1)
        with pytest.raises(ShapeError):
            engine.execute(weights=np.zeros(3), batch=1)

    def test_baked_batch_conflict(self, rng):
        # A (B,)-shaped parameter without a ref is baked in at compile
        # time and pins the execution batch.
        ops = [Operation("RY", (0,), (rng.uniform(size=4),))]
        engine = CompiledTape(ops, 1)
        assert engine.run().shape[0] == 4
        with pytest.raises(ShapeError):
            engine.execute(batch=3)

    def test_buffer_pools_bounded(self, rng):
        x = rng.uniform(-1, 1, (3, 2))
        tape = angle_embedding(x, 2)
        engine = CompiledTape(tape, 2)
        for batch in range(1, 12):
            engine.execute(inputs=rng.uniform(-1, 1, (batch, 2)))
        assert len(engine._pools) <= 4

    def test_grad_shape_checked(self, rng):
        x = rng.uniform(-1, 1, (3, 2))
        tape = angle_embedding(x, 2)
        engine = CompiledTape(tape, 2)
        engine.execute(record=True)
        with pytest.raises(ShapeError):
            engine.adjoint_gradients(np.ones((3, 5)), 2, 1)


class TestKernelPaths:
    """The trailing-wire matmul specialization and the einsum kernels
    must be two implementations of the same math, and the CNOT-ring
    fusion must not change semantics — all checked against the reference
    executor across batch sizes."""

    @pytest.mark.parametrize("batch", [1, 8, 16, 17, 32])
    def test_kernel_paths_agree(self, batch):
        rng = np.random.default_rng(batch)
        n_qubits = 3
        x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        w = random_sel_weights(2, n_qubits, rng)
        tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
            w, n_qubits
        )
        ref = run(tape, n_qubits, batch)
        got = CompiledTape(tape, n_qubits).run(inputs=x, weights=w.ravel())
        np.testing.assert_allclose(got, ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("batch", [4, 32])
    def test_adjoint_across_kernel_paths(self, batch):
        rng = np.random.default_rng(batch)
        n_qubits, layers = 3, 3  # 3 layers -> 3 fused CNOT rings
        x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        w = random_sel_weights(layers, n_qubits, rng)
        tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
            w, n_qubits
        )
        grad = rng.standard_normal((batch, n_qubits))
        final = run(tape, n_qubits, batch)
        ig_ref, wg_ref = adjoint_gradients(tape, final, grad, n_qubits, w.size)
        engine = CompiledTape(tape, n_qubits)
        engine.execute(inputs=x, weights=w.ravel(), record=True)
        ig, wg = engine.adjoint_gradients(grad, n_qubits, w.size)
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    def test_cnot_ring_fuses_to_one_permutation(self, rng):
        from repro.quantum.engine import _FPERM

        n_qubits, layers = 4, 2
        x = rng.uniform(-1, 1, (4, n_qubits))
        w = random_sel_weights(layers, n_qubits, rng)
        tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
            w, n_qubits
        )
        engine = CompiledTape(tape, n_qubits)
        perms = [i for i in engine._program if i[0] == _FPERM]
        # one fused permutation per layer's ring, not one per CNOT
        assert len(perms) == layers
        # and the adjoint program carries matching skip markers
        skips = [s for s in engine._adj_program if s[0] == "skip"]
        assert len(skips) == layers * (n_qubits - 1)


class TestDenseDispatch:
    """The dense path serves exactly its tape shape, and never a shifted
    execute; everything else runs the per-gate program, still matching
    the reference."""

    @staticmethod
    def _variant(name, rng, batch=4):
        n_qubits = 6 if name == "six-qubits" else 3
        x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        w = random_sel_weights(2, n_qubits, rng)
        if name == "shared-weight":
            w[1] = w[0]
        first, second = (
            strongly_entangling_layers(w[l : l + 1], n_qubits)
            for l in range(2)
        )
        # Second layer's weights are columns 3n..6n-1 of the flat vector
        # (or, for "shared-weight", the first layer's again).
        if name != "shared-weight":
            for op in second:
                op.refs = tuple(
                    None if r is None else weight_ref(r.index + 3 * n_qubits)
                    for r in op.refs
                )
        extra = {
            "cz": [Operation("CZ", (0, 1))],
            "static-2q": [Operation("CRX", (1, 2), (0.7,))],
            "input-after-weight": [
                Operation("RY", (1,), (x[:, 0],), (input_ref(0),))
            ],
        }.get(name, [])
        encoding = angle_embedding(x, n_qubits)
        if name == "shared-input":
            encoding[1] = Operation("RY", (1,), (x[:, 0],), (input_ref(0),))
        tape = encoding + first + extra + second
        return tape, x, w, n_qubits

    @pytest.mark.parametrize(
        "name",
        [
            "cz",
            "static-2q",
            "input-after-weight",
            "six-qubits",
            "shared-input",
            "shared-weight",
        ],
    )
    def test_other_tapes_run_per_gate(self, name, rng):
        tape, x, w, n_qubits = self._variant(name, rng)
        engine = CompiledTape(tape, n_qubits)
        assert not engine.dense
        batch = x.shape[0]
        final = run(tape, n_qubits, batch)
        got = engine.execute(inputs=x, weights=w.ravel(), record=True)
        np.testing.assert_allclose(
            got.reshape(final.shape), final, atol=ATOL, rtol=0
        )
        grad = rng.standard_normal((batch, n_qubits))
        ig_ref, wg_ref = adjoint_gradients(tape, final, grad, n_qubits, w.size)
        ig, wg = engine.adjoint_gradients(grad, n_qubits, w.size)
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    def test_shifted_executes_run_per_gate(self, rng, monkeypatch):
        batch = 4
        x = rng.uniform(-np.pi, np.pi, (batch, 3))
        w = random_sel_weights(2, 3, rng)
        tape = angle_embedding(x, 3) + strongly_entangling_layers(w, 3)
        engine = CompiledTape(tape, 3)
        assert engine.dense

        def no_dense(*args, **kwargs):
            raise AssertionError("dense path ran")

        monkeypatch.setattr(engine, "_execute_dense", no_dense)
        with pytest.raises(AssertionError, match="dense path"):
            engine.execute(inputs=x, weights=w.ravel())
        grad = rng.standard_normal((batch, 3))
        ig_ref, wg_ref = parameter_shift_gradients(
            tape, 3, batch, grad, 3, w.size
        )
        ig, wg = compiled_parameter_shift_gradients(
            engine, grad, 3, w.size, inputs=x, weights=w.ravel()
        )
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)


class TestDensePeakBytes:
    """Memory governance sizes admissions with ``peak_bytes``: for dense
    tapes it must cover what a recorded step really allocates."""

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("layers", [1, 4, 10])
    @pytest.mark.parametrize("n_qubits", [3, 5])
    def test_adjoint_prediction_covers_traced_peak(
        self, n_qubits, layers, runs
    ):
        import tracemalloc

        rng = np.random.default_rng((n_qubits, layers, runs))
        batch = 8 * runs
        w = random_sel_weights(layers, n_qubits, rng)
        tape = angle_embedding_structure(
            n_qubits, n_qubits
        ) + strongly_entangling_layers(w, n_qubits)
        engine = CompiledTape(tape, n_qubits)
        weights = rng.normal(size=(runs, w.size))
        x = rng.normal(size=(batch, n_qubits))
        grad = rng.normal(size=(batch, n_qubits))

        def step():
            engine.execute(inputs=x, weights=weights, runs=runs, record=True)
            engine.adjoint_gradients(grad, n_qubits, w.size)

        step()  # warm the buffer pools, as a training loop would
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert engine.peak_bytes(batch, runs=runs, mode="adjoint") >= peak

    @pytest.mark.parametrize("depths", [(1, 4), (1, 2, 3, 4), (2, 10, 5)])
    @pytest.mark.parametrize("n_qubits", [3, 5])
    def test_ragged_prediction_covers_traced_peak(self, n_qubits, depths):
        """A ``depths=`` step records every run at the compiled depth:
        the padded record is what ``peak_bytes`` must cover."""
        import tracemalloc

        rng = np.random.default_rng((n_qubits, len(depths)))
        runs, batch = 2 * len(depths), 8
        depths = np.repeat(depths, 2)
        w = random_sel_weights(int(depths.max()), n_qubits, rng)
        tape = angle_embedding_structure(
            n_qubits, n_qubits
        ) + strongly_entangling_layers(w, n_qubits)
        engine = CompiledTape(tape, n_qubits)
        weights = rng.normal(size=(runs, w.size))
        x = rng.normal(size=(runs * batch, n_qubits))
        grad = rng.normal(size=x.shape)

        def step():
            engine.execute(
                inputs=x, weights=weights, runs=runs, record=True,
                depths=depths,
            )
            engine.adjoint_gradients(grad, n_qubits, w.size)

        step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        predicted = engine.peak_bytes(runs * batch, runs=runs, mode="adjoint")
        assert predicted >= peak


class TestCompileCache:
    def teardown_method(self):
        from repro.quantum import disable_compile_cache

        disable_compile_cache()

    def _sel_tape(self, rng):
        x = rng.uniform(-1, 1, (4, 3))
        w = random_sel_weights(2, 3, rng)
        return angle_embedding(x, 3) + strongly_entangling_layers(w, 3)

    def test_disabled_by_default(self, rng):
        from repro.quantum import compile_cache_info, compiled_tape

        tape = self._sel_tape(rng)
        assert not compile_cache_info()["enabled"]
        a, b = compiled_tape(tape, 3), compiled_tape(tape, 3)
        assert a is not b and a._program is not b._program

    def test_bad_maxsize_rejected(self):
        from repro.exceptions import ConfigurationError
        from repro.quantum import enable_compile_cache

        with pytest.raises(ConfigurationError):
            enable_compile_cache(maxsize=0)

    def test_structural_hit(self, rng):
        from repro.quantum import (
            compile_cache_info,
            compiled_tape,
            enable_compile_cache,
        )

        enable_compile_cache()
        # Same structure, different parameter values -> one shared
        # compilation, handed out as independent clones.
        a = compiled_tape(self._sel_tape(rng), 3)
        b = compiled_tape(self._sel_tape(rng), 3)
        assert a is not b
        assert a._program is b._program  # compiled program shared
        assert a._pools is not b._pools  # execution state per instance
        info = compile_cache_info()
        assert info["enabled"] and info["hits"] == 1 and info["misses"] == 1

    def test_clones_do_not_share_records(self, rng):
        """Two live layers with identical structure must not clobber each
        other's recorded forwards."""
        from repro.quantum import compiled_tape, enable_compile_cache

        enable_compile_cache()
        x = rng.uniform(-np.pi, np.pi, (4, 3))
        w = random_sel_weights(1, 3, rng)
        tape = angle_embedding(x, 3) + strongly_entangling_layers(w, 3)
        a = compiled_tape(tape, 3)
        b = compiled_tape(tape, 3)
        a.execute(inputs=x, weights=w.ravel(), record=True)
        b.execute(inputs=x, weights=w.ravel(), record=True)
        assert a.has_record and b.has_record
        grad = rng.standard_normal((4, 3))
        ig_a, wg_a = a.adjoint_gradients(grad, 3, w.size)
        ig_b, wg_b = b.adjoint_gradients(grad, 3, w.size)
        np.testing.assert_allclose(ig_a, ig_b, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg_a, wg_b, atol=ATOL, rtol=0)

    def test_structure_and_constants_distinguish(self, rng):
        from repro.quantum import compiled_tape, enable_compile_cache

        enable_compile_cache()
        sel = compiled_tape(self._sel_tape(rng), 3)
        x = rng.uniform(-1, 1, (4, 3))
        bel_tape = angle_embedding(x, 3) + basic_entangler_layers(
            random_bel_weights(2, 3, rng), 3
        )
        assert compiled_tape(bel_tape, 3) is not sel
        # Unreferenced (constant) parameters are part of the key.
        c1 = compiled_tape([Operation("RY", (0,), (0.1,))], 1)
        c2 = compiled_tape([Operation("RY", (0,), (0.2,))], 1)
        assert c1 is not c2

    def test_cached_engine_rebinds_correctly(self, rng):
        from repro.quantum import compiled_tape, enable_compile_cache

        enable_compile_cache()
        compiled_tape(self._sel_tape(rng), 3)  # seed the cache
        x = rng.uniform(-np.pi, np.pi, (5, 3))
        w = random_sel_weights(2, 3, rng)
        tape = angle_embedding(x, 3) + strongly_entangling_layers(w, 3)
        engine = compiled_tape(tape, 3)
        ref = run(tape, 3, 5)
        got = engine.run(inputs=x, weights=w.ravel())
        np.testing.assert_allclose(got, ref, atol=ATOL, rtol=0)

    def test_bounded(self, rng):
        from repro.quantum import enable_compile_cache
        from repro.quantum.engine import _COMPILE_CACHE_MAX, compiled_tape
        import repro.quantum.engine as engine_mod

        enable_compile_cache(maxsize=2)
        for angle_index in range(5):
            compiled_tape(
                [Operation("RY", (0,), (float(angle_index),))], 1
            )
        assert len(engine_mod._COMPILE_CACHE) <= 2
