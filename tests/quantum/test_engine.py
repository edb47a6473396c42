"""Differential tests: the compiled engine vs the reference executor.

The reference implementations (:func:`repro.quantum.circuit.run`,
:func:`repro.quantum.adjoint.adjoint_gradients`) are the semantics
oracle; :class:`repro.quantum.engine.CompiledTape` must match
them to 1e-12 on both of the paper's ansatze and on random tapes of the
compiled shape (any width it serves, encoding axis and subset, layer
gate, and rings mixing CNOT, SWAP and CZ).  Tapes outside that shape
must raise at construction and run on the reference executor instead.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.hybrid import QuantumLayer
from repro.quantum import (
    CompiledTape,
    Operation,
    adjoint_gradients,
    angle_embedding,
    angle_embedding_structure,
    basic_entangler_layers,
    expval_z,
    input_ref,
    random_bel_weights,
    random_sel_weights,
    run,
    strongly_entangling_layers,
    weight_ref,
)
from repro.quantum.circuit import GATE_SET
from repro.quantum.engine import dense_peak_bytes

ATOL = 1e-12

#: Layer gates of the compiled shape, and the ring gates its signed
#: permutations fold.
_LAYER_GATES = ("RX", "RY", "RZ", "Rot")
_RING_GATES = ("CNOT", "SWAP", "CZ")


def random_dense_tape(seed, batch):
    """A random tape of the compiled shape, bound to random data.

    Seed ``s`` draws width ``1 + s % 5`` and layer gate
    ``_LAYER_GATES[s % 4]`` (so eight seeds cover every width and gate);
    the encoding axis, the encoded wires and their input columns, each
    layer's wire order and each ring's CNOT/SWAP/CZ gates are random.
    Weight columns are shuffled and two are left unused.  Returns
    ``(ops, n_qubits, x, w)``.
    """
    rng = np.random.default_rng((seed, 7))
    n = 1 + seed % 5
    n_features = n + 1
    x = rng.uniform(-np.pi, np.pi, (batch, n_features))
    axis = str(rng.choice(["RX", "RY", "RZ"]))
    wires = rng.permutation(n)[: rng.integers(0, n + 1)]
    columns = rng.permutation(n_features)[: wires.size]
    ops = [
        Operation(axis, (int(w),), (x[:, c],), (input_ref(int(c)),))
        for w, c in zip(wires, columns)
    ]
    gate = _LAYER_GATES[seed % 4]
    n_p = GATE_SET[gate].n_params
    n_layers = int(rng.integers(1, 4))
    n_weights = n_layers * n * n_p + 2
    w = rng.uniform(-np.pi, np.pi, n_weights)
    order = iter(rng.permutation(n_weights).tolist())
    for _ in range(n_layers):
        for wire in rng.permutation(n).tolist():
            cols = [next(order) for _ in range(n_p)]
            ops.append(
                Operation(
                    gate,
                    (wire,),
                    tuple(w[c] for c in cols),
                    tuple(weight_ref(c) for c in cols),
                )
            )
        for _ in range(rng.integers(0, n + 2) if n > 1 else 0):
            pair = rng.choice(n, size=2, replace=False).tolist()
            ops.append(Operation(str(rng.choice(_RING_GATES)), tuple(pair)))
    return ops, n, x, w


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

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_tapes(self, seed):
        batch = 1 + seed % 6
        ops, n_qubits, x, w = random_dense_tape(seed, batch)
        ref = run(ops, n_qubits, batch)
        engine = CompiledTape(ops, n_qubits)
        np.testing.assert_allclose(
            engine.run(inputs=x, weights=w), ref, atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            engine.run(batch=batch), ref, atol=ATOL, rtol=0
        )

    def test_cz_ring_layer(self, cz_ring_layer, rng):
        """The custom-ansatz example's CZ ring compiles and runs on the
        engine inside its layer."""
        layer = cz_ring_layer(3, 2, rng=rng)
        x = rng.uniform(-np.pi, np.pi, (4, 3))
        tape = layer.build_tape(x)
        got = CompiledTape(tape, 3).run(
            inputs=x, weights=layer.weights.ravel()
        )
        np.testing.assert_allclose(got, run(tape, 3, 4), atol=ATOL, rtol=0)
        out = layer.forward(x)
        assert layer._engine is not None
        np.testing.assert_allclose(
            out, expval_z(run(tape, 3, 4)), atol=ATOL, rtol=0
        )

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

    def test_expvals_match_measurements(self):
        batch = 5
        ops, n_qubits, _, _ = random_dense_tape(2, batch)
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
        batch = 1 + (seed + 3) % 6
        ops, n_qubits, x, w = random_dense_tape(100 + seed, batch)
        rng = np.random.default_rng(seed)
        wires = sorted(rng.permutation(n_qubits)[: 1 + seed % n_qubits])
        grad = rng.standard_normal((batch, len(wires)))
        final = run(ops, n_qubits, batch)
        ig_ref, wg_ref = adjoint_gradients(
            ops, final, grad, x.shape[1], w.size, measure_wires=wires
        )
        engine = CompiledTape(ops, n_qubits)
        engine.execute(inputs=x, weights=w, record=True)
        ig, wg = engine.adjoint_gradients(
            grad, x.shape[1], w.size, measure_wires=wires
        )
        np.testing.assert_allclose(ig, ig_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(wg, wg_ref, atol=ATOL, rtol=0)

    def test_cz_ring_layer(self, cz_ring_layer, rng):
        layer = cz_ring_layer(3, 2, rng=rng)
        x = rng.uniform(-np.pi, np.pi, (4, 3))
        grad = rng.standard_normal((4, 3))
        tape = layer.build_tape(x)
        ig_ref, wg_ref = adjoint_gradients(
            tape, run(tape, 3, 4), grad, 3, layer.n_weights
        )
        layer.forward(x, training=True)
        np.testing.assert_allclose(
            layer.backward(grad), ig_ref, atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            layer.grads[0].ravel(), wg_ref, atol=ATOL, rtol=0
        )

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
        """A trainable two-qubit gate is outside the compiled shape."""
        ops = [Operation("CRX", (0, 1), (0.3,), (weight_ref(0),))]
        with pytest.raises(ConfigurationError, match="CRX"):
            CompiledTape(ops, 2)


class TestValidation:
    def test_bad_wire(self):
        with pytest.raises(ShapeError):
            CompiledTape([Operation("H", (2,))], 2)

    def test_bad_batch(self):
        engine = CompiledTape(
            [Operation("RY", (0,), (0.0,), (weight_ref(0),))], 1
        )
        with pytest.raises(ShapeError):
            engine.execute(batch=0)

    def test_too_few_input_features(self):
        ops = [
            Operation("RY", (0,), (0.0,), (input_ref(3),)),
            Operation("RY", (0,), (0.0,), (weight_ref(0),)),
        ]
        engine = CompiledTape(ops, 1)
        with pytest.raises(ShapeError):
            engine.execute(inputs=np.zeros((2, 2)))

    def test_too_few_weights(self):
        ops = [Operation("RY", (0,), (0.0,), (weight_ref(5),))]
        engine = CompiledTape(ops, 1)
        with pytest.raises(ShapeError):
            engine.execute(weights=np.zeros(3), batch=1)

    def test_baked_batch_conflict(self, rng):
        # A (B,)-shaped encoding default is the batch of an execute
        # without an inputs binding.
        ops = [
            Operation("RY", (0,), (rng.uniform(size=4),), (input_ref(0),)),
            Operation("RY", (0,), (0.5,), (weight_ref(0),)),
        ]
        engine = CompiledTape(ops, 1)
        assert engine.run().shape[0] == 4
        with pytest.raises(ShapeError):
            engine.execute(batch=3)

    def test_buffer_pools_bounded(self, rng):
        x = rng.uniform(-1, 1, (3, 2))
        tape = angle_embedding(x, 2) + basic_entangler_layers(
            random_bel_weights(1, 2, rng), 2
        )
        engine = CompiledTape(tape, 2)
        for batch in range(1, 12):
            engine.execute(inputs=rng.uniform(-1, 1, (batch, 2)))
        assert len(engine._pools) <= 4

    def test_grad_shape_checked(self, rng):
        x = rng.uniform(-1, 1, (3, 2))
        w = random_bel_weights(1, 2, rng)
        tape = angle_embedding(x, 2) + basic_entangler_layers(w, 2)
        engine = CompiledTape(tape, 2)
        engine.execute(record=True)
        with pytest.raises(ShapeError):
            engine.adjoint_gradients(np.ones((3, 5)), 2, 1)


class TestDenseDispatch:
    """The engine compiles exactly its tape shape; every other tape
    raises at construction, and a :class:`QuantumLayer` built on it runs
    the reference executor instead, still matching the reference
    gradients."""

    @staticmethod
    def _variant(name, rng, x=None, w=None, batch=4):
        """``(tape, x, w, n_qubits)`` of a two-layer SEL tape that one
        change (``name``) takes outside the compiled shape; ``x`` and
        ``w`` are drawn unless given."""
        n_qubits = 6 if name == "six-qubits" else 3
        if x is None:
            x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        if w is None:
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
        if name == "constant-angle":
            second[0].refs = (None,) + second[0].refs[1:]
        extra = {
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
            "static-2q",
            "input-after-weight",
            "six-qubits",
            "shared-input",
            "shared-weight",
            "constant-angle",
        ],
    )
    def test_other_tapes_fall_back_to_reference(self, name, rng):
        tape, x, w, n_qubits = self._variant(name, rng)
        with pytest.raises(ConfigurationError):
            CompiledTape(tape, n_qubits)

        variant = self._variant

        class VariantLayer(QuantumLayer):
            def build_tape(self, xx):
                return variant(name, rng, xx, self.weights)[0]

        layer = VariantLayer(n_qubits, 2, rng=rng)
        layer.weights[...] = w
        batch = x.shape[0]
        out = layer.forward(x, training=True)
        assert layer._engine is None and layer._engine_disabled
        final = run(tape, n_qubits, batch)
        np.testing.assert_allclose(out, expval_z(final), atol=ATOL, rtol=0)
        grad = rng.standard_normal((batch, n_qubits))
        ig_ref, wg_ref = adjoint_gradients(tape, final, grad, n_qubits, w.size)
        np.testing.assert_allclose(
            layer.backward(grad), ig_ref, atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            layer.grads[0].ravel(), wg_ref, atol=ATOL, rtol=0
        )

    @pytest.mark.parametrize(
        "ops,culprit",
        [
            ([Operation("H", (0,))], "H on wires (0,)"),
            (
                [
                    Operation("RY", (0,), (0.1,), (weight_ref(0),)),
                    Operation("RX", (1,), (0.2,), (weight_ref(1),)),
                ],
                "RX on wires (1,) (operation 1)",
            ),
            (
                [Operation("RY", (0,), (0.1,), (weight_ref(0),))],
                "the end of the tape",
            ),
            ([], "the end of the tape"),
        ],
    )
    def test_error_names_the_misfit(self, ops, culprit):
        with pytest.raises(ConfigurationError) as err:
            CompiledTape(ops, 2)
        assert str(err.value).startswith(culprit)

    @pytest.mark.parametrize("ring", [["CZ"], ["SWAP", "CZ", "CNOT"]])
    def test_signed_rings_compile(self, ring, rng):
        """CZ folds into a layer's ring as a sign flip; a ring of
        CNOTs alone negates nothing."""
        x = rng.uniform(-np.pi, np.pi, (4, 3))
        w = random_bel_weights(2, 3, rng)
        tape = angle_embedding(x, 3)
        for layer in range(2):
            tape += [
                Operation(
                    "RY", (q,), (w[layer, q],), (weight_ref(3 * layer + q),)
                )
                for q in range(3)
            ]
            tape += [
                Operation(name, (k % 3, (k + 1) % 3))
                for k, name in enumerate(ring)
            ]
        engine = CompiledTape(tape, 3)
        assert engine._plan.flips.size
        np.testing.assert_allclose(
            engine.run(inputs=x, weights=w.ravel()),
            run(tape, 3, 4),
            atol=ATOL,
            rtol=0,
        )
        bel = angle_embedding(x, 3) + basic_entangler_layers(w, 3)
        assert not CompiledTape(bel, 3)._plan.flips.size


def _dense_record(engine, rows, runs):
    """:func:`dense_peak_bytes` of an adjoint step at the tape's shape."""
    plan = engine._plan
    return dense_peak_bytes(
        engine.n_qubits,
        plan.n_layers,
        plan.n_params,
        plan.enc_wires.size,
        rows,
        runs,
        "adjoint",
    )


class TestDensePeakBytes:
    """Memory governance sizes admissions with ``dense_peak_bytes``: for
    dense tapes it must cover what a recorded step really allocates."""

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
        assert _dense_record(engine, batch, runs) >= peak

    @pytest.mark.parametrize("depths", [(1, 4), (1, 2, 3, 4), (2, 10, 5)])
    @pytest.mark.parametrize("n_qubits", [3, 5])
    def test_ragged_prediction_covers_traced_peak(self, n_qubits, depths):
        """A ``depths=`` step records every run at the compiled depth:
        the padded record is what ``dense_peak_bytes`` must cover."""
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
        assert _dense_record(engine, runs * batch, runs) >= peak


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
        assert a is not b and a._plan is not b._plan

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
        assert a._plan is b._plan  # compiled plan shared
        assert a._pools is not b._pools  # execution state per instance
        info = compile_cache_info()
        assert info["enabled"] and info["hits"] == 1 and info["misses"] == 1

    def test_list_refs_hash(self, rng):
        """A tape built with refs and wires as lists compiles through the
        cache and hits the entry of its tuple-built twin."""
        from repro.quantum import (
            compile_cache_info,
            compiled_tape,
            enable_compile_cache,
        )

        enable_compile_cache()
        tape = self._sel_tape(rng)
        listed = [
            Operation(op.name, list(op.wires), op.params, list(op.refs))
            for op in tape
        ]
        a = compiled_tape(tape, 3)
        b = compiled_tape(listed, 3)
        assert a._plan is b._plan
        info = compile_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

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
        from repro.quantum import (
            compile_cache_info,
            compiled_tape,
            enable_compile_cache,
        )

        enable_compile_cache()
        sel = compiled_tape(self._sel_tape(rng), 3)
        x = rng.uniform(-1, 1, (4, 3))
        bel_tape = angle_embedding(x, 3) + basic_entangler_layers(
            random_bel_weights(2, 3, rng), 3
        )
        assert compiled_tape(bel_tape, 3)._plan is not sel._plan
        # A tape outside the compiled shape raises on every call and is
        # never cached.
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                compiled_tape([Operation("RY", (0,), (0.1,))], 1)
        assert compile_cache_info()["size"] == 2

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
                [Operation("RY", (0,), (0.5,), (weight_ref(angle_index),))],
                1,
            )
        assert len(engine_mod._COMPILE_CACHE) <= 2
