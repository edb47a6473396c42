"""Micro-benchmarks of the substrates: statevector simulation, gradient
backends, classical layers, dataset generation and FLOPs profiling.

These are the building blocks whose cost dominates the paper's protocol;
tracking them catches performance regressions in the simulator.
"""

import numpy as np
import pytest

from repro.data import make_spiral
from repro.flops import profile_model
from repro.hybrid import QuantumLayer, build_classical_model, build_hybrid_model
from repro.nn import Adam, CrossEntropy, Dense
from repro.quantum import (
    CompiledTape,
    adjoint_gradients,
    angle_embedding,
    apply_single_qubit,
    expval_z,
    gates,
    parameter_shift_gradients,
    random_sel_weights,
    run,
    strongly_entangling_layers,
    zero_state,
)

RNG = np.random.default_rng(0)


class TestStatevector:
    def test_single_qubit_gate_batch256_5q(self, benchmark):
        state = zero_state(5, batch=256)
        mat = gates.rot(0.3, 0.9, -0.2)
        benchmark(apply_single_qubit, state, mat, 2)

    def test_sel_circuit_forward_batch64_4q(self, benchmark):
        x = RNG.uniform(-1, 1, (64, 4))
        w = random_sel_weights(2, 4, RNG)
        tape = angle_embedding(x, 4) + strongly_entangling_layers(w, 4)
        benchmark(run, tape, 4, 64)

    def test_expval_batch64_4q(self, benchmark):
        x = RNG.uniform(-1, 1, (64, 4))
        tape = angle_embedding(x, 4)
        state = run(tape, 4, 64)
        benchmark(expval_z, state)


class TestCompiledEngine:
    """The compiled engine against the reference executor on the same
    workloads — the acceptance numbers for the compile-once/execute-many
    engine (expect >= 2x on the SEL forward)."""

    def test_sel_compiled_forward_batch64_4q(self, benchmark):
        x = RNG.uniform(-1, 1, (64, 4))
        w = random_sel_weights(2, 4, RNG)
        tape = angle_embedding(x, 4) + strongly_entangling_layers(w, 4)
        engine = CompiledTape(tape, 4)
        flat = w.ravel()
        benchmark(engine.execute, x, flat)

    def test_sel_compiled_adjoint_batch32_3q(self, benchmark):
        """Forward (recorded) + compiled adjoint sweep per round, which is
        exactly one training step's quantum cost."""
        n_qubits, batch = 3, 32
        x = RNG.uniform(-1, 1, (batch, n_qubits))
        w = random_sel_weights(2, n_qubits, RNG)
        tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
            w, n_qubits
        )
        engine = CompiledTape(tape, n_qubits)
        flat = w.ravel()
        grad = RNG.standard_normal((batch, n_qubits))

        def step():
            engine.execute(inputs=x, weights=flat, record=True)
            return engine.adjoint_gradients(grad, n_qubits, w.size)

        benchmark(step)


class TestGradientBackends:
    @pytest.fixture()
    def sel_case(self):
        n_qubits, batch = 3, 32
        x = RNG.uniform(-1, 1, (batch, n_qubits))
        w = random_sel_weights(2, n_qubits, RNG)
        tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
            w, n_qubits
        )
        final = run(tape, n_qubits, batch)
        grad = RNG.standard_normal((batch, n_qubits))
        return tape, final, grad, n_qubits, batch, w.size

    def test_adjoint_backward(self, benchmark, sel_case):
        tape, final, grad, n_qubits, _, n_weights = sel_case
        benchmark(
            adjoint_gradients, tape, final, grad, n_qubits, n_weights
        )

    def test_parameter_shift_backward(self, benchmark, sel_case):
        """The hardware-style gradient: 2 executions per parameter —
        expect roughly an order of magnitude slower than adjoint."""
        tape, _, grad, n_qubits, batch, n_weights = sel_case
        benchmark(
            parameter_shift_gradients,
            tape,
            n_qubits,
            batch,
            grad,
            n_qubits,
            n_weights,
        )


class TestClassicalLayers:
    def test_dense_forward_110x10(self, benchmark):
        layer = Dense(110, 10, rng=RNG)
        x = RNG.standard_normal((256, 110))
        benchmark(layer.forward, x)

    def test_dense_backward(self, benchmark):
        layer = Dense(110, 10, rng=RNG)
        x = RNG.standard_normal((256, 110))
        g = RNG.standard_normal((256, 10))
        layer.forward(x, training=True)

        def step():
            layer.zero_grads()
            layer.backward(g)

        benchmark(step)


class TestTrainingSteps:
    @staticmethod
    def _one_epoch(model, x, y):
        loss = CrossEntropy()
        optimizer = Adam()
        for start in range(0, x.shape[0], 8):
            xb, yb = x[start : start + 8], y[start : start + 8]
            model.zero_grads()
            out = model.forward(xb, training=True)
            model.backward(loss.gradient(out, yb))
            optimizer.step(model.parameters(), model.gradients())

    def test_classical_epoch_10features(self, benchmark):
        x = RNG.standard_normal((120, 10))
        y = np.eye(3)[RNG.integers(3, size=120)]
        model = build_classical_model(10, (6,), rng=RNG)
        benchmark(self._one_epoch, model, x, y)

    def test_hybrid_sel_epoch_10features(self, benchmark):
        """The paper's key cost: simulating the quantum layer during
        training (the 'simulation overhead' of section I)."""
        x = RNG.standard_normal((120, 10))
        y = np.eye(3)[RNG.integers(3, size=120)]
        model = build_hybrid_model(10, 3, 2, ansatz="sel", rng=RNG)
        benchmark(self._one_epoch, model, x, y)


class TestDataAndProfiling:
    def test_spiral_generation_110_features(self, benchmark):
        benchmark(make_spiral, 110, n_points=1500, seed=1)

    def test_flops_profile_hybrid(self, benchmark):
        model = build_hybrid_model(110, 4, 4, ansatz="bel", rng=RNG)
        benchmark(profile_model, model)

    def test_quantum_layer_forward_scaling_5q(self, benchmark):
        layer = QuantumLayer(5, 10, ansatz="sel", rng=RNG)
        x = RNG.uniform(-1, 1, (64, 5))
        benchmark(layer.forward, x)
