"""Cross-validation of the two gradient backends against each other and
against central finite differences."""

import numpy as np
import pytest

from repro.exceptions import GateError
from repro.quantum import (
    adjoint_gradients,
    angle_embedding,
    basic_entangler_layers,
    count_shifted_executions,
    expval_z,
    parameter_shift_gradients,
    random_bel_weights,
    random_sel_weights,
    run,
    strongly_entangling_layers,
)
from repro.quantum.circuit import Operation, input_ref, weight_ref


def build_sel_tape(x, weights, n_qubits):
    return angle_embedding(x, n_qubits) + strongly_entangling_layers(
        weights, n_qubits
    )


def loss_fn(ops, n_qubits, batch, grad_out):
    return float(np.sum(grad_out * expval_z(run(ops, n_qubits, batch))))


class TestAdjointVsShift:
    @pytest.mark.parametrize("ansatz", ["bel", "sel"])
    @pytest.mark.parametrize("n_qubits,n_layers", [(2, 1), (3, 2), (4, 2)])
    def test_backends_agree(self, ansatz, n_qubits, n_layers, rng):
        batch = 3
        x = rng.uniform(-np.pi, np.pi, (batch, n_qubits))
        if ansatz == "bel":
            w = random_bel_weights(n_layers, n_qubits, rng)
            tape = angle_embedding(x, n_qubits) + basic_entangler_layers(
                w, n_qubits
            )
        else:
            w = random_sel_weights(n_layers, n_qubits, rng)
            tape = build_sel_tape(x, w, n_qubits)
        n_weights = w.size
        grad_out = rng.standard_normal((batch, n_qubits))
        final = run(tape, n_qubits, batch)
        gi_a, gw_a = adjoint_gradients(
            tape, final, grad_out, n_qubits, n_weights
        )
        gi_s, gw_s = parameter_shift_gradients(
            tape, n_qubits, batch, grad_out, n_qubits, n_weights
        )
        np.testing.assert_allclose(gi_a, gi_s, atol=1e-10)
        np.testing.assert_allclose(gw_a, gw_s, atol=1e-10)


class TestAgainstFiniteDifferences:
    def test_weight_gradients(self, rng):
        n_qubits, n_layers, batch = 3, 2, 2
        x = rng.uniform(-1, 1, (batch, n_qubits))
        w = random_sel_weights(n_layers, n_qubits, rng)
        grad_out = rng.standard_normal((batch, n_qubits))
        tape = build_sel_tape(x, w, n_qubits)
        final = run(tape, n_qubits, batch)
        _, gw = adjoint_gradients(tape, final, grad_out, n_qubits, w.size)

        eps = 1e-6
        flat = w.ravel()
        for i in range(0, flat.size, 5):  # sample every 5th parameter
            wp, wm = flat.copy(), flat.copy()
            wp[i] += eps
            wm[i] -= eps
            lp = loss_fn(
                build_sel_tape(x, wp.reshape(w.shape), n_qubits),
                n_qubits,
                batch,
                grad_out,
            )
            lm = loss_fn(
                build_sel_tape(x, wm.reshape(w.shape), n_qubits),
                n_qubits,
                batch,
                grad_out,
            )
            assert np.isclose(gw[i], (lp - lm) / (2 * eps), atol=1e-5)

    def test_input_gradients(self, rng):
        n_qubits, batch = 2, 3
        x = rng.uniform(-1, 1, (batch, n_qubits))
        w = random_bel_weights(2, n_qubits, rng)
        grad_out = rng.standard_normal((batch, n_qubits))

        def tape_of(xx):
            return angle_embedding(xx, n_qubits) + basic_entangler_layers(
                w, n_qubits
            )

        final = run(tape_of(x), n_qubits, batch)
        gi, _ = adjoint_gradients(
            tape_of(x), final, grad_out, n_qubits, w.size
        )
        eps = 1e-6
        for b in range(batch):
            for j in range(n_qubits):
                xp, xm = x.copy(), x.copy()
                xp[b, j] += eps
                xm[b, j] -= eps
                lp = loss_fn(tape_of(xp), n_qubits, batch, grad_out)
                lm = loss_fn(tape_of(xm), n_qubits, batch, grad_out)
                assert np.isclose(gi[b, j], (lp - lm) / (2 * eps), atol=1e-5)


class TestEdgeCases:
    def test_zero_grad_out_gives_zero_gradients(self, rng):
        n_qubits = 2
        x = rng.uniform(-1, 1, (2, n_qubits))
        w = random_bel_weights(1, n_qubits, rng)
        tape = angle_embedding(x, n_qubits) + basic_entangler_layers(
            w, n_qubits
        )
        final = run(tape, n_qubits, 2)
        gi, gw = adjoint_gradients(
            tape, final, np.zeros((2, n_qubits)), n_qubits, w.size
        )
        assert not gi.any() and not gw.any()

    def test_untrainable_tape(self):
        tape = [Operation("H", (0,)), Operation("CNOT", (0, 1))]
        final = run(tape, 2, 1)
        gi, gw = adjoint_gradients(tape, final, np.ones((1, 2)), 0, 0)
        assert gi.shape == (1, 0) and gw.shape == (0,)

    def test_adjoint_rejects_trainable_two_qubit(self):
        # Construct an artificial trainable two-qubit op: SWAP has no
        # params, so fake it by giving CNOT a weight ref is impossible
        # via the public API; instead check the guard directly with a
        # hand-built op bypassing __post_init__ checks.
        op = Operation("SWAP", (0, 1))
        op.refs = (weight_ref(0),)  # simulate a corrupted tape
        final = run([op], 2, 1)
        with pytest.raises(GateError):
            adjoint_gradients([op], final, np.ones((1, 2)), 0, 1)

    def test_count_shifted_executions(self):
        x = np.zeros((1, 3))
        w = np.zeros((2, 3, 3))
        tape = angle_embedding(x, 3) + strongly_entangling_layers(w, 3)
        # 3 input params + 18 weight params -> 42 executions.
        assert count_shifted_executions(tape) == 2 * (3 + 18)

    def test_measure_wire_subset(self, rng):
        """Gradients restricted to a wire subset match finite differences."""
        n_qubits, batch = 3, 2
        x = rng.uniform(-1, 1, (batch, n_qubits))
        w = random_bel_weights(1, n_qubits, rng)
        grad_out = rng.standard_normal((batch, 2))
        wires = [0, 2]

        def tape_of(xx):
            return angle_embedding(xx, n_qubits) + basic_entangler_layers(
                w, n_qubits
            )

        final = run(tape_of(x), n_qubits, batch)
        gi_a, gw_a = adjoint_gradients(
            tape_of(x), final, grad_out, n_qubits, w.size, measure_wires=wires
        )
        gi_s, gw_s = parameter_shift_gradients(
            tape_of(x),
            n_qubits,
            batch,
            grad_out,
            n_qubits,
            w.size,
            measure_wires=wires,
        )
        np.testing.assert_allclose(gi_a, gi_s, atol=1e-10)
        np.testing.assert_allclose(gw_a, gw_s, atol=1e-10)
