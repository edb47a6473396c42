"""The simulator's NumPy contract: dtypes and the exact expressions.

The engine, the gates and the stacked layers call NumPy directly, and
every pinned result (search digests, golden journal keys) is a
bit-exact NumPy result.  These tests pin what that depends on: every
buffer is ``complex128``/``float64``, probabilities are the exact
``z.real**2 + z.imag**2`` (not ``abs(z)**2``, which rounds
differently), each run's expectations are one ``(B, dim)`` gemm, and a
compiled tape is a pure function of its inputs.
"""

import numpy as np
import pytest

from repro.quantum import (
    GATE_SET,
    CompiledTape,
    angle_embedding,
    random_sel_weights,
    strongly_entangling_layers,
)
from repro.quantum.gates import COMPLEX_DTYPE, REAL_DTYPE

WIDTHS = [1, 2, 3, 4, 5]
BATCH = 6

MATRIX_GATES = sorted(
    name for name, info in GATE_SET.items() if info.matrix_fn is not None
)
DERIV_GATES = sorted(
    name for name, info in GATE_SET.items() if info.deriv_fn is not None
)


def _sel_case(n_qubits: int, batch: int = BATCH, depth: int = 2):
    rng = np.random.default_rng((21, n_qubits, batch))
    x = rng.uniform(-1, 1, (batch, n_qubits))
    w = random_sel_weights(depth, n_qubits, rng)
    tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
        w, n_qubits
    )
    grad = rng.standard_normal((batch, n_qubits))
    return tape, x, w, grad


def _z_signs(n_qubits: int) -> np.ndarray:
    """``(n, 2**n)`` Z eigenvalues per wire; wire 0 is the most
    significant bit of the basis index."""
    index = np.arange(2**n_qubits)
    bits = (index[None, :] >> (n_qubits - 1 - np.arange(n_qubits))[:, None]) & 1
    return (1.0 - 2.0 * bits).astype(REAL_DTYPE)


def _angles(n_params: int) -> list:
    rng = np.random.default_rng(n_params)
    return [float(a) for a in rng.uniform(-np.pi, np.pi, n_params)]


class TestDtypes:
    def test_constants(self):
        assert COMPLEX_DTYPE is np.complex128
        assert REAL_DTYPE is np.float64

    @pytest.mark.parametrize("name", MATRIX_GATES)
    def test_gate_matrices_are_complex(self, name):
        info = GATE_SET[name]
        mat = np.asarray(info.matrix_fn(*_angles(info.n_params)))
        assert mat.dtype == COMPLEX_DTYPE
        assert mat.shape[-2:] == (2**info.n_wires, 2**info.n_wires)

    @pytest.mark.parametrize("name", DERIV_GATES)
    def test_gate_derivatives_are_complex(self, name):
        info = GATE_SET[name]
        derivs = info.deriv_fn(*_angles(info.n_params))
        if not isinstance(derivs, tuple):
            derivs = (derivs,)
        assert len(derivs) == info.n_params
        for d in derivs:
            assert np.asarray(d).dtype == COMPLEX_DTYPE

    @pytest.mark.parametrize("n_qubits", WIDTHS)
    def test_execute_returns_complex_states(self, n_qubits):
        tape, x, w, _ = _sel_case(n_qubits)
        state = CompiledTape(tape, n_qubits).execute(x, w.ravel())
        assert state.dtype == COMPLEX_DTYPE
        assert state.shape == (BATCH, 2**n_qubits)
        assert state.flags.c_contiguous

    @pytest.mark.parametrize("n_qubits", WIDTHS)
    def test_expvals_and_gradients_are_real(self, n_qubits):
        tape, x, w, grad = _sel_case(n_qubits)
        engine = CompiledTape(tape, n_qubits)
        engine.execute(x, w.ravel(), record=True)
        assert engine.expvals().dtype == REAL_DTYPE
        input_grads, weight_grads = engine.adjoint_gradients(
            grad, n_qubits, w.size
        )
        assert input_grads.dtype == REAL_DTYPE
        assert weight_grads.dtype == REAL_DTYPE
        assert input_grads.shape == (BATCH, n_qubits)
        assert weight_grads.shape == (w.size,)


class TestExactExpressions:
    @pytest.mark.parametrize("n_qubits", WIDTHS)
    def test_probabilities_are_real_squared_plus_imag_squared(self, n_qubits):
        tape, x, w, _ = _sel_case(n_qubits)
        engine = CompiledTape(tape, n_qubits)
        state = engine.execute(x, w.ravel()).copy()
        probs = state.real**2 + state.imag**2
        want = np.matmul(probs, _z_signs(n_qubits).T)
        np.testing.assert_array_equal(engine.expvals(state), want)

    @pytest.mark.parametrize("runs", [2, 3, 5])
    def test_each_run_is_one_gemm(self, runs):
        """A run-stacked contraction is bit-equal to one ``(B, dim)``
        gemm per run, whatever else shares its block."""
        n_qubits = 4
        tape, x, w, _ = _sel_case(n_qubits, batch=runs * BATCH)
        weights = np.random.default_rng(runs).standard_normal((runs, w.size))
        engine = CompiledTape(tape, n_qubits)
        state = engine.execute(x, weights, runs=runs).copy()
        signs = _z_signs(n_qubits)
        got = engine.expvals(state, runs=runs)
        for r in range(runs):
            rows = slice(r * BATCH, (r + 1) * BATCH)
            z = state[rows]
            want = np.matmul(z.real**2 + z.imag**2, signs.T)
            np.testing.assert_array_equal(got[rows], want)


class TestDeterminism:
    """A compiled tape is a pure function of its bindings: re-running
    it, or running a clone, reproduces every bit."""

    @pytest.mark.parametrize("n_qubits", [2, 3, 5])
    def test_repeat_and_clone_are_bit_identical(self, n_qubits):
        tape, x, w, grad = _sel_case(n_qubits)
        engine = CompiledTape(tape, n_qubits)
        results = []
        for candidate in (engine, engine, engine.clone()):
            state = candidate.execute(x, w.ravel(), record=True).copy()
            grads = candidate.adjoint_gradients(grad, n_qubits, w.size)
            results.append((state, *grads))
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                np.testing.assert_array_equal(got, want)
