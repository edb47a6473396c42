"""The TorchBackend adapter exercised over the NumPy-backed torch stub.

Real torch is optional (covered by ``test_torch_differential.py`` in
the CI torch job); these tests keep the adapter's tensor round-trips,
``out=`` emulation and the engine/stacked-path device plumbing covered
on every machine.  Because the stub computes with NumPy underneath, the
"device" results here are *bit*-equal to the reference — any deviation
is an adapter bug, not kernel rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend, use_backend
from repro.core.search_space import HybridSpec
from repro.data import make_spiral, stratified_split
from repro.quantum import (
    CompiledTape,
    angle_embedding,
    random_sel_weights,
    strongly_entangling_layers,
)
from repro.runtime.jobs import execute_runs

N_QUBITS = 3
BATCH = 8


def _sel_case():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, (BATCH, N_QUBITS))
    w = random_sel_weights(2, N_QUBITS, rng)
    tape = angle_embedding(x, N_QUBITS) + strongly_entangling_layers(
        w, N_QUBITS
    )
    grad = rng.standard_normal((BATCH, N_QUBITS))
    return tape, x, w, grad


class TestAdapterOverStub:
    def test_backend_constructs_on_cpu(self, torch_stub):
        xp = get_backend("torch")
        assert xp.name == "torch"
        assert not xp.is_numpy
        assert xp.device.type == "cpu"
        xp.synchronize()

    def test_round_trip_and_allocation(self, torch_stub):
        xp = get_backend("torch")
        host = np.arange(6.0).reshape(2, 3)
        dev = xp.asarray(host)
        assert isinstance(dev, torch_stub.Tensor)
        np.testing.assert_array_equal(xp.to_numpy(dev), host)
        assert xp.empty((2, 2), dtype=xp.complex_dtype).dtype == np.complex128
        # negative-stride views must upload cleanly (torch rejects them
        # without the adapter's ascontiguousarray normalization)
        np.testing.assert_array_equal(
            xp.to_numpy(xp.asarray(host[:, ::-1])), host[:, ::-1]
        )

    def test_out_parameter_emulation(self, torch_stub):
        xp = get_backend("torch")
        a = xp.asarray(np.random.default_rng(3).standard_normal((4, 4)))
        out = xp.empty((4, 4))
        xp.matmul(a, a, out=out)
        np.testing.assert_allclose(
            xp.to_numpy(out), xp.to_numpy(a) @ xp.to_numpy(a)
        )
        out2 = xp.empty((4, 4))
        xp.einsum("ij,jk->ik", a, a, out=out2)
        np.testing.assert_allclose(xp.to_numpy(out2), xp.to_numpy(out))
        gathered = xp.empty((4, 2))
        xp.take(a, xp.index_const(np.array([3, 1])), gathered)
        np.testing.assert_array_equal(
            xp.to_numpy(gathered), xp.to_numpy(a)[:, [3, 1]]
        )


class TestEngineOverStub:
    def test_forward_matches_numpy(self, torch_stub):
        tape, x, w, _ = _sel_case()
        dev = CompiledTape(tape, N_QUBITS, backend=get_backend("torch"))
        ref = CompiledTape(tape, N_QUBITS)
        got = dev.backend.to_numpy(dev.execute(x, w.ravel()))
        np.testing.assert_array_equal(got, ref.execute(x, w.ravel()))

    def test_expvals_match_numpy(self, torch_stub):
        tape, x, w, _ = _sel_case()
        dev = CompiledTape(tape, N_QUBITS, backend=get_backend("torch"))
        ref = CompiledTape(tape, N_QUBITS)
        got = dev.backend.to_numpy(dev.expvals(dev.execute(x, w.ravel())))
        np.testing.assert_array_equal(
            got, ref.expvals(ref.execute(x, w.ravel()))
        )

    def test_adjoint_gradients_match_numpy(self, torch_stub):
        tape, x, w, grad = _sel_case()
        dev = CompiledTape(tape, N_QUBITS, backend=get_backend("torch"))
        ref = CompiledTape(tape, N_QUBITS)
        dev.execute(x, w.ravel(), record=True)
        ref.execute(x, w.ravel(), record=True)
        got_in, got_w = dev.adjoint_gradients(grad, N_QUBITS, w.size)
        want_in, want_w = ref.adjoint_gradients(grad, N_QUBITS, w.size)
        np.testing.assert_array_equal(
            dev.backend.to_numpy(got_in), want_in
        )
        np.testing.assert_array_equal(dev.backend.to_numpy(got_w), want_w)


class TestStackedSweepOverStub:
    def test_run_stacked_training_matches_numpy(self, torch_stub):
        """The full fused path (execute_runs -> train_stack kernels) on
        the stub backend reproduces the NumPy metrics exactly."""
        split = stratified_split(make_spiral(4, n_points=60, seed=9), seed=9)
        spec = HybridSpec(n_features=4, n_qubits=3, n_layers=2, ansatz="sel")
        from repro.core.grid_search import TrainingSettings

        def sweep(backend):
            return execute_runs(
                spec,
                seed=9,
                candidate_index=0,
                runs=[0, 1],
                split=split,
                settings=TrainingSettings(
                    epochs=2, batch_size=8, runs=2, backend=backend
                ),
            )

        got = sweep("torch")
        want = sweep(None)
        assert [r.train_accuracy for r in got] == [
            r.train_accuracy for r in want
        ]
        assert [r.val_accuracy for r in got] == [
            r.val_accuracy for r in want
        ]
        assert [r.epochs_run for r in got] == [r.epochs_run for r in want]

    def test_use_backend_scopes_stacked_layers(self, torch_stub):
        from repro.nn.stacked import StackedDense
        from repro.nn.layers import Dense

        rng = np.random.default_rng(2)
        layers = [Dense(4, 3, rng=rng) for _ in range(2)]
        with use_backend(get_backend("torch")):
            stacked = StackedDense(2, layers)
        assert isinstance(stacked.weight, torch_stub.Tensor)
        x = rng.standard_normal((2 * 5, 4))
        out = stacked._xp.to_numpy(stacked.forward(x))
        ref = np.concatenate(
            [layer.forward(x[i * 5 : (i + 1) * 5]) for i, layer in enumerate(layers)]
        )
        np.testing.assert_array_equal(out, ref)


class TestRaggedDepthOverStub:
    """Quantum layers that differ only in depth share one padded stack;
    the identity layers and the zeroed padded gradients must behave the
    same on the device backend as on NumPy."""

    def test_depths_execute_and_adjoint_match_numpy(self, torch_stub):
        rng = np.random.default_rng(33)
        depths = np.array([2, 2, 1, 1, 3, 3])
        w = random_sel_weights(3, N_QUBITS, rng)
        tape = angle_embedding(np.zeros((1, N_QUBITS)), N_QUBITS)
        tape += strongly_entangling_layers(w, N_QUBITS)
        weights = rng.standard_normal((depths.size, w.size))
        weights[np.arange(w.size) >= 9 * depths[:, None]] = 0.0
        x = rng.uniform(-1, 1, (depths.size * BATCH, N_QUBITS))
        grad = rng.standard_normal(x.shape)
        results = []
        for engine in (
            CompiledTape(tape, N_QUBITS, backend=get_backend("torch")),
            CompiledTape(tape, N_QUBITS),
        ):
            xp = engine.backend
            state = xp.to_numpy(
                engine.execute(
                    x, weights, runs=depths.size, record=True, depths=depths
                )
            ).copy()
            ig, wg = engine.adjoint_gradients(grad, N_QUBITS, w.size)
            results.append((state, xp.to_numpy(ig), xp.to_numpy(wg)))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)
        assert not results[0][2][depths == 1, 9:].any()

    def test_ragged_candidate_group_matches_numpy(self, torch_stub):
        """SEL(3,1) and SEL(3,3) train as one shared head on the stub
        and reproduce the NumPy results exactly."""
        from repro.core.grid_search import TrainingSettings
        from repro.hybrid.quantum_layer import StackedQuantumLayer
        from repro.nn.stacked import stack_candidates
        from repro.runtime.jobs import execute_candidates

        split = stratified_split(make_spiral(4, n_points=60, seed=9), seed=9)
        specs = [
            HybridSpec(n_features=4, n_qubits=3, n_layers=depth)
            for depth in (1, 3)
        ]
        rng = np.random.default_rng(0)
        with use_backend(get_backend("torch")):
            stack = stack_candidates(
                [[spec.build(rng=rng) for _ in range(2)] for spec in specs]
            )
        layer = stack.head[1]
        assert isinstance(layer, StackedQuantumLayer)
        assert isinstance(layer.weights, torch_stub.Tensor)
        assert layer.depths.tolist() == [1, 1, 3, 3]

        def sweep(backend):
            return execute_candidates(
                [(spec, c, [0, 1]) for c, spec in enumerate(specs)],
                seed=9,
                split=split,
                settings=TrainingSettings(
                    epochs=2, batch_size=8, runs=2, backend=backend
                ),
            )

        got, want = sweep("torch"), sweep(None)
        for field in ("train_accuracy", "val_accuracy", "epochs_run"):
            assert [getattr(r, field) for r in got] == [
                getattr(r, field) for r in want
            ]
