"""Unit tests for the QuantumLayer."""

import numpy as np
import pytest

from repro.config import HYBRID_DEPTH_OPTIONS, HYBRID_QUBIT_OPTIONS
from repro.core.experiment import ProtocolConfig, run_protocol
from repro.exceptions import ConfigurationError, ShapeError
from repro.hybrid import QuantumLayer
from repro.quantum import (
    CompiledTape,
    angle_embedding,
    basic_entangler_layers,
    expval_z,
    run,
    strongly_entangling_layers,
    tape_summary,
)


class TestConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            QuantumLayer(0, 1)
        with pytest.raises(ConfigurationError):
            QuantumLayer(2, 0)
        with pytest.raises(ConfigurationError):
            QuantumLayer(2, 1, ansatz="xyz")
        with pytest.raises(ConfigurationError):
            QuantumLayer(2, 1, gradient_method="magic")

    def test_param_counts(self, rng):
        assert QuantumLayer(3, 2, ansatz="bel", rng=rng).param_count == 6
        assert QuantumLayer(3, 2, ansatz="sel", rng=rng).param_count == 18
        assert QuantumLayer(4, 5, ansatz="sel", rng=rng).n_weights == 60

    def test_weight_shapes(self, rng):
        assert QuantumLayer(3, 2, ansatz="bel", rng=rng).weights.shape == (2, 3)
        assert QuantumLayer(3, 2, ansatz="sel", rng=rng).weights.shape == (2, 3, 3)

    def test_repr(self, rng):
        text = repr(QuantumLayer(3, 2, rng=rng))
        assert "qubits=3" in text and "sel" in text


class TestForward:
    def test_matches_direct_simulation(self, rng):
        layer = QuantumLayer(3, 2, ansatz="sel", rng=rng)
        x = rng.uniform(-1, 1, (4, 3))
        out = layer.forward(x)
        tape = angle_embedding(x, 3) + strongly_entangling_layers(
            layer.weights, 3
        )
        expected = expval_z(run(tape, 3, batch=4))
        assert np.allclose(out, expected)

    def test_bel_tape_structure(self, rng):
        layer = QuantumLayer(3, 2, ansatz="bel", rng=rng)
        counts = tape_summary(layer.representative_tape())
        # 3 encoding RY + 6 ansatz RY, 6 CNOTs
        assert counts == {"RY": 9, "CNOT": 6}

    def test_output_bounds_and_shape(self, rng):
        layer = QuantumLayer(4, 3, ansatz="bel", rng=rng)
        out = layer.forward(rng.uniform(-5, 5, (7, 4)))
        assert out.shape == (7, 4)
        assert (np.abs(out) <= 1.0 + 1e-12).all()

    def test_shape_validation(self, rng):
        layer = QuantumLayer(3, 1, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros(3))

    def test_output_dim(self, rng):
        layer = QuantumLayer(3, 1, rng=rng)
        assert layer.output_dim(3) == 3
        with pytest.raises(ShapeError):
            layer.output_dim(2)


class TestEngineFallback:
    def test_unrebindable_per_sample_params_use_reference_path(self, rng):
        """A custom tape with per-sample params but no input refs cannot
        be rebound by the engine — even when the first forward has batch
        1 — and must fall back to the reference executor."""
        from repro.quantum import Operation, expval_z, run

        class BakedLayer(QuantumLayer):
            def build_tape(self, x):
                # Data baked in WITHOUT input refs: unrebindable.
                return [
                    Operation("RY", (w,), (x[:, w],))
                    for w in range(self.n_qubits)
                ]

        layer = BakedLayer(2, 1, rng=rng)
        x1 = rng.uniform(-1, 1, (1, 2))
        out1 = layer.forward(x1)
        assert layer._engine is None and layer._engine_disabled
        expected1 = expval_z(run(layer.build_tape(x1), 2, 1))
        assert np.allclose(out1, expected1, atol=1e-12)
        # Later calls with different data/batch still track the data.
        x2 = rng.uniform(-1, 1, (4, 2))
        out2 = layer.forward(x2)
        expected2 = expval_z(run(layer.build_tape(x2), 2, 4))
        assert np.allclose(out2, expected2, atol=1e-12)
        assert not np.allclose(out2, np.broadcast_to(out1, out2.shape))


class TestProtocolStaysCompiled:
    """Every quantum layer of the paper's search space compiles, so no
    protocol run falls onto the slower reference executor unnoticed."""

    @pytest.mark.parametrize("ansatz", ["bel", "sel"])
    @pytest.mark.parametrize("n_qubits", HYBRID_QUBIT_OPTIONS)
    def test_search_space_tapes_compile(self, ansatz, n_qubits):
        for depth in HYBRID_DEPTH_OPTIONS:
            layer = QuantumLayer(
                n_qubits, depth, ansatz=ansatz, rng=np.random.default_rng(0)
            )
            CompiledTape(layer.representative_tape(), n_qubits)

    @pytest.mark.parametrize("family", ["bel", "sel"])
    def test_protocol_never_runs_reference(self, family, monkeypatch):
        def refuse(self, x, training):
            raise AssertionError(f"{self.name} ran the reference executor")

        monkeypatch.setattr(QuantumLayer, "_forward_reference", refuse)
        cfg = ProtocolConfig(
            feature_sizes=(4,),
            n_experiments=1,
            runs_per_candidate=2,
            epochs=2,
            batch_size=8,
            n_points=60,
            max_candidates=4,
            threshold=0.99,
            workers=1,
        )
        result = run_protocol(family, cfg)
        assert len(result.levels[0].outcomes[0].evaluated) == 4


class TestBackward:
    def test_requires_training_forward(self, rng):
        layer = QuantumLayer(2, 1, rng=rng)
        layer.forward(np.zeros((1, 2)))  # inference forward: no cache
        with pytest.raises(ShapeError):
            layer.backward(np.ones((1, 2)))

    @pytest.mark.parametrize("ansatz", ["bel", "sel"])
    def test_adjoint_and_shift_backends_agree(self, ansatz, rng):
        x = rng.uniform(-1, 1, (3, 3))
        grad = rng.standard_normal((3, 3))
        adj = QuantumLayer(
            3, 2, ansatz=ansatz, gradient_method="adjoint",
            rng=np.random.default_rng(5),
        )
        shf = QuantumLayer(
            3, 2, ansatz=ansatz, gradient_method="parameter_shift",
            rng=np.random.default_rng(5),
        )
        assert np.allclose(adj.weights, shf.weights)
        adj.forward(x, training=True)
        shf.forward(x, training=True)
        dx_a = adj.backward(grad)
        dx_s = shf.backward(grad)
        assert np.allclose(dx_a, dx_s, atol=1e-10)
        assert np.allclose(adj.grads[0], shf.grads[0], atol=1e-10)

    def test_eval_forward_between_training_forward_and_backward(self, rng):
        """A metric/eval forward must not corrupt the pending backward."""
        x = rng.uniform(-1, 1, (3, 2))
        g = rng.standard_normal((3, 2))
        layer = QuantumLayer(2, 2, rng=np.random.default_rng(9))
        ref = QuantumLayer(2, 2, rng=np.random.default_rng(9))
        ref.forward(x, training=True)
        dx_ref = ref.backward(g)
        layer.forward(x, training=True)
        layer.forward(rng.uniform(-1, 1, (7, 2)))  # inference pass
        dx = layer.backward(g)
        assert np.allclose(dx, dx_ref, atol=1e-12)
        assert np.allclose(layer.grads[0], ref.grads[0], atol=1e-12)

    def test_grads_accumulate(self, rng):
        layer = QuantumLayer(2, 1, rng=rng)
        x = rng.uniform(-1, 1, (2, 2))
        g = np.ones((2, 2))
        layer.forward(x, training=True)
        layer.backward(g)
        first = layer.grads[0].copy()
        layer.forward(x, training=True)
        layer.backward(g)
        assert np.allclose(layer.grads[0], 2 * first)

    def test_weight_gradient_reshaped_to_weight_shape(self, rng):
        layer = QuantumLayer(3, 2, ansatz="sel", rng=rng)
        layer.forward(rng.uniform(-1, 1, (2, 3)), training=True)
        layer.backward(np.ones((2, 3)))
        assert layer.grads[0].shape == layer.weights.shape
