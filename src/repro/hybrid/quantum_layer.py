"""The quantum layer: a Keras-style layer backed by the statevector
simulator.

This is our replacement for PennyLane's ``qml.qnn.KerasLayer`` (which the
paper uses to embed QNodes into TensorFlow models).  The layer maps a
``(B, n_qubits)`` activation to ``(B, n_qubits)`` Pauli-Z expectation
values:

    angle embedding (RY per qubit) -> BEL or SEL ansatz -> per-wire <Z>.

Backward uses adjoint differentiation by default (exact, cheap).  The
parameter-shift rule is an alternative backend that runs on the
reference executor (:func:`repro.quantum.circuit.run` with
:func:`~repro.quantum.parameter_shift.parameter_shift_gradients`); the
paper needs it only as a hardware-realistic cost model, which
:mod:`repro.flops` prices by formula.

An adjoint layer executes through the compiled engine
(:class:`repro.quantum.engine.CompiledTape`): the circuit structure from
``build_tape`` is compiled once on the first forward pass, and every
subsequent call only rebinds the per-batch encoding angles and the
current trainable weights into the compiled parameter slots.  Subclasses
that override ``build_tape`` get compiled automatically when their tape
has the engine's shape (a product encoding, then layers of one weight
gate per wire and a CNOT/SWAP/CZ ring, at most five qubits); any other
tape raises :class:`~repro.exceptions.ConfigurationError` at compile
time, and the layer then runs on the reference executor with the
reference adjoint, which stays the semantics oracle.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..nn.layers import Layer
from ..nn.stacked import StackedLayer, register_stacker
from ..quantum.adjoint import adjoint_gradients
from ..quantum.circuit import Operation, run
from ..quantum.engine import CompiledTape, compiled_tape
from ..quantum.measurements import expval_z
from ..quantum.parameter_shift import parameter_shift_gradients
from ..quantum.templates import (
    angle_embedding,
    basic_entangler_layers,
    bel_param_count,
    random_bel_weights,
    random_sel_weights,
    sel_param_count,
    strongly_entangling_layers,
)

__all__ = [
    "QuantumLayer",
    "StackedQuantumLayer",
    "ANSATZE",
    "GRADIENT_METHODS",
]

ANSATZE = ("bel", "sel")
GRADIENT_METHODS = ("adjoint", "parameter_shift")


class QuantumLayer(Layer):
    """Angle-encoded variational quantum circuit as a neural layer.

    Parameters
    ----------
    n_qubits:
        Width of the register; also the layer's input and output
        dimension (one encoded feature and one measured wire per qubit).
    n_layers:
        Ansatz depth (repetitions of the entangling block).
    ansatz:
        ``"bel"`` (Basic Entangling Layer, one RY per qubit + CNOT ring)
        or ``"sel"`` (Strongly Entangling Layer, full ``Rot`` per qubit +
        cycling-range CNOT ring), per the paper's Fig. 5.
    rotation:
        Axis for the encoding rotations and BEL rotations (paper: Y).
    gradient_method:
        ``"adjoint"`` (default) or ``"parameter_shift"``.
    """

    def __init__(
        self,
        n_qubits: int,
        n_layers: int,
        ansatz: str = "sel",
        rotation: str = "Y",
        gradient_method: str = "adjoint",
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name or f"quantum_{ansatz}")
        if n_qubits < 1:
            raise ConfigurationError(f"n_qubits must be >= 1, got {n_qubits}")
        if n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {n_layers}")
        ansatz = ansatz.lower()
        if ansatz not in ANSATZE:
            raise ConfigurationError(
                f"ansatz must be one of {ANSATZE}, got {ansatz!r}"
            )
        if gradient_method not in GRADIENT_METHODS:
            raise ConfigurationError(
                f"gradient_method must be one of {GRADIENT_METHODS}, "
                f"got {gradient_method!r}"
            )
        self.n_qubits = n_qubits
        self.n_layers = n_layers
        self.ansatz = ansatz
        self.rotation = rotation
        self.gradient_method = gradient_method

        rng = rng or np.random.default_rng()
        if ansatz == "bel":
            self.weights = random_bel_weights(n_layers, n_qubits, rng)
        else:
            self.weights = random_sel_weights(n_layers, n_qubits, rng)
        self.params = [self.weights]
        self.grads = [np.zeros_like(self.weights)]

        self._cache_ops: list[Operation] | None = None
        self._cache_state: np.ndarray | None = None
        self._cache_batch: int = 0
        self._engine: CompiledTape | None = None
        # Parameter shift runs on the reference executor: only adjoint
        # layers compile.
        self._engine_disabled = gradient_method != "adjoint"

    # -- tape construction -----------------------------------------------

    @property
    def n_weights(self) -> int:
        """Number of trainable circuit parameters."""
        if self.ansatz == "bel":
            return bel_param_count(self.n_layers, self.n_qubits)
        return sel_param_count(self.n_layers, self.n_qubits)

    def build_tape(self, x: np.ndarray) -> list[Operation]:
        """Encoding + ansatz tape for a batch of inputs ``(B, n_qubits)``."""
        ops = angle_embedding(x, self.n_qubits, rotation=self.rotation)
        if self.ansatz == "bel":
            ops += basic_entangler_layers(
                self.weights, self.n_qubits, rotation=self.rotation
            )
        else:
            ops += strongly_entangling_layers(self.weights, self.n_qubits)
        return ops

    def representative_tape(self) -> list[Operation]:
        """A batch-1, all-zero-input tape (for structural FLOPs analysis)."""
        return self.build_tape(np.zeros((1, self.n_qubits)))

    # -- layer interface ---------------------------------------------------

    def _compile_engine(self, x: np.ndarray) -> CompiledTape | None:
        """Compile ``build_tape`` once, or return ``None`` when the tape
        is outside the engine's shape: such a layer uses the reference
        executor for good.

        The engine rebinds every angle from ``x`` (``input`` refs) or
        the weights (``weight`` refs) on each forward, and refuses tapes
        with any other angle, so a custom ``build_tape`` that bakes data
        into an unreferenced parameter also lands on the reference path.
        """
        # compiled_tape consults the process-wide compile cache when the
        # runtime enabled it (grid-search workers retrain the same circuit
        # structures for every job); every referenced parameter is rebound
        # on each forward, which is exactly the cache's sharing contract.
        try:
            return compiled_tape(self.build_tape(x), self.n_qubits)
        except ConfigurationError:
            self._engine_disabled = True
            return None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_qubits:
            raise ShapeError(
                f"{self.name} expected (batch, {self.n_qubits}), "
                f"got {x.shape}"
            )
        if self._engine is None and not self._engine_disabled:
            self._engine = self._compile_engine(x)
        if self._engine is None:
            return self._forward_reference(x, training)
        state = self._engine.execute(
            inputs=x, weights=self.weights.reshape(-1), record=training
        )
        return self._engine.expvals(state)

    def _forward_reference(self, x: np.ndarray, training: bool) -> np.ndarray:
        ops = self.build_tape(x)
        state = run(ops, self.n_qubits, batch=x.shape[0])
        if training:
            self._cache_ops = ops
            self._cache_state = state
            self._cache_batch = x.shape[0]
        return expval_z(state)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._engine is not None:
            if not self._engine.has_record:
                raise ShapeError(
                    f"{self.name}.backward called without a training forward"
                )
            # adjoint_gradients consumes (and releases) the recorded
            # forward, so nothing pins the batch statevectors afterwards.
            input_grads, weight_grads = self._engine.adjoint_gradients(
                grad, n_inputs=self.n_qubits, n_weights=self.n_weights
            )
        else:
            input_grads, weight_grads = self._backward_reference(grad)
        self.grads[0] += weight_grads.reshape(self.weights.shape)
        return input_grads

    def _backward_reference(
        self, grad: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._cache_ops is None or self._cache_state is None:
            raise ShapeError(
                f"{self.name}.backward called without a training forward"
            )
        try:
            if self.gradient_method == "adjoint":
                return adjoint_gradients(
                    self._cache_ops,
                    self._cache_state,
                    grad,
                    n_inputs=self.n_qubits,
                    n_weights=self.n_weights,
                )
            return parameter_shift_gradients(
                self._cache_ops,
                self.n_qubits,
                self._cache_batch,
                grad,
                n_inputs=self.n_qubits,
                n_weights=self.n_weights,
            )
        finally:
            # Release the forward cache so long grid-search runs do not
            # pin the largest batch statevector between steps.
            self._cache_ops = None
            self._cache_state = None

    def output_dim(self, input_dim: int) -> int:
        if input_dim != self.n_qubits:
            raise ShapeError(
                f"{self.name} expects {self.n_qubits} inputs, got {input_dim}"
            )
        return self.n_qubits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumLayer(qubits={self.n_qubits}, layers={self.n_layers}, "
            f"ansatz={self.ansatz!r}, params={self.param_count})"
        )


class StackedQuantumLayer(StackedLayer):
    """R :class:`QuantumLayer` instances that differ at most in depth,
    as one stack.

    Drives the engine's run-stacked path: one compiled tape executes all
    R runs' forward (and adjoint backward) passes over a fused run-major
    ``(R * B, n_qubits)`` batch, with per-run ``(R, n_weights)`` weight
    bindings and per-run weight gradients.  The engine kernels are
    bit-identical to R independent executions
    (``tests/quantum/test_engine_stacked.py``), which is what lets
    run-stacked searches reproduce per-run results exactly.

    ``engine`` is compiled from the deepest layer's tape (see
    :func:`_stack_quantum_layers`).  Layers of different depths share
    it: each run's weight row is zero-padded past its own
    weights and ``depths`` makes the engine pass its state through the
    layers past its depth, exactly as the run's own tape would.  Padded
    weights get zero gradients, so Adam leaves them at zero.

    Built by :func:`repro.nn.stacked.stack_candidates` via the
    registered stacker; only adjoint-differentiated layers whose tapes compile
    stack (anything else falls back to scalar training).
    """

    def __init__(
        self,
        runs: int,
        layers: "list[QuantumLayer]",
        engine: CompiledTape,
    ) -> None:
        deepest = max(layers, key=lambda lay: lay.n_layers)
        super().__init__(runs, name=f"stacked_{deepest.name}")
        self.n_qubits = deepest.n_qubits
        self.n_weights = deepest.n_weights
        weights = np.zeros((runs, self.n_weights))
        for r, lay in enumerate(layers):
            weights[r, : lay.n_weights] = lay.weights.reshape(-1)
        self.weights = weights
        self.params = [self.weights]
        self.grads = [np.zeros_like(self.weights)]
        #: Per-run ansatz depths, or ``None`` when every run has the
        #: compiled depth (the plain run-stacked execute).
        depths = np.array([lay.n_layers for lay in layers])
        self.depths = None if np.all(depths == deepest.n_layers) else depths
        self._engine = engine

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if (
            x.ndim != 2
            or x.shape[1] != self.n_qubits
            or x.shape[0] % self.runs
        ):
            raise ShapeError(
                f"{self.name} expected (runs*batch, {self.n_qubits}), "
                f"got {x.shape} for runs={self.runs}"
            )
        state = self._engine.execute(
            inputs=x,
            weights=self.weights,
            runs=self.runs,
            record=training,
            depths=self.depths,
        )
        return self._engine.expvals(state, runs=self.runs)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._engine.has_record:
            raise ShapeError(
                f"{self.name}.backward called without a training forward"
            )
        input_grads, weight_grads = self._engine.adjoint_gradients(
            grad, n_inputs=self.n_qubits, n_weights=self.n_weights
        )
        self.grads[0] += weight_grads
        return input_grads

    def bind(self, params, grads) -> None:
        super().bind(params, grads)
        self.weights = params[0]

    def sync_to_layers(self, layers) -> None:
        for r, lay in enumerate(layers):
            own = self.weights[r, : lay.n_weights]
            lay.weights[...] = own.reshape(lay.weights.shape)

    def compact(self, keep) -> None:
        """Drop frozen runs' weight rows (and depths); the compiled
        engine adapts to the smaller run-major batch on the next execute
        (its per-run kernels are bit-identical for any slice count)."""
        super().compact(keep)
        if self.depths is not None:
            self.depths = self.depths[keep]
        self.bind([self.weights[keep]], [g[keep] for g in self.grads])


def _stack_quantum_layers(runs, layers):
    """Stacker for exact :class:`QuantumLayer` instances (see
    :func:`repro.nn.stacked.register_stacker`).

    The layers must agree on everything but depth, and the deepest
    layer's tape must compile.  Different depths stack only when every
    shallower tape is a layer prefix of the deepest
    (:meth:`CompiledTape.is_layer_prefix`), so the engine's per-run
    ``depths`` reproduce each layer's own circuit.

    Returns ``None`` (scalar fallback) for parameter-shift layers, for
    mismatched structures, and for tapes outside the engine's shape
    (the layers then run on the reference executor one by one).
    """
    first = layers[0]
    for lay in layers:
        if (
            lay.gradient_method != "adjoint"
            or lay.n_qubits != first.n_qubits
            or lay.ansatz != first.ansatz
            or lay.rotation != first.rotation
        ):
            return None
    deepest = max(layers, key=lambda lay: lay.n_layers)
    try:
        engine = compiled_tape(deepest.representative_tape(), deepest.n_qubits)
        for depth in {lay.n_layers for lay in layers} - {deepest.n_layers}:
            shallow = next(lay for lay in layers if lay.n_layers == depth)
            prefix = compiled_tape(
                shallow.representative_tape(), first.n_qubits
            )
            if not prefix.is_layer_prefix(engine):
                return None
    except ConfigurationError:
        return None
    return StackedQuantumLayer(runs, layers, engine)


register_stacker(QuantumLayer, _stack_quantum_layers)
