"""The quantum layer: a Keras-style layer backed by the statevector
simulator.

This is our replacement for PennyLane's ``qml.qnn.KerasLayer`` (which the
paper uses to embed QNodes into TensorFlow models).  The layer maps a
``(B, n_qubits)`` activation to ``(B, n_qubits)`` Pauli-Z expectation
values:

    angle embedding (RY per qubit) -> BEL or SEL ansatz -> per-wire <Z>.

Backward uses adjoint differentiation by default (exact, cheap); the
parameter-shift rule is available as an alternative backend and as a
hardware-realistic cost model for :mod:`repro.flops`.

Execution is routed through the compiled engine
(:class:`repro.quantum.engine.CompiledTape`): the circuit structure from
``build_tape`` is compiled once on the first forward pass, and every
subsequent call only rebinds the per-batch encoding angles and the
current trainable weights into the compiled parameter slots.  Subclasses
that override ``build_tape`` get compiled automatically; tapes the engine
cannot rebind (per-sample parameters without ``input`` refs) silently
fall back to the reference executor, which stays the semantics oracle.
"""

from __future__ import annotations

import numpy as np

from ..backends import active_backend
from ..exceptions import ConfigurationError, ShapeError
from ..nn.layers import Layer
from ..nn.stacked import StackedLayer, register_stacker
from ..quantum.adjoint import adjoint_gradients
from ..quantum.circuit import Operation, run
from ..quantum.engine import CompiledTape, compiled_tape
from ..quantum.measurements import expval_z
from ..quantum.parameter_shift import (
    compiled_parameter_shift_gradients,
    parameter_shift_gradients,
)
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
        self._cache_x: np.ndarray | None = None
        self._engine: CompiledTape | None = None
        self._engine_disabled = False

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
        """Compile ``build_tape`` once, if the engine can rebind it.

        Per-sample (1-D) parameters are only rebindable through ``input``
        refs; a tape carrying any other per-sample value — including a
        batch-1 ``(1,)`` array — would go stale between batches, so such
        layers permanently use the reference executor instead.  (A
        data-dependent *scalar* parameter without a ref is
        indistinguishable from a genuine constant and cannot be detected:
        custom ``build_tape`` implementations must attach refs to, or
        keep 1-D, anything derived from ``x``.)
        """
        tape = self.build_tape(x)
        for op in tape:
            for ref, param in zip(op.refs, op.params):
                rebindable = ref is not None and ref.kind == "input"
                if param.ndim == 1 and not rebindable:
                    self._engine_disabled = True
                    return None
        # compiled_tape consults the process-wide compile cache when the
        # runtime enabled it (grid-search workers retrain the same circuit
        # structures for every job); every referenced parameter is rebound
        # on each forward, which is exactly the cache's sharing contract.
        return compiled_tape(tape, self.n_qubits)

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
        record = training and self.gradient_method == "adjoint"
        state = self._engine.execute(
            inputs=x, weights=self.weights.reshape(-1), record=record
        )
        if training and self.gradient_method == "parameter_shift":
            self._cache_x = x
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
            input_grads, weight_grads = self._backward_compiled(grad)
        else:
            input_grads, weight_grads = self._backward_reference(grad)
        self.grads[0] += weight_grads.reshape(self.weights.shape)
        return input_grads

    def _backward_compiled(
        self, grad: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.gradient_method == "adjoint":
            if not self._engine.has_record:
                raise ShapeError(
                    f"{self.name}.backward called without a training forward"
                )
            # adjoint_gradients consumes (and releases) the recorded
            # forward, so nothing pins the batch statevectors afterwards.
            return self._engine.adjoint_gradients(
                grad, n_inputs=self.n_qubits, n_weights=self.n_weights
            )
        if self._cache_x is None:
            raise ShapeError(
                f"{self.name}.backward called without a training forward"
            )
        x = self._cache_x
        self._cache_x = None
        return compiled_parameter_shift_gradients(
            self._engine,
            grad,
            n_inputs=self.n_qubits,
            n_weights=self.n_weights,
            inputs=x,
            weights=self.weights.reshape(-1),
        )

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
    ``vectorized_runs`` searches reproduce per-run results exactly.

    Layers of different depths (dense-path tapes only, see
    :func:`_stack_quantum_layers`) share one engine compiled from the
    deepest tape: each run's weight row is zero-padded past its own
    weights and ``depths`` makes the engine pass its state through the
    layers past its depth, exactly as the run's own tape would.  Padded
    weights get zero gradients, so Adam leaves them at zero.

    Built by :func:`repro.nn.stacked.stack_models` via the registered
    stacker; only adjoint-differentiated layers with engine-compilable
    tapes stack (anything else falls back to scalar training).
    """

    def __init__(
        self,
        runs: int,
        layers: "list[QuantumLayer]",
        engine: CompiledTape | None = None,
    ) -> None:
        deepest = max(layers, key=lambda lay: lay.n_layers)
        super().__init__(runs, name=f"stacked_{deepest.name}")
        # The stacked path is the explicit opt-in point for device
        # execution: the engine compiles against whatever backend is
        # active when the stack is built (scalar QuantumLayer always
        # stays on the bit-exact NumPy path).
        self._xp = active_backend()
        self.n_qubits = deepest.n_qubits
        self.n_weights = deepest.n_weights
        weights = np.zeros((runs, self.n_weights))
        for r, lay in enumerate(layers):
            weights[r, : lay.n_weights] = lay.weights.reshape(-1)
        self.weights = self._xp.asarray(weights)
        self.params = [self.weights]
        self.grads = [self._xp.zeros_like(self.weights)]
        #: Per-run ansatz depths, or ``None`` when every run has the
        #: compiled depth (the plain run-stacked execute).
        depths = np.array([lay.n_layers for lay in layers])
        self.depths = None if np.all(depths == deepest.n_layers) else depths
        self._engine: CompiledTape = engine or compiled_tape(
            deepest.representative_tape(), deepest.n_qubits, backend=self._xp
        )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not self._xp.is_numpy:
            x = self._xp.to_numpy(x)
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

    def peak_bytes(self, rows: int) -> int:
        # The compiled engine's recorded-adjoint sweep dominates this
        # layer's working set (every run at the compiled, deepest
        # depth); the weight stacks are counted by the owning
        # StackedSequential/GroupedStack.
        return self._engine.peak_bytes(rows, runs=self.runs, mode="adjoint")

    def bind(self, params, grads) -> None:
        super().bind(params, grads)
        self.weights = params[0]

    def sync_to_layers(self, layers) -> None:
        for r, lay in enumerate(layers):
            own = self._xp.to_numpy(self.weights[r, : lay.n_weights])
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

    The layers must agree on everything but depth.  Different depths
    stack only when the deepest tape runs the engine's dense path and
    every shallower tape is a layer prefix of it
    (:meth:`CompiledTape.is_layer_prefix`), so the engine's per-run
    ``depths`` reproduce each layer's own circuit.

    Returns ``None`` — scalar fallback — for parameter-shift layers, for
    mismatched structures, and for tapes the engine cannot rebind (the
    same per-sample-parameter check :meth:`QuantumLayer._compile_engine`
    applies).
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
    tape = deepest.representative_tape()
    for op in tape:
        for ref, param in zip(op.refs, op.params):
            rebindable = ref is not None and ref.kind == "input"
            if param.ndim == 1 and not rebindable:
                return None
    depths = {lay.n_layers for lay in layers}
    if len(depths) == 1:
        return StackedQuantumLayer(runs, layers)
    engine = compiled_tape(tape, deepest.n_qubits, backend=active_backend())
    for depth in depths - {deepest.n_layers}:
        shallow = next(lay for lay in layers if lay.n_layers == depth)
        prefix = compiled_tape(shallow.representative_tape(), first.n_qubits)
        if not prefix.is_layer_prefix(engine):
            return None
    return StackedQuantumLayer(runs, layers, engine)


register_stacker(QuantumLayer, _stack_quantum_layers)
