"""Circuit representation and execution.

A circuit is a flat list of :class:`Operation` objects ("tape").  Each
operation knows:

* its gate ``name`` and ``wires``,
* its bound parameter values (scalars shared across the batch, or
  per-sample ``(B,)`` arrays — used by data encodings),
* a :class:`ParamRef` per parameter saying *where the parameter came from*
  (an input feature or a flat trainable-weight index), which is how the
  differentiation backends (:mod:`repro.quantum.adjoint`,
  :mod:`repro.quantum.parameter_shift`) route gradients back to the hybrid
  layer.

The executor is intentionally minimal: ``run(ops, n_qubits, batch)`` folds
the tape over a zero state.  Templates (:mod:`repro.quantum.templates`)
build tapes; they do not execute anything themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..exceptions import GateError, ShapeError, WireError
from . import gates
from .state import (
    apply_cnot,
    apply_cz,
    apply_single_qubit,
    apply_two_qubit,
    zero_state,
)

__all__ = [
    "ParamRef",
    "input_ref",
    "weight_ref",
    "Operation",
    "GateInfo",
    "GATE_SET",
    "run",
    "shift_parameter",
    "tape_summary",
]


@dataclass(frozen=True)
class ParamRef:
    """Provenance of one gate parameter.

    ``kind`` is ``"input"`` (the parameter is feature ``index`` of the
    data point being encoded) or ``"weight"`` (the parameter is element
    ``index`` of the flattened trainable weight vector).
    """

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("input", "weight"):
            raise GateError(f"unknown ParamRef kind {self.kind!r}")
        if self.index < 0:
            raise GateError(f"ParamRef index must be >= 0, got {self.index}")


def input_ref(index: int) -> ParamRef:
    """Shorthand for a data-input parameter reference."""
    return ParamRef("input", index)


def weight_ref(index: int) -> ParamRef:
    """Shorthand for a trainable-weight parameter reference."""
    return ParamRef("weight", index)


@dataclass(frozen=True)
class GateInfo:
    """Static description of a gate type.

    ``basis_perm`` / ``basis_diag`` describe gates whose action on the
    computational basis is a pure index permutation (CNOT, SWAP) or a
    ``+-1`` diagonal (CZ).  The compiled execution engine
    (:mod:`repro.quantum.engine`) folds a ring of them into one signed
    row permutation of a layer's unitary instead of matrix products;
    ``basis_perm[j]`` is the source basis index contributing to target
    basis index ``j`` of the gate's local ``|wire_a wire_b>`` ordering.
    """

    n_wires: int
    n_params: int
    matrix_fn: Callable[..., np.ndarray] | None
    deriv_fn: Callable[..., tuple | np.ndarray] | None
    basis_perm: tuple[int, ...] | None = None
    basis_diag: tuple[int, ...] | None = None


#: Registry of supported gates.  Fixed gates carry their constant matrix
#: via a zero-argument lambda; CNOT/CZ are executed as index permutations
#: and therefore have no matrix builder here (their unitaries are still
#: available as :data:`repro.quantum.gates.CNOT` / ``CZ``).
GATE_SET: dict[str, GateInfo] = {
    "RX": GateInfo(1, 1, gates.rx, gates.rx_deriv),
    "RY": GateInfo(1, 1, gates.ry, gates.ry_deriv),
    "RZ": GateInfo(1, 1, gates.rz, gates.rz_deriv),
    "PhaseShift": GateInfo(1, 1, gates.phase_shift, None),
    "Rot": GateInfo(1, 3, gates.rot, gates.rot_deriv),
    "H": GateInfo(1, 0, lambda: gates.HADAMARD, None),
    "X": GateInfo(1, 0, lambda: gates.PAULI_X, None),
    "Y": GateInfo(1, 0, lambda: gates.PAULI_Y, None),
    "Z": GateInfo(1, 0, lambda: gates.PAULI_Z, None),
    "S": GateInfo(1, 0, lambda: gates.S_GATE, None),
    "T": GateInfo(1, 0, lambda: gates.T_GATE, None),
    "CNOT": GateInfo(2, 0, None, None, basis_perm=(0, 1, 3, 2)),
    "CZ": GateInfo(2, 0, None, None, basis_diag=(1, 1, 1, -1)),
    "SWAP": GateInfo(2, 0, lambda: gates.SWAP, None, basis_perm=(0, 2, 1, 3)),
    # Controlled rotations: fixed-parameter building blocks for custom
    # ansatze.  They have no analytic derivative rule registered, so
    # giving their parameter a gradient reference is rejected by the
    # adjoint backend (use parameter_shift... note the two-eigenvalue
    # shift rule is NOT exact for them; treat them as non-trainable).
    "CRX": GateInfo(2, 1, gates.crx, None),
    "CRY": GateInfo(2, 1, gates.cry, None),
    "CRZ": GateInfo(2, 1, gates.crz, None),
}


@dataclass
class Operation:
    """One gate application in a tape."""

    name: str
    wires: tuple[int, ...]
    params: tuple[np.ndarray, ...] = ()
    refs: tuple[ParamRef | None, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.name not in GATE_SET:
            raise GateError(f"unknown gate {self.name!r}")
        info = GATE_SET[self.name]
        if len(self.wires) != info.n_wires:
            raise WireError(
                f"{self.name} acts on {info.n_wires} wires, got {self.wires}"
            )
        if len(self.params) != info.n_params:
            raise GateError(
                f"{self.name} takes {info.n_params} parameters, "
                f"got {len(self.params)}"
            )
        if self.refs and len(self.refs) != info.n_params:
            raise GateError(
                f"{self.name}: refs length {len(self.refs)} != "
                f"n_params {info.n_params}"
            )
        if not self.refs:
            self.refs = (None,) * info.n_params
        self.params = tuple(np.asarray(p, dtype=np.float64) for p in self.params)

    @property
    def info(self) -> GateInfo:
        return GATE_SET[self.name]

    @property
    def is_parametrized(self) -> bool:
        return self.info.n_params > 0

    @property
    def is_trainable(self) -> bool:
        """True when at least one parameter has a gradient reference."""
        return any(r is not None for r in self.refs)

    def matrix(self) -> np.ndarray:
        """Gate matrix, possibly batched (for per-sample parameters)."""
        info = self.info
        if info.matrix_fn is None:
            raise GateError(f"{self.name} is executed as a permutation")
        return info.matrix_fn(*self.params)

    def deriv_matrices(self) -> tuple[np.ndarray, ...]:
        """Derivative of the gate matrix w.r.t. each of its parameters."""
        info = self.info
        if info.deriv_fn is None:
            raise GateError(f"{self.name} has no derivative rule")
        result = info.deriv_fn(*self.params)
        if isinstance(result, tuple):
            return result
        return (result,)


def _apply_operation(state: np.ndarray, op: Operation) -> np.ndarray:
    """Apply one operation to a batched state."""
    if op.name == "CNOT":
        return apply_cnot(state, op.wires[0], op.wires[1])
    if op.name == "CZ":
        return apply_cz(state, op.wires[0], op.wires[1])
    mat = op.matrix()
    if len(op.wires) == 1:
        return apply_single_qubit(state, mat, op.wires[0])
    return apply_two_qubit(state, mat, op.wires[0], op.wires[1])


def _apply_inverse(state: np.ndarray, op: Operation) -> np.ndarray:
    """Apply the inverse (conjugate transpose) of one operation."""
    if op.name == "CNOT":
        return apply_cnot(state, op.wires[0], op.wires[1])
    if op.name == "CZ":
        return apply_cz(state, op.wires[0], op.wires[1])
    mat = op.matrix()
    inv = np.conj(np.swapaxes(mat, -1, -2))
    if len(op.wires) == 1:
        return apply_single_qubit(state, inv, op.wires[0])
    return apply_two_qubit(state, inv, op.wires[0], op.wires[1])


def run(
    ops: Sequence[Operation],
    n_qubits: int,
    batch: int = 1,
    initial_state: np.ndarray | None = None,
) -> np.ndarray:
    """Execute a tape and return the final batched state.

    The state starts from ``|0...0>`` unless ``initial_state`` is given
    (which must have shape ``(batch,) + (2,) * n_qubits``).
    """
    if initial_state is None:
        state = zero_state(n_qubits, batch)
    else:
        expected = (batch,) + (2,) * n_qubits
        if initial_state.shape != expected:
            raise ShapeError(
                f"initial state shape {initial_state.shape} != {expected}"
            )
        state = initial_state.astype(np.complex128, copy=True)
    for op in ops:
        state = _apply_operation(state, op)
    return state


def shift_parameter(
    ops: Sequence[Operation], op_index: int, param_index: int, delta: float
) -> list[Operation]:
    """Return a copy of a tape with one gate angle shifted by ``delta``.

    Used by the parameter-shift rule; per-sample (batched) parameters are
    shifted element-wise.
    """
    if not 0 <= op_index < len(ops):
        raise GateError(f"op_index {op_index} out of range")
    target = ops[op_index]
    if param_index >= len(target.params):
        raise GateError(
            f"param_index {param_index} out of range for {target.name}"
        )
    new_params = tuple(
        p + delta if i == param_index else p
        for i, p in enumerate(target.params)
    )
    shifted = Operation(target.name, target.wires, new_params, target.refs)
    out = list(ops)
    out[op_index] = shifted
    return out


def tape_summary(ops: Iterable[Operation]) -> dict[str, int]:
    """Count gates by name — handy for tests and FLOPs accounting."""
    counts: dict[str, int] = {}
    for op in ops:
        counts[op.name] = counts.get(op.name, 0) + 1
    return counts
