"""Circuit templates used by the paper's hybrid models.

Three templates, matching their PennyLane namesakes:

* :func:`angle_embedding` — one single-qubit rotation per feature
  (the paper uses angle encoding, one qubit per encoded feature).
* :func:`basic_entangler_layers` — the paper's **BEL** ansatz: per layer,
  one single-parameter rotation on every qubit (RY, per the paper's
  Fig. 5) followed by a closed ring of CNOTs.
* :func:`strongly_entangling_layers` — the paper's **SEL** ansatz: per
  layer, a general ``Rot(phi, theta, omega)`` on every qubit followed by a
  CNOT ring whose range cycles with the layer index (PennyLane's default
  ``r = l mod (n-1) + 1``).

All builders return plain tapes (lists of
:class:`repro.quantum.circuit.Operation`); parameter provenance is encoded
via :class:`~repro.quantum.circuit.ParamRef` so differentiation backends
can route gradients to inputs or flattened weights.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from .circuit import Operation, input_ref, weight_ref

__all__ = [
    "angle_embedding",
    "angle_embedding_structure",
    "basic_entangler_layers",
    "strongly_entangling_layers",
    "bel_weight_shape",
    "sel_weight_shape",
    "bel_param_count",
    "sel_param_count",
    "sel_ranges",
    "random_bel_weights",
    "random_sel_weights",
]

_ROTATIONS = ("X", "Y", "Z")


def _rotation_name(rotation: str) -> str:
    if rotation.upper() not in _ROTATIONS:
        raise ConfigurationError(
            f"rotation must be one of {_ROTATIONS}, got {rotation!r}"
        )
    return "R" + rotation.upper()


def angle_embedding(
    features: np.ndarray, n_qubits: int, rotation: str = "Y"
) -> list[Operation]:
    """Encode up to ``n_qubits`` features as rotation angles.

    ``features`` has shape ``(B, k)`` with ``k <= n_qubits`` (one qubit per
    feature, PennyLane semantics).  Each encoded gate carries an
    ``input`` :class:`ParamRef` so gradients flow back to the data.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(
            f"features must be (batch, k), got shape {features.shape}"
        )
    k = features.shape[1]
    if k > n_qubits:
        raise ShapeError(
            f"{k} features need {k} qubits, register only has {n_qubits}"
        )
    name = _rotation_name(rotation)
    return [
        Operation(name, (w,), (features[:, w],), (input_ref(w),))
        for w in range(k)
    ]


def angle_embedding_structure(
    n_features: int, n_qubits: int, rotation: str = "Y"
) -> list[Operation]:
    """Structural (placeholder-angle) version of :func:`angle_embedding`.

    Used to compile a circuit once before any data is seen: each encoding
    gate carries a zero placeholder angle plus the ``input`` ref that the
    compiled engine (:mod:`repro.quantum.engine`) rebinds per batch.
    """
    if n_features > n_qubits:
        raise ShapeError(
            f"{n_features} features need {n_features} qubits, "
            f"register only has {n_qubits}"
        )
    name = _rotation_name(rotation)
    return [
        Operation(name, (w,), (0.0,), (input_ref(w),))
        for w in range(n_features)
    ]


def _cnot_ring(n_qubits: int, offset: int = 1) -> list[Operation]:
    """Closed ring of CNOTs ``(i, (i + offset) mod n)``.

    Follows PennyLane: with two qubits a full ring would apply the same
    CNOT twice, so only a single CNOT is emitted; a single qubit gets no
    entangler at all.
    """
    if n_qubits == 1:
        return []
    if n_qubits == 2:
        return [Operation("CNOT", (0, 1))]
    return [
        Operation("CNOT", (i, (i + offset) % n_qubits))
        for i in range(n_qubits)
    ]


def bel_weight_shape(n_layers: int, n_qubits: int) -> tuple[int, int]:
    """Weight shape for :func:`basic_entangler_layers`."""
    return (n_layers, n_qubits)


def sel_weight_shape(n_layers: int, n_qubits: int) -> tuple[int, int, int]:
    """Weight shape for :func:`strongly_entangling_layers`."""
    return (n_layers, n_qubits, 3)


def bel_param_count(n_layers: int, n_qubits: int) -> int:
    """Trainable parameters of a BEL ansatz."""
    return n_layers * n_qubits


def sel_param_count(n_layers: int, n_qubits: int) -> int:
    """Trainable parameters of an SEL ansatz."""
    return 3 * n_layers * n_qubits


def sel_ranges(n_layers: int, n_qubits: int) -> tuple[int, ...]:
    """PennyLane's default entangling ranges: ``r_l = l mod (n-1) + 1``."""
    if n_qubits == 1:
        return (0,) * n_layers
    return tuple(l % (n_qubits - 1) + 1 for l in range(n_layers))


def basic_entangler_layers(
    weights: np.ndarray, n_qubits: int, rotation: str = "Y"
) -> list[Operation]:
    """BEL ansatz tape for weights of shape ``(n_layers, n_qubits)``.

    Weight ``(l, i)`` maps to flat index ``l * n_qubits + i`` in the
    gradient vector.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != n_qubits:
        raise ShapeError(
            f"BEL weights must be (n_layers, {n_qubits}), got {weights.shape}"
        )
    name = _rotation_name(rotation)
    ops: list[Operation] = []
    n_layers = weights.shape[0]
    for l in range(n_layers):
        for i in range(n_qubits):
            flat = l * n_qubits + i
            ops.append(
                Operation(name, (i,), (weights[l, i],), (weight_ref(flat),))
            )
        ops.extend(_cnot_ring(n_qubits))
    return ops


def strongly_entangling_layers(
    weights: np.ndarray,
    n_qubits: int,
    ranges: tuple[int, ...] | None = None,
) -> list[Operation]:
    """SEL ansatz tape for weights of shape ``(n_layers, n_qubits, 3)``.

    Weight ``(l, i, k)`` maps to flat index ``(l * n_qubits + i) * 3 + k``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3 or weights.shape[1:] != (n_qubits, 3):
        raise ShapeError(
            f"SEL weights must be (n_layers, {n_qubits}, 3), "
            f"got {weights.shape}"
        )
    n_layers = weights.shape[0]
    if ranges is None:
        ranges = sel_ranges(n_layers, n_qubits)
    if len(ranges) != n_layers:
        raise ConfigurationError(
            f"need one range per layer ({n_layers}), got {len(ranges)}"
        )
    ops: list[Operation] = []
    for l in range(n_layers):
        for i in range(n_qubits):
            base = (l * n_qubits + i) * 3
            ops.append(
                Operation(
                    "Rot",
                    (i,),
                    tuple(weights[l, i, k] for k in range(3)),
                    tuple(weight_ref(base + k) for k in range(3)),
                )
            )
        ops.extend(_cnot_ring(n_qubits, offset=ranges[l]))
    return ops


def random_bel_weights(
    n_layers: int, n_qubits: int, rng: np.random.Generator
) -> np.ndarray:
    """PennyLane-style initialization: uniform angles in ``[0, 2*pi)``."""
    return rng.uniform(0.0, 2.0 * np.pi, size=bel_weight_shape(n_layers, n_qubits))


def random_sel_weights(
    n_layers: int, n_qubits: int, rng: np.random.Generator
) -> np.ndarray:
    """PennyLane-style initialization: uniform angles in ``[0, 2*pi)``."""
    return rng.uniform(0.0, 2.0 * np.pi, size=sel_weight_shape(n_layers, n_qubits))
