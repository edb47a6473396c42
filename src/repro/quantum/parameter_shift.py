"""Parameter-shift gradients.

Every parametrized gate in this library is generated by a Pauli with
eigenvalues +-1/2 (``U = exp(-i theta P / 2)``), so the two-term shift
rule is exact:

    ``dE/dtheta = (E(theta + pi/2) - E(theta - pi/2)) / 2``.

This backend costs two full circuit executions per scalar parameter.  It
exists for two reasons: (1) it is how gradients would be obtained on real
quantum hardware, which matters for the FLOPs-accounting conventions in
:mod:`repro.flops`; (2) it is an independent oracle used by the test suite
to validate :mod:`repro.quantum.adjoint`.

:func:`parameter_shift_gradients` runs on the reference executor
(:func:`repro.quantum.circuit.run`) and serves every tape, so it stays
an independent oracle.  A ``gradient_method="parameter_shift"``
:class:`~repro.hybrid.QuantumLayer` runs on the reference executor too:
no search trains one, and the FLOPs conventions price the shift rule by
formula (:data:`repro.flops.conventions.PARAMETER_SHIFT`), not by
running it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import Operation, run, shift_parameter
from .measurements import expval_z

__all__ = [
    "parameter_shift_gradients",
    "count_shifted_executions",
]

_SHIFT = np.pi / 2.0


def count_shifted_executions(ops: Sequence[Operation]) -> int:
    """Number of extra circuit executions the shift rule needs (2 per
    referenced scalar parameter)."""
    n_params = sum(
        sum(1 for r in op.refs if r is not None) for op in ops
    )
    return 2 * n_params


def parameter_shift_gradients(
    ops: Sequence[Operation],
    n_qubits: int,
    batch: int,
    grad_out: np.ndarray,
    n_inputs: int,
    n_weights: int,
    measure_wires: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Same contract as :func:`repro.quantum.adjoint.adjoint_gradients`.

    Returns per-sample gradients for ``input`` parameters and
    batch-summed gradients for ``weight`` parameters.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    input_grads = np.zeros((batch, n_inputs), dtype=np.float64)
    weight_grads = np.zeros(n_weights, dtype=np.float64)

    for op_idx, op in enumerate(ops):
        for p_idx, ref in enumerate(op.refs):
            if ref is None:
                continue
            plus = run(
                shift_parameter(ops, op_idx, p_idx, +_SHIFT), n_qubits, batch
            )
            minus = run(
                shift_parameter(ops, op_idx, p_idx, -_SHIFT), n_qubits, batch
            )
            d_exp = 0.5 * (
                expval_z(plus, measure_wires) - expval_z(minus, measure_wires)
            )
            per_sample = np.sum(grad_out * d_exp, axis=1)
            if ref.kind == "input":
                input_grads[:, ref.index] += per_sample
            else:
                weight_grads[ref.index] += per_sample.sum()

    return input_grads, weight_grads
