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

:func:`parameter_shift_gradients` deliberately stays on the reference
executor so it remains an independent oracle, and it serves every tape.
:func:`compiled_parameter_shift_gradients` is the production variant used
by the hybrid layer for tapes the engine compiles: it drives a
:class:`~repro.quantum.engine.CompiledTape` and runs all shifted circuits
as one run-stacked execute instead of rebuilding (and revalidating) a
whole ``Operation`` list per shift.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import ShapeError
from .circuit import Operation, run, shift_parameter
from .measurements import expval_z

__all__ = [
    "parameter_shift_gradients",
    "compiled_parameter_shift_gradients",
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


def compiled_parameter_shift_gradients(
    engine,
    grad_out: np.ndarray,
    n_inputs: int,
    n_weights: int,
    inputs: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    measure_wires: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-shift gradients via a compiled engine.

    Same contract as :func:`parameter_shift_gradients`, but ``engine`` is
    a :class:`repro.quantum.engine.CompiledTape` and ``inputs`` /
    ``weights`` bind the unshifted circuit (``inputs`` is required when
    the tape encodes inputs).  The batch is ``grad_out``'s row count;
    ``inputs`` must have as many rows.

    In a compiled tape every input column feeds one encoding angle and
    every weight one layer angle, so shifting a parameter is shifting
    one column.  All ``2 * P`` shifted circuits therefore execute as the
    ``2 * P`` runs of **one** run-stacked execute: run ``2k`` / ``2k+1``
    carries parameter ``k``'s ``+pi/2`` / ``-pi/2`` circuit, input
    shifts in its tiled input rows and weight shifts in its weight row.
    Each run's ``<Z>`` is its own gemm, so every shifted circuit's
    arithmetic is that of a separate execution.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.ndim != 2:
        raise ShapeError(
            f"grad_out must be (batch, n_measured), got {grad_out.shape}"
        )
    batch = grad_out.shape[0]
    in_cols, w_cols = engine.input_columns, engine.weight_columns
    if weights is None:
        raise ShapeError("compiled parameter shift needs the weights binding")
    weights = np.ravel(np.asarray(weights, dtype=np.float64))
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[0] != batch:
            raise ShapeError(
                f"inputs have {inputs.shape[0]} rows but grad_out has {batch}"
            )
    elif in_cols.size:
        raise ShapeError("compiled parameter shift needs the inputs binding")
    n_in = in_cols.size
    n_params = n_in + w_cols.size
    runs = 2 * n_params
    plus = 2 * np.arange(n_params)

    run_weights = np.tile(weights, (runs, 1))
    run_weights[plus[n_in:], w_cols] += _SHIFT
    run_weights[plus[n_in:] + 1, w_cols] -= _SHIFT
    run_inputs = None
    if inputs is not None:
        run_inputs = np.tile(inputs, (runs, 1, 1))
        run_inputs[plus[:n_in], :, in_cols] += _SHIFT
        run_inputs[plus[:n_in] + 1, :, in_cols] -= _SHIFT
        run_inputs = run_inputs.reshape(runs * batch, -1)
    state = engine.execute(
        inputs=run_inputs, weights=run_weights, batch=runs * batch, runs=runs
    )
    exp = engine.expvals(state, wires=measure_wires, runs=runs).reshape(
        n_params, 2, batch, -1
    )
    per_sample = np.sum(grad_out * (0.5 * (exp[:, 0] - exp[:, 1])), axis=2)

    input_grads = np.zeros((batch, n_inputs), dtype=np.float64)
    input_grads[:, in_cols] = per_sample[:n_in].T
    weight_grads = np.zeros(n_weights, dtype=np.float64)
    weight_grads[w_cols] = per_sample[n_in:].sum(axis=1)
    return input_grads, weight_grads
