"""Batched statevector quantum simulator.

This subpackage replaces PennyLane's ``default.qubit`` device for the
paper's experiments: gate definitions (:mod:`~repro.quantum.gates`),
batched state algebra (:mod:`~repro.quantum.state`), tape representation
and execution (:mod:`~repro.quantum.circuit`), the paper's three templates
(:mod:`~repro.quantum.templates`), Z-expectation measurements
(:mod:`~repro.quantum.measurements`) and two exact differentiation
backends (:mod:`~repro.quantum.adjoint`,
:mod:`~repro.quantum.parameter_shift`).

Production execution goes through the compiled engine
(:mod:`~repro.quantum.engine`): compile a circuit's structure once with
:class:`~repro.quantum.engine.CompiledTape`, then execute it many times
with only parameter values changing.  The tape-walking reference
executor (:func:`~repro.quantum.circuit.run`) remains the semantics
oracle the engine is differentially tested against, and it runs every
tape outside the engine's shape.
"""

from . import gates
from .adjoint import adjoint_gradients
from .engine import (
    CompiledTape,
    compile_cache_info,
    compile_cache_scope,
    compiled_tape,
    disable_compile_cache,
    enable_compile_cache,
)
from .circuit import (
    GATE_SET,
    Operation,
    ParamRef,
    input_ref,
    run,
    shift_parameter,
    tape_summary,
    weight_ref,
)
from .measurements import (
    apply_z_linear_combination,
    expval_z,
    marginal_probabilities,
)
from .parameter_shift import (
    count_shifted_executions,
    parameter_shift_gradients,
)
from .state import (
    abs2,
    apply_cnot,
    apply_cz,
    apply_single_qubit,
    apply_two_qubit,
    as_matrix,
    basis_state,
    norms,
    num_qubits,
    probabilities,
    zero_state,
)
from .templates import (
    angle_embedding,
    angle_embedding_structure,
    basic_entangler_layers,
    bel_param_count,
    bel_weight_shape,
    random_bel_weights,
    random_sel_weights,
    sel_param_count,
    sel_ranges,
    sel_weight_shape,
    strongly_entangling_layers,
)

__all__ = [
    "gates",
    "GATE_SET",
    "Operation",
    "ParamRef",
    "input_ref",
    "weight_ref",
    "run",
    "shift_parameter",
    "tape_summary",
    "adjoint_gradients",
    "CompiledTape",
    "compiled_tape",
    "enable_compile_cache",
    "disable_compile_cache",
    "compile_cache_scope",
    "compile_cache_info",
    "parameter_shift_gradients",
    "count_shifted_executions",
    "expval_z",
    "apply_z_linear_combination",
    "marginal_probabilities",
    "zero_state",
    "basis_state",
    "num_qubits",
    "as_matrix",
    "apply_single_qubit",
    "apply_two_qubit",
    "apply_cnot",
    "apply_cz",
    "abs2",
    "norms",
    "probabilities",
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
