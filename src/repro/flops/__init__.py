"""FLOPs accounting framework (the paper's complexity metric #1).

Replaces the paper's TensorFlow-profiler procedure with an analytic,
convention-parameterized cost model.  See
:mod:`repro.flops.conventions` for the counting rules and their
calibration against the paper's Table I.

Names load on first use (see :mod:`repro._lazy`); a new public name
goes in the table below.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "conventions": (
            "CountingConvention",
            "PAPER",
            "FIRST_PRINCIPLES",
            "PARAMETER_SHIFT",
            "CONVENTIONS",
            "get_convention",
        ),
        "classical": (
            "dense_flops",
            "relu_flops",
            "softmax_flops",
            "classical_layer_flops",
        ),
        "quantum": (
            "operation_fwd_flops",
            "tape_fwd_flops",
            "split_tape",
            "count_tape_params",
            "QuantumLayerFlops",
            "quantum_layer_flops",
        ),
        "profiler": (
            "LayerProfile",
            "FlopsBreakdown",
            "ModelProfile",
            "profile_model",
        ),
        "formulas": (
            "classical_param_count",
            "classical_model_flops",
            "hybrid_param_count",
            "hybrid_model_flops",
            "hybrid_flops_breakdown",
        ),
    },
)
