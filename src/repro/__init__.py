"""repro — reproduction of "Computational Advantage in Hybrid Quantum
Neural Networks: Myth or Reality?" (Kashif, Marchisio, Shafique, DAC 2025;
arXiv:2412.04991).

The library answers the paper's question — *does a quantum layer buy
computational efficiency?* — by rebuilding, from scratch and on NumPy
only, everything the study needs:

* :mod:`repro.quantum` — a batched statevector simulator with the paper's
  templates (angle embedding, BEL, SEL) and two exact gradient backends;
* :mod:`repro.nn` — a Keras-style NN framework (Dense/ReLU/Softmax,
  cross-entropy, Adam, the paper's training loop);
* :mod:`repro.hybrid` — the quantum layer and the paper's classical /
  hybrid model architectures;
* :mod:`repro.flops` — a convention-parameterized FLOPs profiler
  (the paper's complexity metric), calibrated against its Table I;
* :mod:`repro.data` — the spiral dataset with the feature-count
  complexity dial;
* :mod:`repro.core` — the benchmarking methodology: search spaces,
  FLOPs-sorted grid search, the 5x5 experiment protocol and the
  rate-of-increase comparison;
* :mod:`repro.runtime` — the parallel search runtime: process-pool
  execution of (candidate, run) training jobs with speculative
  FLOPs-order semantics, bit-identical to the sequential search;
* :mod:`repro.experiments` — drivers that regenerate every figure and
  table of the paper's evaluation.

Quickstart::

    from repro import make_spiral, stratified_split, build_hybrid_model
    from repro.nn import train_model
    from repro.flops import profile_model

    data = make_spiral(n_features=10)
    split = stratified_split(data)
    model = build_hybrid_model(10, n_qubits=3, n_layers=2, ansatz="sel")
    history = train_model(model, split.x_train, split.y_train,
                          split.x_val, split.y_val, epochs=30)
    print(history.max_val_accuracy)
    print(profile_model(model).summary())

Subpackages and the names re-exported here load on first use (see
:mod:`repro._lazy`), so ``import repro`` imports no subpackage; a new
public name goes in the table below.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": (
            "grid_search",
            "run_protocol",
            "comparative_analysis",
            "ProtocolConfig",
            "ClassicalSpec",
            "HybridSpec",
        ),
        "data": ("make_spiral", "stratified_split"),
        "flops": ("profile_model",),
        "hybrid": ("build_classical_model", "build_hybrid_model", "QuantumLayer"),
        "nn": ("Sequential", "train_model"),
    },
    submodules=(
        "config",
        "core",
        "data",
        "experiments",
        "flops",
        "hybrid",
        "nn",
        "paperdata",
        "quantum",
        "runtime",
    ),
)
__all__.append("__version__")
