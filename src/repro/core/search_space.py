"""Model search spaces (paper sections III-B and III-C).

Classical space: every MLP with 1..3 hidden layers and widths from
{2, 4, 6, 8, 10} — ``m * (m**n - 1) / (m - 1) = 155`` combinations.

Hybrid space: qubits in {3, 4, 5} x quantum depth in {1..10} — 30
combinations per ansatz; the classical head is fixed by the feature count
and class count (only the quantum block is searched).

Specs are lightweight, hashable descriptions that know how to report
their parameter count and FLOPs (without being built) and how to build
the actual trainable model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import config
from ..exceptions import ConfigurationError
from ..flops.conventions import CountingConvention
from ..flops.formulas import (
    classical_model_flops,
    classical_param_count,
    hybrid_model_flops,
    hybrid_param_count,
)
from ..hybrid.builders import build_classical_model, build_hybrid_model
from ..nn.model import Sequential

__all__ = [
    "ModelSpec",
    "ClassicalSpec",
    "HybridSpec",
    "combination_count",
    "classical_search_space",
    "hybrid_search_space",
    "search_space_for_family",
    "FAMILIES",
]

FAMILIES = ("classical", "bel", "sel")


@dataclass(frozen=True)
class ModelSpec:
    """Common interface of search-space entries."""

    n_features: int
    n_classes: int = 3

    @property
    def label(self) -> str:
        raise NotImplementedError

    @property
    def param_count(self) -> int:
        raise NotImplementedError

    def flops(self, convention: str | CountingConvention = "paper") -> int:
        raise NotImplementedError

    def build(self, rng: np.random.Generator | None = None) -> Sequential:
        raise NotImplementedError

    def group_key(self) -> tuple | None:
        """Signature for cross-candidate stacked execution.

        Candidates with equal non-``None`` keys — one family at one
        feature and class count — build models that take the same input
        and end in the same output layer, so the runtime may merge their
        run sets into one fused sweep
        (:func:`repro.nn.stacked.stack_candidates`) with a shared head
        and tail.  ``None`` means this spec never groups.
        """
        return None


@dataclass(frozen=True)
class ClassicalSpec(ModelSpec):
    """One classical grid-search combination."""

    hidden: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.hidden:
            raise ConfigurationError("ClassicalSpec needs >= 1 hidden layer")

    @property
    def label(self) -> str:
        return "C[" + ",".join(str(h) for h in self.hidden) + "]"

    @property
    def param_count(self) -> int:
        return classical_param_count(
            self.n_features, self.hidden, self.n_classes
        )

    def flops(self, convention: str | CountingConvention = "paper") -> int:
        return classical_model_flops(
            self.n_features, self.hidden, self.n_classes, convention
        )

    def build(self, rng: np.random.Generator | None = None) -> Sequential:
        return build_classical_model(
            self.n_features, self.hidden, self.n_classes, rng=rng
        )

    def group_key(self) -> tuple | None:
        return ("classical", self.n_features, self.n_classes)


@dataclass(frozen=True)
class HybridSpec(ModelSpec):
    """One hybrid grid-search combination.

    ``hidden`` is an optional classical head (``Dense + ReLU`` per
    width) in front of the quantum block's input layer.  The paper's
    search space keeps it empty; head-varying spaces hold many
    candidates that differ *only* in their head — structurally
    identical tapes that a cross-candidate fused sweep (see
    :meth:`group_key`) runs as one shared quantum layer.
    """

    n_qubits: int = 3
    n_layers: int = 1
    ansatz: str = "sel"
    hidden: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.ansatz not in ("bel", "sel"):
            raise ConfigurationError(f"unknown ansatz {self.ansatz!r}")
        if self.n_qubits < 1 or self.n_layers < 1:
            raise ConfigurationError(
                f"invalid hybrid spec: q={self.n_qubits}, l={self.n_layers}"
            )
        if any(h < 1 for h in self.hidden):
            raise ConfigurationError(
                f"hidden widths must be >= 1, got {self.hidden}"
            )

    @property
    def label(self) -> str:
        base = f"{self.ansatz.upper()}({self.n_qubits},{self.n_layers})"
        if self.hidden:
            base += "+C[" + ",".join(str(h) for h in self.hidden) + "]"
        return base

    @property
    def param_count(self) -> int:
        return hybrid_param_count(
            self.n_features,
            self.n_qubits,
            self.n_layers,
            self.ansatz,
            self.n_classes,
            hidden=self.hidden,
        )

    def flops(self, convention: str | CountingConvention = "paper") -> int:
        return hybrid_model_flops(
            self.n_features,
            self.n_qubits,
            self.n_layers,
            self.ansatz,
            self.n_classes,
            convention,
            hidden=self.hidden,
        )

    def build(self, rng: np.random.Generator | None = None) -> Sequential:
        return build_hybrid_model(
            self.n_features,
            self.n_qubits,
            self.n_layers,
            ansatz=self.ansatz,
            n_classes=self.n_classes,
            hidden=self.hidden,
            rng=rng,
        )

    def group_key(self) -> tuple | None:
        return (self.ansatz, self.n_features, self.n_classes)


def combination_count(n_options: int, max_layers: int) -> int:
    """The paper's formula: ``m * (m**n - 1) / (m - 1)`` combinations.

    >>> combination_count(5, 3)
    155
    >>> combination_count(2, 2)
    6
    """
    if n_options < 1 or max_layers < 1:
        raise ConfigurationError("need >= 1 option and >= 1 layer")
    if n_options == 1:
        return max_layers
    return n_options * (n_options**max_layers - 1) // (n_options - 1)


def classical_search_space(
    n_features: int,
    neuron_options: Sequence[int] = config.CLASSICAL_NEURON_OPTIONS,
    max_layers: int = config.CLASSICAL_MAX_LAYERS,
    n_classes: int = config.N_CLASSES,
) -> list[ClassicalSpec]:
    """All classical combinations, shallow-first, in deterministic order."""
    if not neuron_options:
        raise ConfigurationError("neuron_options must be non-empty")
    specs: list[ClassicalSpec] = []
    for depth in range(1, max_layers + 1):
        for hidden in itertools.product(neuron_options, repeat=depth):
            specs.append(
                ClassicalSpec(
                    n_features=n_features,
                    n_classes=n_classes,
                    hidden=tuple(hidden),
                )
            )
    return specs


def hybrid_search_space(
    n_features: int,
    ansatz: str,
    qubit_options: Sequence[int] = config.HYBRID_QUBIT_OPTIONS,
    depth_options: Sequence[int] = config.HYBRID_DEPTH_OPTIONS,
    n_classes: int = config.N_CLASSES,
    head_options: Sequence[Sequence[int]] = ((),),
) -> list[HybridSpec]:
    """All hybrid combinations for one ansatz.

    ``head_options`` extends the space with classical-head variants per
    quantum block (default: the paper's single head-less architecture).
    Every head variant of one ``(qubits, depth)`` cell shares a tape
    structure, so the search trains them as one cross-candidate stack.
    """
    if not qubit_options or not depth_options:
        raise ConfigurationError("qubit/depth options must be non-empty")
    if not head_options:
        raise ConfigurationError("head_options must be non-empty")
    return [
        HybridSpec(
            n_features=n_features,
            n_classes=n_classes,
            n_qubits=q,
            n_layers=l,
            ansatz=ansatz,
            hidden=tuple(head),
        )
        for q in qubit_options
        for l in depth_options
        for head in head_options
    ]


def search_space_for_family(
    family: str,
    n_features: int,
    n_classes: int = config.N_CLASSES,
    neuron_options: Sequence[int] = config.CLASSICAL_NEURON_OPTIONS,
    max_layers: int = config.CLASSICAL_MAX_LAYERS,
    qubit_options: Sequence[int] = config.HYBRID_QUBIT_OPTIONS,
    depth_options: Sequence[int] = config.HYBRID_DEPTH_OPTIONS,
) -> list[ModelSpec]:
    """Search space of one model family: classical, bel or sel."""
    if family == "classical":
        return list(
            classical_search_space(
                n_features, neuron_options, max_layers, n_classes
            )
        )
    if family in ("bel", "sel"):
        return list(
            hybrid_search_space(
                n_features, family, qubit_options, depth_options, n_classes
            )
        )
    raise ConfigurationError(
        f"unknown family {family!r}; options: {FAMILIES}"
    )
