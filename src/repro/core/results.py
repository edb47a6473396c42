"""Result (de)serialization.

Protocol runs are expensive, so every result object can round-trip
through JSON: run once, analyze many times.  The on-disk schema is
versioned; loaders refuse newer majors.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from ..exceptions import ExperimentError
from ..quantum.engine import ARITHMETIC_VERSION
from .experiment import LevelResult, ProtocolConfig, ProtocolResult
from .grid_search import CandidateResult, SearchOutcome
from .search_space import ClassicalSpec, HybridSpec, ModelSpec

__all__ = [
    "SCHEMA_VERSION",
    "spec_to_dict",
    "spec_from_dict",
    "candidate_to_dict",
    "candidate_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "protocol_to_dict",
    "protocol_from_dict",
    "save_protocol",
    "load_protocol",
]

SCHEMA_VERSION = "1.0"


def spec_to_dict(spec: ModelSpec) -> dict[str, Any]:
    if isinstance(spec, ClassicalSpec):
        return {
            "type": "classical",
            "n_features": spec.n_features,
            "n_classes": spec.n_classes,
            "hidden": list(spec.hidden),
        }
    if isinstance(spec, HybridSpec):
        return {
            "type": "hybrid",
            "n_features": spec.n_features,
            "n_classes": spec.n_classes,
            "n_qubits": spec.n_qubits,
            "n_layers": spec.n_layers,
            "ansatz": spec.ansatz,
            "hidden": list(spec.hidden),
        }
    raise ExperimentError(f"cannot serialize spec type {type(spec).__name__}")


def spec_from_dict(data: dict[str, Any]) -> ModelSpec:
    kind = data.get("type")
    if kind == "classical":
        return ClassicalSpec(
            n_features=int(data["n_features"]),
            n_classes=int(data["n_classes"]),
            hidden=tuple(int(h) for h in data["hidden"]),
        )
    if kind == "hybrid":
        return HybridSpec(
            n_features=int(data["n_features"]),
            n_classes=int(data["n_classes"]),
            n_qubits=int(data["n_qubits"]),
            n_layers=int(data["n_layers"]),
            ansatz=str(data["ansatz"]),
            # Pre-head snapshots have no "hidden" field (the paper's
            # architecture): absent means the empty head.
            hidden=tuple(int(h) for h in data.get("hidden", ())),
        )
    raise ExperimentError(f"unknown spec type {kind!r}")


def candidate_to_dict(candidate: CandidateResult) -> dict[str, Any]:
    return {
        "spec": spec_to_dict(candidate.spec),
        "flops": candidate.flops,
        "params": candidate.params,
        "train_accuracies": list(candidate.train_accuracies),
        "val_accuracies": list(candidate.val_accuracies),
        "epochs_run": list(candidate.epochs_run),
        "wall_time_s": candidate.wall_time_s,
    }


def candidate_from_dict(data: dict[str, Any]) -> CandidateResult:
    return CandidateResult(
        spec=spec_from_dict(data["spec"]),
        flops=int(data["flops"]),
        params=int(data["params"]),
        train_accuracies=[float(a) for a in data["train_accuracies"]],
        val_accuracies=[float(a) for a in data["val_accuracies"]],
        epochs_run=[int(e) for e in data["epochs_run"]],
        wall_time_s=float(data["wall_time_s"]),
    )


def outcome_to_dict(outcome: SearchOutcome) -> dict[str, Any]:
    return {
        "threshold": outcome.threshold,
        "winner": (
            candidate_to_dict(outcome.winner) if outcome.winner else None
        ),
        "evaluated": [candidate_to_dict(c) for c in outcome.evaluated],
    }


def outcome_from_dict(data: dict[str, Any]) -> SearchOutcome:
    return SearchOutcome(
        threshold=float(data["threshold"]),
        winner=(
            candidate_from_dict(data["winner"]) if data["winner"] else None
        ),
        evaluated=[candidate_from_dict(c) for c in data["evaluated"]],
    )


def protocol_to_dict(result: ProtocolResult) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        # Which engine arithmetic produced these numbers (see
        # repro.quantum.engine.ARITHMETIC_VERSION); the result cache
        # recomputes files stamped with another one.
        "arithmetic_version": ARITHMETIC_VERSION,
        "family": result.family,
        "config": asdict(result.config),
        "levels": [
            {
                "feature_size": lvl.feature_size,
                "outcomes": [outcome_to_dict(o) for o in lvl.outcomes],
            }
            for lvl in result.levels
        ],
    }


def protocol_from_dict(data: dict[str, Any]) -> ProtocolResult:
    major = str(data.get("schema_version", "0")).split(".")[0]
    if major != SCHEMA_VERSION.split(".")[0]:
        raise ExperimentError(
            f"result schema {data.get('schema_version')!r} is incompatible "
            f"with library schema {SCHEMA_VERSION}"
        )
    cfg_data = dict(data["config"])
    cfg_data["feature_sizes"] = tuple(cfg_data["feature_sizes"])
    cfg = ProtocolConfig(**cfg_data)
    result = ProtocolResult(family=str(data["family"]), config=cfg)
    for lvl_data in data["levels"]:
        level = LevelResult(feature_size=int(lvl_data["feature_size"]))
        level.outcomes = [
            outcome_from_dict(o) for o in lvl_data["outcomes"]
        ]
        result.levels.append(level)
    return result


def save_protocol(result: ProtocolResult, path: str | Path) -> None:
    """Write a protocol result as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(protocol_to_dict(result), indent=2))


def load_protocol(path: str | Path) -> ProtocolResult:
    """Read a protocol result saved by :func:`save_protocol`."""
    return protocol_from_dict(json.loads(Path(path).read_text()))
