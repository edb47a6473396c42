"""Result (de)serialization.

Protocol runs are expensive, so every result object can round-trip
through JSON: run once, analyze many times.  The on-disk schema is
versioned; loaders refuse newer majors.  Specs and candidates
serialize beside their types (:mod:`~repro.core.search_space`,
:mod:`~repro.core.grid_search`), where the search journal reads them
without importing this module; they are re-exported here.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from ..exceptions import ExperimentError
from ..quantum.engine import ARITHMETIC_VERSION
from .experiment import LevelResult, ProtocolConfig, ProtocolResult
from .grid_search import SearchOutcome, candidate_from_dict, candidate_to_dict
from .search_space import spec_from_dict, spec_to_dict

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
    # Files saved while ProtocolConfig still had the ``spool`` or
    # ``connect`` transports or the ``vectorized_runs``/
    # ``stacked_candidates`` execution-shape fields carry them; none
    # affected results, so they are dropped.  Any other unknown key
    # still raises.
    for retired in (
        "spool", "connect", "vectorized_runs", "stacked_candidates"
    ):
        cfg_data.pop(retired, None)
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
