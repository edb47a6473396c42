"""Experiment E5 — paper Fig. 8.

FLOPs consumption of the best-performing hybrid models with the Strongly
Entangling Layer (SEL) ansatz across complexity levels.  The paper's
finding: the same small SEL circuit suffices at every complexity level,
so FLOPs grow only through the classical input layer.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..core.experiment import ProtocolResult
from .report import format_level_winners
from .runner import RunProfile, run_family_cached

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.pool import PersistentPool

__all__ = ["run", "render"]


def run(
    profile: str | RunProfile = "smoke",
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    pool: "PersistentPool | None" = None,
    **config_overrides,
) -> ProtocolResult:
    """Run (or load) the hybrid-SEL protocol under a profile."""
    return run_family_cached(
        "sel",
        profile,
        cache_dir=cache_dir,
        progress=progress,
        pool=pool,
        **config_overrides,
    )


def render(result: ProtocolResult) -> str:
    """Fig. 8 as text: winners and average FLOPs per complexity level."""
    header = "Fig 8: FLOPs of best-performing hybrid (SEL) models"
    return header + "\n" + format_level_winners(result)
