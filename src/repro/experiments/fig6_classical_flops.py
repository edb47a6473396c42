"""Experiment E3 — paper Fig. 6.

FLOPs consumption of the best-performing *classical* models across
complexity levels: grid-search the 155-combination classical space at
every feature size and report the winners' FLOPs.
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
    """Run (or load) the classical protocol under a profile."""
    return run_family_cached(
        "classical",
        profile,
        cache_dir=cache_dir,
        progress=progress,
        pool=pool,
        **config_overrides,
    )


def render(result: ProtocolResult) -> str:
    """Fig. 6 as text: winners and average FLOPs per complexity level."""
    header = "Fig 6: FLOPs of best-performing classical models"
    return header + "\n" + format_level_winners(result)
