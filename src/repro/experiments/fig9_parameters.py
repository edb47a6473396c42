"""Experiment E6 — paper Fig. 9.

Parameter counts of the top-performing models per complexity level,
three panels: classical (top), hybrid BEL (middle), hybrid SEL (bottom).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.experiment import ProtocolResult
from ..exceptions import ExperimentError
from .report import format_table
from .runner import RunProfile, run_family_cached

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.pool import PersistentPool

__all__ = ["run", "render"]

_PANEL_ORDER = ("classical", "bel", "sel")


def run(
    profile: str | RunProfile = "smoke",
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    pool: "PersistentPool | None" = None,
    **config_overrides,
) -> list[ProtocolResult]:
    """Run (or load) all three family protocols."""
    return [
        run_family_cached(
            f,
            profile,
            cache_dir=cache_dir,
            progress=progress,
            pool=pool,
            **config_overrides,
        )
        for f in _PANEL_ORDER
    ]


def render(results: Sequence[ProtocolResult]) -> str:
    """Fig. 9 as text: one panel per family, winners' parameter counts."""
    if not results:
        raise ExperimentError("fig9 needs at least one protocol result")
    blocks = ["Fig 9: parameter counts of best-performing models"]
    for result in results:
        rows = []
        for lvl in result.levels:
            winners = lvl.winners
            rows.append(
                [
                    lvl.feature_size,
                    ", ".join(
                        f"{w.spec.label}:{w.params}" for w in winners
                    )
                    or "-",
                    f"{lvl.mean_params:.1f}" if winners else "-",
                ]
            )
        blocks.append(
            format_table(
                ["features", "winners (params)", "avg_params"],
                rows,
                title=f"panel: {result.family}",
            )
        )
    return "\n\n".join(blocks)
