"""Experiment E7 — paper Fig. 10.

The headline comparison: rate of increase in FLOPs (panel a) and
parameter count (panel b) as problem complexity grows, for classical,
hybrid-BEL and hybrid-SEL models.  The paper's claim ordering is

    classical > hybrid (BEL) > hybrid (SEL)

for both metrics, i.e. SEL-based HQNNs adapt to problem complexity with
the smallest growth in computational demands.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.comparison import ComparativeAnalysis, comparative_analysis
from ..core.experiment import ProtocolResult
from .report import format_table
from .runner import RunProfile, run_family_cached

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.pool import PersistentPool

__all__ = ["run", "analyze", "render"]

_FAMILIES = ("classical", "bel", "sel")


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
        for f in _FAMILIES
    ]


def analyze(
    results: Sequence[ProtocolResult], use: str = "smallest"
) -> ComparativeAnalysis:
    """Fig. 10's analysis object (rates relative to the high level)."""
    return comparative_analysis(list(results), use=use)


def render(analysis: ComparativeAnalysis) -> str:
    """Fig. 10 as text: headline rates plus the pairwise-rate curves."""
    blocks = ["Fig 10: comparative rate-of-increase analysis"]
    blocks.append(analysis.summary_table())

    sizes = analysis.feature_sizes
    span_labels = [f"{sizes[0]}-{fs}" for fs in sizes[1:]]
    for panel, data in (("a: FLOPs", analysis.flops), ("b: params", analysis.params)):
        rows = []
        for family, series in data.items():
            rates = series.pairwise_rates()
            rows.append([family] + [f"{100.0 * r:.1f}" for r in rates])
        blocks.append(
            format_table(
                ["family"] + span_labels,
                rows,
                title=f"panel {panel}: % increase relative to the high level",
            )
        )
    return "\n\n".join(blocks)
