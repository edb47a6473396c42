"""The paper's benchmarking methodology (its primary contribution).

Search spaces, the FLOPs-sorted sequential grid search, the five-times-
repeated experiment protocol, the comparative (rate-of-increase)
analysis, and result serialization.

Every name but the grid search's loads on first use (see
:mod:`repro._lazy`); a new public name goes in the table below.  The
grid search is imported eagerly: every search needs it, and
``repro.core.grid_search`` must stay the function, not its submodule.
"""

from .._lazy import lazy_exports
from .grid_search import (
    CandidateResult,
    SearchOutcome,
    TrainingSettings,
    grid_search,
    rank_by_flops,
)

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "search_space": (
            "FAMILIES",
            "ModelSpec",
            "ClassicalSpec",
            "HybridSpec",
            "combination_count",
            "classical_search_space",
            "hybrid_search_space",
            "search_space_for_family",
        ),
        "experiment": (
            "ProtocolConfig",
            "ProtocolResult",
            "LevelResult",
            "run_protocol",
            "make_level_split",
        ),
        "comparison": (
            "rate_of_increase",
            "absolute_increase",
            "SeriesSummary",
            "ComparativeAnalysis",
            "comparative_analysis",
        ),
        "results": (
            "save_protocol",
            "load_protocol",
            "protocol_to_dict",
            "protocol_from_dict",
        ),
        "export": (
            "winners_csv",
            "write_winners_csv",
            "winners_markdown",
            "comparison_markdown",
        ),
    },
)
__all__ += [
    "TrainingSettings",
    "CandidateResult",
    "SearchOutcome",
    "grid_search",
    "rank_by_flops",
]
